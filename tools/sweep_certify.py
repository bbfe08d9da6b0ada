"""Certify the kinds of the sweep's obtuse cells for a range of resolutions.

    python3 tools/sweep_certify.py [FROM TO]

An obtuse sweep cell's kind, interior or exterior, is the sign of the
interior criterion's margin at the tangents of its two acute angles,
pi i / n and pi j / n, and the sweep computes that margin in floats.  For
every resolution n = FROM .. TO (default 3 .. 1000, every resolution
`tripart sweep` allows that has an obtuse cell) this tool computes each
obtuse shape's margin in floats, one per unordered pair {i, j} with
i + j < n / 2.  Each shape whose float margin is within NEAR = 1e-6 of
zero is judged again in `decimal` at 50 digits, with this tool's own pi
and tangent, and against the shape's six rows in the CSV `tripart sweep`
writes, one per order of its three angles.  It prints the number of
shapes, how many lie within NEAR and the band, and the near shapes from
the nearest out: n, i, j, the exact margin, the sweep's kind and the
largest distance from a sweep row's margin to the exact one.

It exits 1 if a near shape's exact margin lies within the 1e-9 band of
`obtuse-boundary`, or if one of its sweep rows has a kind other than the
exact margin's sign gives.  A shape outside NEAR needs no decimal: the
float margin's error is far below NEAR minus the band (the tier-1 test
`tests/test_sweep_kinds.py` bounds the error of the same float
expression, in numpy, by 1e-12 max(1, |margin|)), so the shape's exact
margin has its float sign and lies far outside the band.
Stdlib only.
"""

from __future__ import annotations

import argparse
import math
import sys
from decimal import Decimal, localcontext
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tripart.geometry import CLASSIFY_TOL, OBTUSE_EXTERIOR, OBTUSE_INTERIOR  # noqa: E402
from tripart.problem import MAX_SWEEP_RESOLUTION, _fmt_num, _sweep_lines  # noqa: E402

NEAR = 1e-6  # a float margin this close to zero is judged in decimal
DIGITS = 50


def near_shapes(n: int) -> tuple[int, list]:
    """The number of obtuse shapes of resolution n and the (i, j, margin)
    of those whose float margin lies within NEAR of zero."""
    h = (n - 1) // 2  # the largest i + j below n / 2
    tans = [math.tan(math.pi * k / n) for k in range(h + 1)]
    sq = math.sqrt
    count, near = 0, []
    for i in range(1, h // 2 + 1):
        ta = tans[i]
        qa = 1.0 + ta * ta
        margins = [sq(qa * tb) + sq((1.0 + tb * tb) * ta) - sq(3.0 * (ta + tb)) for tb in tans[i : h - i + 1]]
        count += len(margins)
        if margins and min(map(abs, margins)) <= NEAR:
            near += [(i, j, m) for j, m in enumerate(margins, i) if abs(m) <= NEAR]
    return count, near


def _pi():
    """pi by the Bailey-Borwein-Plouffe series, at the current precision."""
    total, k = Decimal(0), 0
    while True:
        term = (Decimal(4) / (8 * k + 1) - Decimal(2) / (8 * k + 4) - Decimal(1) / (8 * k + 5)
                - Decimal(1) / (8 * k + 6)) / Decimal(16) ** k
        if total + term == total:
            return total
        total += term
        k += 1


def _tan(x):
    """tan(x) for 0 < x < pi / 2 by Lambert's continued fraction
    x / (1 - x^2 / (3 - x^2 / (5 - ...))), 60 levels deep, at the current
    precision."""
    x2, f = x * x, Decimal(121)
    for k in range(60, 0, -1):
        f = (2 * k - 1) - x2 / f
    return x / f


def exact_margin(n: int, i: int, j: int) -> Decimal:
    """The criterion margin of the shape with acute angles pi i / n and
    pi j / n, to DIGITS digits."""
    with localcontext() as ctx:
        ctx.prec = DIGITS + 15
        pi = _pi()
        ta, tb = _tan(pi * i / n), _tan(pi * j / n)
        value = ((1 + ta * ta) * tb).sqrt() + ((1 + tb * tb) * ta).sqrt() - (3 * (ta + tb)).sqrt()
        ctx.prec = DIGITS
        return +value


def sweep_cells(n: int, shapes) -> dict:
    """(kind, margin) of the six CSV rows of each shape (i, j) of resolution
    n in `shapes`, one per ordered pair (p, q) of its three angles, read from
    the lines `_sweep_lines(n)` writes: after the header, one piece per base
    angle p = 1 .. n - 2 holding its rows q = 1 .. n - p - 1."""
    wanted = {}
    for i, j in shapes:
        k = n - i - j
        for p, q in ((i, j), (j, i), (i, k), (k, i), (j, k), (k, j)):
            wanted.setdefault(p, []).append((q, (i, j)))
    out = {shape: [] for shape in shapes}
    for p, piece in enumerate(islice(_sweep_lines(n), 1, max(wanted, default=0) + 1), 1):
        lines = piece.splitlines()
        for q, shape in wanted.get(p, ()):
            a, b, kind, margin = lines[q - 1].split(",")
            if (a, b) != (_fmt_num(180.0 * p / n), _fmt_num(180.0 * q / n)):
                raise AssertionError(f"n={n}: row {a},{b} where {p},{q} was expected")
            out[shape].append((kind, float(margin)))
    return out


def certify(lo: int, hi: int) -> tuple[int, list, list]:
    """The shape count, the near shapes judged, as (n, i, j, exact margin,
    sweep kinds, largest |sweep margin - exact|), nearest first, and the
    faults found."""
    total, judged, faults = 0, [], []
    for n in range(lo, hi + 1):
        count, near = near_shapes(n)
        total += count
        cells = sweep_cells(n, [(i, j) for i, j, _ in near])
        for i, j, _ in near:
            exact = exact_margin(n, i, j)
            rows = cells[i, j]
            want = OBTUSE_INTERIOR if exact > 0 else OBTUSE_EXTERIOR
            kinds = sorted({kind for kind, _ in rows})
            if kinds != [want] or abs(exact) <= CLASSIFY_TOL:
                faults.append(f"n={n} i={i} j={j}: exact margin {exact:.3e} but sweep kinds {kinds}")
            worst = max(abs(Decimal(margin) - exact) for _, margin in rows)
            judged.append((n, i, j, exact, kinds, worst))
    judged.sort(key=lambda cell: abs(cell[3]))
    return total, judged, faults


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Certify the sweep's obtuse kinds for a range of resolutions.")
    parser.add_argument("lo", metavar="FROM", type=int, nargs="?", default=3)
    parser.add_argument("hi", metavar="TO", type=int, nargs="?", default=MAX_SWEEP_RESOLUTION)
    args = parser.parse_args(argv)
    if not 2 <= args.lo <= args.hi <= MAX_SWEEP_RESOLUTION:
        parser.error(f"need 2 <= FROM <= TO <= {MAX_SWEEP_RESOLUTION}")
    total, judged, faults = certify(args.lo, args.hi)
    print(f"resolutions {args.lo}..{args.hi}: {total} obtuse shapes, {len(judged)} within {NEAR:g} of zero,"
          f" {sum(abs(cell[3]) <= CLASSIFY_TOL for cell in judged)} within the {CLASSIFY_TOL:g} band")
    print("n,i,j,exact_margin,band_widths,sweep_kind,max_sweep_error")
    for n, i, j, exact, kinds, worst in judged:
        print(f"{n},{i},{j},{exact:.6e},{abs(exact) / Decimal(CLASSIFY_TOL):.1f},{'|'.join(kinds)},{worst:.1e}")
    for fault in faults:
        print("FAULT:", fault)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
