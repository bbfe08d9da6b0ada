"""The sweep's kinds are exact: a certificate.

The integer rule makes a sweep cell's acute, right or obtuse kind exact.
An obtuse cell's interior or exterior kind is the sign of a float margin,
the interior criterion's slack at the tangents of its two acute angles
pi i / n and pi j / n, which are irrational.  Here every obtuse shape of
every resolution up to 400 is scanned in numpy.  Each shape must lie more
than NEAR = 1e-6 from zero, a thousand band widths and far beyond the
float error, which `test_the_scan_float_error_is_far_below_near` bounds,
or be on the PINNED list.  A pinned shape is judged in `decimal` at 50
digits by `oracles.sweep_margin`: its exact margin must have its sweep
rows' sign and lie CLEARANCE band widths out.  `tools/sweep_certify.py`
does the same for every resolution up to 1,000.
"""

import importlib.util
import math
import random
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

import oracles
from tripart.geometry import CLASSIFY_TOL, OBTUSE_EXTERIOR, OBTUSE_INTERIOR
from tripart.problem import ProblemSpec, run, sweep_csv

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "sweep_certify.py"
_spec = importlib.util.spec_from_file_location("sweep_certify", _TOOL)
sweep_certify = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep_certify)

SCAN_MAX = 400
NEAR = 1e-6
# every obtuse shape of a resolution n <= SCAN_MAX whose float margin lies
# within NEAR of zero, as (n, i, j) for its acute angles 180 i / n and
# 180 j / n degrees, with the kind its exact margin gives
PINNED = {(245, 39, 58): OBTUSE_EXTERIOR}
CLEARANCE = 100  # the least distance of a pinned shape's exact margin from zero, in band widths


def _shapes(n: int):
    """The obtuse shapes of resolution n, one per pair of acute angle
    indices i <= j with i + j < n / 2, as arrays i, j and their float margins."""
    h = (n - 1) // 2
    i, j = np.triu_indices(h + 1)
    keep = (i >= 1) & (i + j <= h)
    i, j = i[keep], j[keep]
    t = np.tan(np.pi * np.arange(h + 1) / n)
    ta, tb = t[i], t[j]
    return i, j, np.sqrt((1.0 + ta * ta) * tb) + np.sqrt((1.0 + tb * tb) * ta) - np.sqrt(3.0 * (ta + tb))


def _shape_rows(n: int) -> dict:
    """The obtuse rows of the CSV the sweep of resolution n writes, as
    (kind, margin) pairs, by shape (i, j), the sorted indices of the two
    acute angles."""
    out = {}
    for line in sweep_csv(run(ProblemSpec(mode="sweep", resolution=n))).splitlines()[1:]:
        a, b, kind, margin = line.split(",")
        if kind in (OBTUSE_INTERIOR, OBTUSE_EXTERIOR):
            a, b = round(float(a) * n / 180.0), round(float(b) * n / 180.0)
            out.setdefault(tuple(sorted((a, b, n - a - b))[:2]), []).append((kind, float(margin)))
    return out


def test_every_obtuse_shape_up_to_400_is_far_from_the_band_or_pinned():
    near, total = set(), 0
    for n in range(3, SCAN_MAX + 1):
        i, j, margin = _shapes(n)
        total += len(margin)
        close = np.abs(margin) <= NEAR
        near |= {(n, int(a), int(b)) for a, b in zip(i[close], j[close])}
    assert total == 1_323_300
    assert near == set(PINNED)


@pytest.mark.parametrize("n", [7, 40, 41, 245])
def test_the_scan_holds_the_sweeps_obtuse_rows(n):
    # each shape is one sweep row per order of its three angles, six of
    # them, or three for an isosceles one, and its rows' sign is the scan's
    rows = _shape_rows(n)
    i, j, margin = _shapes(n)
    assert sorted(rows) == sorted(zip(i.tolist(), j.tolist()))
    for a, b, m in zip(i.tolist(), j.tolist(), margin.tolist()):
        assert len(rows[a, b]) == (3 if a == b else 6)
        assert {kind for kind, _ in rows[a, b]} == {OBTUSE_INTERIOR if m > 0.0 else OBTUSE_EXTERIOR}


def test_the_scan_float_error_is_far_below_near():
    assert float(oracles.decimal_pi()) == math.pi
    for x in (0.1, 0.7, 1.5):
        assert math.isclose(float(oracles.decimal_tan(Decimal(x))), math.tan(x), rel_tol=4e-16)
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(5, 1000)
        h = (n - 1) // 2
        a = rng.randint(1, h // 2)
        b = rng.randint(a, h - a)
        i, j, margin = _shapes(n)
        m = margin[(i == a) & (j == b)][0]
        exact = oracles.sweep_margin(n, a, b)
        assert abs(Decimal(float(m)) - exact) <= Decimal(1e-12) * max(1, abs(exact)), (n, a, b)


@pytest.mark.parametrize("cell", sorted(PINNED))
def test_a_pinned_shape_is_judged_exactly(cell):
    n, i, j = cell
    exact = oracles.sweep_margin(n, i, j)
    assert (OBTUSE_INTERIOR if exact > 0 else OBTUSE_EXTERIOR) == PINNED[cell]
    assert abs(exact) >= CLEARANCE * Decimal(CLASSIFY_TOL)
    rows = _shape_rows(n)[i, j]
    assert len(rows) == 6
    for kind, margin in rows:  # far inside the rows' float margins: their rounding cannot flip the sign
        assert kind == PINNED[cell]
        assert abs(Decimal(margin) - exact) <= Decimal(1e-14)


def test_the_certify_tool_agrees_with_the_oracle():
    total, judged, faults = sweep_certify.certify(240, 250)
    assert total == sum(len(_shapes(n)[2]) for n in range(240, 251))
    assert faults == []
    assert [cell[:3] for cell in judged] == [(245, 39, 58)]
    assert abs(judged[0][3] - oracles.sweep_margin(245, 39, 58)) <= Decimal(10) ** -45
    assert judged[0][4] == [OBTUSE_EXTERIOR]
    for cell in ((961, 71, 351), (992, 184, 205)):  # the nearest interior and exterior shapes up to 1,000
        assert abs(sweep_certify.exact_margin(*cell) - oracles.sweep_margin(*cell)) <= Decimal(10) ** -45
