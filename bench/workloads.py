"""Seeded job generators for the three benchmark workloads.

Each generator takes one `random.Random(seed)` and yields jobs forever, so
the same seed always gives the same job text.  A job is a `Job`: the JSON
spec text fed to the package, the share it was drawn from, and the exact
input the checker needs (kept here, not read back from the package).

Shares:
  core   -- inputs like those the acceptance suite samples (translations
            of a few units); a failure here is not one of the known
            defects below.
  offset -- scaled to unit diameter and translated by a log-uniform
            offset of 1e1..1e6, like map or CAD coordinates; exercises
            the absolute-coordinate defect.
  hard   -- (fans only) thin polygons (aspect 1e-4..1e-1) or a tiny
            target fraction (1e-5..1e-3); exercises the placement stalls.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

# Jobs come in blocks of BLOCK; each block holds the same number of jobs
# of each share, in seeded order, so the mix is exact in every run.
BLOCK = 40
OFFSET_SHARE = 0.2   # triangles and fans
HARD_SHARE = 0.2     # fans: half thin polygons, half tiny fractions
# Triangle kinds per block: manufactured right and boundary members, and
# uniform random triangles split by kind in the proportions uniform
# sampling gives (acute 0.278, obtuse-interior 0.187, obtuse-exterior
# 0.535 of 2e5 draws).  Fixing the split keeps the median job off the
# gap between the Newton and the exterior-construction latencies.
TRIANGLE_KINDS = (("right", 2), ("boundary", 2), ("acute", 10),
                  ("obtuse-interior", 7), ("obtuse-exterior", 19))
SWEEP_RESOLUTIONS = range(10, 41)


@dataclass(frozen=True)
class Job:
    text: str
    share: str
    data: dict


def _criterion_margin(ta: float, tb: float) -> float:
    return (math.sqrt((1.0 + ta * ta) * tb) + math.sqrt((1.0 + tb * tb) * ta)
            - math.sqrt(3.0 * (ta + tb)))


def _boundary_apex_angles(rng: random.Random) -> tuple[float, float]:
    """Two acute base angles (radians) whose criterion margin is zero to
    rounding: for any A the margin runs from negative (B -> 0) to positive
    (A + B -> pi/2), so bisection on B finds the boundary shape."""
    a = rng.uniform(math.radians(5.0), math.radians(60.0))
    lo, hi = 1e-9, 0.5 * math.pi - a - 1e-9
    ta = math.tan(a)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return a, mid
        if _criterion_margin(ta, math.tan(mid)) < 0.0:
            lo = mid
        else:
            hi = mid


def _similarity(rng: random.Random, pts, offset: float | None):
    """Rotate, maybe reflect, then either scale log-uniformly in 0.1..10 and
    translate by a few units (offset None), or scale to unit diameter and
    translate by 10**offset in a random direction, so that the offset is
    also the coordinate magnitude over the shape's size."""
    th = rng.uniform(0.0, 2.0 * math.pi)
    if offset is None:
        s = 10.0 ** rng.uniform(-1.0, 1.0)
    else:
        s = 1.0 / max(math.dist(p, q) for p in pts for q in pts)
    c, si = s * math.cos(th), s * math.sin(th)
    flip = -1.0 if rng.random() < 0.5 else 1.0
    if offset is not None:
        mag = 10.0 ** offset
        phi = rng.uniform(0.0, 2.0 * math.pi)
        tx, ty = mag * math.cos(phi), mag * math.sin(phi)
    else:
        tx, ty = rng.uniform(-3.0, 3.0) * s, rng.uniform(-3.0, 3.0) * s
    return [(c * x - si * flip * y + tx, si * x + c * flip * y + ty) for x, y in pts]


def _uniform_triangle(rng: random.Random, kind: str):
    """Uniform random triangle of the given kind: vertices uniform in the
    square, area at least 1e-3 * diameter**2, drawn until the kind fits."""
    while True:
        pts = [(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(3)]
        (ax, ay), (bx, by), (cx, cy) = pts
        area = 0.5 * abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
        sides = [math.dist(pts[i], pts[(i + 1) % 3]) for i in range(3)]
        if area < 1e-3 * max(sides) ** 2:
            continue
        # law of cosines: each angle from its opposite side
        a2, b2, c2 = (s * s for s in sorted(sides))
        if c2 < a2 + b2:
            got = "acute"
        else:
            ta = math.tan(math.acos((b2 + c2 - a2) / (2.0 * math.sqrt(b2 * c2))))
            tb = math.tan(math.acos((a2 + c2 - b2) / (2.0 * math.sqrt(a2 * c2))))
            got = "obtuse-interior" if _criterion_margin(ta, tb) > 0.0 else "obtuse-exterior"
        if got == kind:
            return pts


def _from_base_angles(a: float, b: float):
    ta, tb = math.tan(a), math.tan(b)
    return [(0.0, 0.0), (1.0, 0.0), (tb / (ta + tb), ta * tb / (ta + tb))]


def _strata(rng: random.Random, k: int):
    """k numbers in [0, 1), one in each of k equal strata, in random order:
    a block covers its range evenly, so shares do not drift between seeds."""
    out = [(j + rng.random()) / k for j in range(k)]
    rng.shuffle(out)
    return out


def _offset_exponents(rng: random.Random):
    """Per job of a block, None (core placement) or the log10 offset."""
    k = round(OFFSET_SHARE * BLOCK)
    out = [1.0 + 5.0 * u for u in _strata(rng, k)] + [None] * (BLOCK - k)
    rng.shuffle(out)
    return out


def triangles(seed: int):
    """Uniform random triangles of every kind plus manufactured right and
    boundary members, each placed by a random similarity."""
    rng = random.Random(seed)
    while True:
        kinds = [k for k, count in TRIANGLE_KINDS for _ in range(count)]
        rng.shuffle(kinds)
        for kind, offset in zip(kinds, _offset_exponents(rng)):
            if kind == "right":
                pts = [(0.0, 0.0), (rng.uniform(0.3, 1.5), 0.0), (0.0, rng.uniform(0.3, 1.5))]
            elif kind == "boundary":
                pts = _from_base_angles(*_boundary_apex_angles(rng))
            else:
                pts = _uniform_triangle(rng, kind)
            tri = _similarity(rng, pts, offset)
            spec = {"mode": "triangle", "triangle": [list(p) for p in tri]}
            yield Job(json.dumps(spec), "core" if offset is None else "offset", {"triangle": tri})


def _hull(points):
    """Convex hull, counter-clockwise, collinear points dropped."""
    pts = sorted(set(points))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                (ox, oy), (ax, ay) = out[-2], out[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) > 0.0:
                    break
                out.pop()
            out.append(p)
        return out

    lower, upper = half(pts), half(reversed(pts))
    return lower[:-1] + upper[:-1]


def _ring_polygon(rng: random.Random, aspect: float):
    """Hull of 8..40 ring points with jittered radii, squashed to `aspect`,
    keeping only hulls of 8..32 vertices."""
    while True:
        k = rng.randint(8, 40)
        ring = []
        for th in sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(k)):
            r = rng.uniform(0.85, 1.15)
            ring.append((r * math.cos(th), aspect * r * math.sin(th)))
        hull = _hull(ring)
        if 8 <= len(hull) <= 32:
            return hull


def _dirichlet3(rng: random.Random, floor: float):
    while True:
        e = [rng.expovariate(1.0) for _ in range(3)]
        s = sum(e)
        f = [x / s for x in e]
        if min(f) >= floor:
            return f


def _fan_angles_deg(rng: random.Random):
    while True:
        g = [2.0 * math.pi * x for x in _dirichlet3(rng, 0.0)]
        if min(g) > 0.1 and max(g) < math.pi - 0.1:
            break
    start = rng.uniform(0.0, 2.0 * math.pi)
    angles = (start, start + g[0], start + g[0] + g[1])
    return [math.degrees(a % (2.0 * math.pi)) for a in angles]


def fans(seed: int):
    """Convex polygons with 8..32 vertices, fans with gaps in
    (0.1, pi - 0.1) and fractions as in acceptance 9 (each >= 0.05), with a
    hard share of thin polygons or tiny fractions and an offset share."""
    rng = random.Random(seed)
    k = round(HARD_SHARE * BLOCK) // 2
    while True:
        thin = [-4.0 + 3.0 * u for u in _strata(rng, k)]
        tiny = [-5.0 + 2.0 * u for u in _strata(rng, k)]
        roles = [("thin", e) for e in thin] + [("tiny", e) for e in tiny]
        roles += [("core", None)] * (BLOCK - len(roles))
        rng.shuffle(roles)
        for (role, exponent), offset in zip(roles, _offset_exponents(rng)):
            aspect = 10.0 ** exponent if role == "thin" else 1.0
            poly = _similarity(rng, _ring_polygon(rng, aspect), offset)
            rays = _fan_angles_deg(rng)
            if role == "tiny":
                small = 10.0 ** exponent
                split = rng.uniform(0.2, 0.8)
                f = [small, (1.0 - small) * split]
                f.append(1.0 - f[0] - f[1])
                rng.shuffle(f)
            else:
                f = _dirichlet3(rng, 0.05)
                f[2] = 1.0 - f[0] - f[1]
            spec = {
                "mode": "mass-partition",
                "polygon": [list(p) for p in poly],
                "rays": rays,
                "fractions": f,
            }
            share = "offset" if offset is not None else "core" if role == "core" else "hard"
            yield Job(json.dumps(spec), share, {"polygon": poly, "rays": rays, "fractions": f})


def sweep(seed: int):
    """Sweep specs; each run of 31 jobs is a seeded order of the
    resolutions 10..40."""
    rng = random.Random(seed)
    while True:
        order = list(SWEEP_RESOLUTIONS)
        rng.shuffle(order)
        for n in order:
            yield Job(json.dumps({"mode": "sweep", "resolution": n}), "core", {"resolution": n})


GENERATORS = {"triangles": triangles, "fans": fans, "sweep": sweep}
