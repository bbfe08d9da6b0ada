"""Acceptance gate: one test per criterion, each ending in a single
PASS/FAIL line (run with `pytest -s` to see them on success)."""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import ndimage

import oracles as oc
from tripart.geometry import ConvexPolygon, Point, Triangle, min_area_f, region_areas
from tripart.masspart import SectorConfig, solve_translation
from tripart.partition import (
    INTERIOR_KINDS,
    OBTUSE_BOUNDARY,
    OBTUSE_EXTERIOR,
    SolverError,
    boundary_point_closed_form,
    equal_partition,
    solve_kkm,
    solve_maximin,
    solve_newton,
    verify_partition,
)
from tripart.problem import parse_spec, serialize_spec, triangle_from_angles

ARCTAN_INV_SQRT2_DEG = math.degrees(math.atan(1.0 / math.sqrt(2.0)))


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def suite():
    """500 triangles covering every kind, solved once; shared by 1, 3, 7."""
    rng = np.random.default_rng(20240601)
    tris = [Triangle.from_coords(p) for p in oc.kind_suite(rng, n=500)]
    start = time.perf_counter()
    sols = [equal_partition(t) for t in tris]
    elapsed = time.perf_counter() - start
    return tris, sols, elapsed


def test_criterion_01_equal_area_residual(suite):
    tris, sols, elapsed = suite
    worst = max(s.residual / t.area for t, s in zip(tris, sols))
    kinds = sorted({s.classification.kind for s in sols})
    ok = worst <= 1e-10 and elapsed < 10.0 and len(kinds) == 5
    _report(
        1,
        "equal-area residual",
        ok,
        f"500 triangles, worst residual {worst:.2e}*|T|, solve time {elapsed:.2f}s, kinds {kinds}",
    )


def test_criterion_02_cross_solver_agreement():
    rng = np.random.default_rng(20240603)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        tri = Triangle.from_coords(oc.rand_acute(rng))
        pts = (solve_newton(tri).point, solve_kkm(tri).point, solve_maximin(tri).point)
        for i in range(3):
            for j in range(i + 1, 3):
                worst = max(worst, math.dist(pts[i].as_tuple(), pts[j].as_tuple()) / tri.diameter)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 60.0
    _report(
        2,
        "cross-solver agreement",
        ok,
        f"200 acute triangles, worst pairwise distance {worst:.2e}*diam, {elapsed:.2f}s",
    )


def test_criterion_03_classification_matches_location(suite):
    tris, sols, _ = suite
    expect = {kind: "interior" for kind in INTERIOR_KINDS}
    expect[OBTUSE_BOUNDARY] = "boundary"
    expect[OBTUSE_EXTERIOR] = "exterior"
    mismatches = sum(
        expect[s.classification.kind] != verify_partition(t, s.point, tol=1e-7).location
        for t, s in zip(tris, sols)
    )
    _report(
        3,
        "criterion vs location",
        mismatches == 0,
        f"500 triangles, {mismatches} kind/location mismatches at band 1e-7*diam",
    )


def test_criterion_04_boundary_closed_form():
    rng = np.random.default_rng(20240605)
    worst_dist = 0.0
    worst_area = 0.0
    for _ in range(50):
        tri = Triangle.from_coords(oc.boundary_triangle(rng))
        closed = boundary_point_closed_form(tri)
        newton = solve_newton(tri).point
        worst_dist = max(worst_dist, math.dist(closed.as_tuple(), newton.as_tuple()) / tri.diameter)
        third = tri.area / 3.0
        for p in (closed, newton):
            areas = region_areas(tri, p)
            worst_area = max(worst_area, max(abs(a - third) for a in areas) / tri.area)
    ok = worst_dist <= 1e-8 and worst_area <= 1e-9
    _report(
        4,
        "closed-form boundary case",
        ok,
        f"50 transforms, closed-form vs newton {worst_dist:.2e}*diam, "
        f"area deviation {worst_area:.2e}*|T|",
    )


def test_criterion_05_boundary_min_area_bound():
    rng = np.random.default_rng(20240607)
    worst = -math.inf
    for k in range(200):
        pts = oc.rand_acute(rng) if k % 2 else oc.rand_right(rng)
        tri = Triangle.from_coords(pts)
        sup = 0.0
        for side in ("ab", "bc", "ca"):
            p, q = tri.side(side)
            for t in rng.uniform(0.0, 1.0, 334):
                x = Point(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))
                sup = max(sup, min_area_f(tri, x))
        worst = max(worst, (sup - tri.area / 4.0) / tri.area)
    ok = worst <= 1e-10
    _report(
        5,
        "boundary min-area bound",
        ok,
        f"200 acute/right triangles x 1002 boundary samples, "
        f"max boundary f = |T|/4 + {worst:.2e}*|T|",
    )


def test_criterion_06_two_steep_angles_interior():
    rng = np.random.default_rng(20240611)
    lo = ARCTAN_INV_SQRT2_DEG + 1e-6
    worst = math.inf
    for k in range(500):
        a = 90.0 if k % 25 == 0 else float(rng.uniform(lo, 90.0))
        b = float(rng.uniform(lo, 90.0))
        tri = triangle_from_angles(a, b)
        sol = equal_partition(tri)
        worst = min(worst, tri.signed_distance(sol.point) / tri.diameter)
    _report(
        6,
        "steep angle pair gives interior point",
        worst > 0.0,
        f"500 triangles with two angles in (atan(1/sqrt 2), pi/2], "
        f"min signed distance {worst:.2e}*diam",
    )


def test_criterion_07_interior_regions_are_quadrilaterals(suite):
    tris, sols, _ = suite
    interior = [s for s in sols if s.classification.kind in INTERIOR_KINDS]
    bad = sum(
        1
        for s in interior
        for poly in s.regions
        if len(poly) != 4
    )
    _report(
        7,
        "interior partition into quadrangles",
        bad == 0 and interior,
        f"{len(interior)} interior solutions, {bad} regions without exactly 4 vertices",
    )


def test_criterion_08_lemma_margin():
    rng = np.random.default_rng(20240613)
    worst = math.inf
    opposite = {"ab": 2, "bc": 0, "ca": 1}
    for _ in range(200):
        tri = Triangle.from_coords(oc.rand_acute(rng))
        for side, ts in zip(("ab", "bc", "ca"), (67, 67, 66)):
            p, q = tri.side(side)
            opp = opposite[side]
            for t in rng.uniform(0.0, 1.0, ts):
                x = Point(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))
                areas = region_areas(tri, x)
                others = min(areas[i] for i in range(3) if i != opp)
                worst = min(worst, (areas[opp] - others) / tri.area)
    ok = worst > 1e-12
    _report(
        8,
        "opposite-region inequality",
        ok,
        f"200 acute triangles x 200 boundary points, min margin {worst:.2e}*|T|",
    )


def test_criterion_09_translation_engine():
    rng = np.random.default_rng(20240617)
    failures = 0
    for _ in range(500):
        poly = ConvexPolygon.from_coords(oc.rand_convex_polygon(rng))
        cfg = SectorConfig.from_angles_deg(oc.rand_fan_angles_deg(rng))
        targets = tuple(f * poly.area for f in oc.rand_fractions(rng))
        try:
            sol = solve_translation(poly, cfg, targets)
            if sol.residual > 1e-10 * poly.area:
                failures += 1
        except SolverError:
            failures += 1

    worst_mc = 0.0
    for i in range(20):
        pts = np.asarray(oc.rand_convex_polygon(rng))
        pts = pts / np.hypot(*np.ptp(pts, axis=0))  # unit bounding box diagonal
        poly = ConvexPolygon.from_coords([tuple(p) for p in pts])
        angles = oc.rand_fan_angles_deg(rng)
        cfg = SectorConfig.from_angles_deg(angles)
        targets = tuple(f * poly.area for f in oc.rand_fractions(rng))
        sol = solve_translation(poly, cfg, targets)
        rad = np.radians(angles)
        dirs = np.stack([np.cos(rad), np.sin(rad)], axis=1)
        mc = oc.mc_sector_areas(pts, dirs, np.array([sol.apex.x, sol.apex.y]), n=10**7, seed=900 + i)
        worst_mc = max(worst_mc, float(np.max(np.abs(mc - np.asarray(sol.achieved)))))
    ok = failures <= 5 and worst_mc <= 1e-3
    _report(
        9,
        "fan translation engine",
        ok,
        f"500 instances, {failures} failures (allowed 5); "
        f"20 Monte Carlo spot checks at 1e7 samples, worst |dev| {worst_mc:.2e}",
    )


BASIN_TRIANGLES = (
    ((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)),
    ((0.0, 0.0), (1.0, 0.0), (0.3, 0.8)),
    ((0.0, 0.0), (1.2, 0.1), (0.5, 0.9)),
    ((-1.0, 2.0), (1.0, 2.3), (0.1, 3.4)),
    ((0.0, 0.0), (1.0, 0.0), (0.55, 0.6)),
    ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)),
    ((0.0, 0.0), (2.0, 0.0), (0.0, 1.0)),
    ((0.0, 0.0), (1.0, 0.0), (1.0, 0.8)),
    triangle_from_angles(40.0, 40.0).points,
    triangle_from_angles(50.0, 36.0).points,
    triangle_from_angles(42.0, 38.0).points,
    triangle_from_angles(37.0, 47.0).points,
    ((0.0, 0.0), (1.0, 0.0), (0.5, 0.35355339059327373)),   # boundary isoceles
    ((0.0, 0.0), (2.0, 0.0), (1.0, 0.7071067811865475)),
    ((0.0, 0.0), (0.0, 1.0), (-0.35355339059327373, 0.5)),
    ((0.0, 0.0), (1.0, 0.0), (0.5, 0.05)),
    ((0.0, 0.0), (1.0, 0.0), (0.5, 0.2)),
    ((0.0, 0.0), (1.0, 0.0), (0.5, 0.3)),
    ((0.0, 0.0), (1.0, 0.0), (0.3, 0.12)),
    ((0.0, 0.0), (2.0, 0.0), (0.8, 0.35)),
)


def test_criterion_10_single_residual_basin():
    eight = np.ones((3, 3), dtype=int)
    kinds = set()
    bad = []
    for pts in BASIN_TRIANGLES:
        tri = Triangle.from_coords(pts)
        sol = equal_partition(tri)
        kinds.add(sol.classification.kind)
        xs, ys, R = oc.residual_grid(np.asarray(pts), n=400)
        labels, ncomp = ndimage.label(R < tri.area / 100.0, structure=eight)
        ix = int(np.argmin(np.abs(xs - sol.point.x)))
        iy = int(np.argmin(np.abs(ys - sol.point.y)))
        if ncomp != 1 or labels[ix, iy] != 1:
            bad.append((pts, ncomp, int(labels[ix, iy])))
    ok = not bad and len(kinds) == 5
    _report(
        10,
        "single low-residual basin",
        ok,
        f"20 triangles over all 5 kinds, 400x400 expanded grids, "
        f"{len(bad)} landscapes not a single basin at |T|/100",
    )


def test_criterion_11_determinism_and_round_trip(tmp_path):
    tri_spec = '{"mode": "triangle", "triangle": [[0, 0], [1, 0], [0.5, 0.05]]}'
    mass_spec = (
        '{"mode": "mass-partition", "polygon": [[0, 0], [2, 0], [2.5, 1], [1, 1.8], [0, 1]],'
        ' "fractions": [0.2, 0.45, 0.35]}'
    )
    for text in (tri_spec, mass_spec, '{"mode": "sweep", "resolution": 17}'):
        spec = parse_spec(text)
        assert parse_spec(serialize_spec(spec)) == spec

    def run_cli(*args):
        res = subprocess.run(
            [sys.executable, "-m", "tripart", *args],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert res.returncode == 0, res.stderr
        return res.stdout

    (tmp_path / "tri.json").write_text(tri_spec)
    (tmp_path / "mass.json").write_text(mass_spec)
    outputs = []
    for tag in ("one", "two"):
        svg = tmp_path / f"{tag}.svg"
        csv = tmp_path / f"{tag}.csv"
        stdout_tri = run_cli("solve", "--input", str(tmp_path / "tri.json"), "--svg", str(svg))
        stdout_mass = run_cli("solve", "--input", str(tmp_path / "mass.json"))
        run_cli("sweep", "--resolution", "40", "--output", str(csv))
        outputs.append((stdout_tri, stdout_mass, svg.read_text(), csv.read_text()))
    ok = outputs[0] == outputs[1] and json.loads(outputs[0][0])["mode"] == "triangle"
    _report(
        11,
        "determinism and round-trip",
        ok,
        "spec round-trips; solve JSON, SVG and sweep CSV byte-identical across runs",
    )
