"""Fan machinery: sector geometry, the triangle special case, and the
translation solver on convex polygons."""

import math

import numpy as np
import pytest

import oracles as oc
import tripart.partition
from test_problem import _writer_specs
from tripart.geometry import ConvexPolygon, Point, Triangle, _edge_terms, _sector_jacobian
from tripart.masspart import (
    MassPartitionError,
    SectorConfig,
    sector_areas,
    solve_translation,
)
from tripart.partition import SolverError
from tripart.problem import parse_spec

SQUARE = ConvexPolygon.from_coords(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
RIGHT_ISO = Triangle.from_coords(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))


def test_config_normalizes_and_orders():
    cfg = SectorConfig(((2.0, 0.0), (0.0, 3.0), (-1.0, -1.0)))
    for dx, dy in cfg.directions:
        assert math.hypot(dx, dy) == pytest.approx(1.0, abs=1e-15)
    assert sum(cfg.gaps()) == pytest.approx(2.0 * math.pi, abs=1e-12)


def test_config_rejects_bad_fans():
    with pytest.raises(MassPartitionError, match="coincide"):
        SectorConfig.from_angles_deg((0.0, 0.0, 120.0))
    with pytest.raises(MassPartitionError, match="counter-clockwise"):
        SectorConfig.from_angles_deg((0.0, 240.0, 120.0))
    with pytest.raises(MassPartitionError, match="below pi"):
        # one gap of exactly pi makes a degenerate half-plane sector
        SectorConfig.from_angles_deg((0.0, 180.0, 270.0))
    with pytest.raises(MassPartitionError, match="not usable"):
        SectorConfig(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))


@pytest.mark.parametrize(
    "directions",
    [((1, 0), (0, 1), "ab"), ((1, 0), (0, 1), (-1, "x")), ((True, 0), (-1, 1), (-1, -1)), ((1, 0), (0, 1), None),
     ((1, 0), (0, 1), (-1, -1, 0)), ((1, 0), (0, 1), 5), 5, None],
)
def test_config_rejects_directions_that_are_no_pairs_of_numbers(directions):
    with pytest.raises(MassPartitionError, match="^directions must be"):
        SectorConfig(directions)


@pytest.mark.parametrize("angles", [("a", 1, 2), (True, 120, 240), (90, 210, None), (90, 210), 90, None])
def test_config_rejects_angles_that_are_no_three_numbers(angles):
    with pytest.raises(MassPartitionError, match="^angles must be three real numbers"):
        SectorConfig.from_angles_deg(angles)


def test_config_takes_numpy_numbers():
    fan = SectorConfig(np.array([[2.0, 0.0], [0.0, 3.0], [-1.0, -1.0]]))
    assert fan == SectorConfig(((2.0, 0.0), (0.0, 3.0), (-1.0, -1.0)))
    assert SectorConfig.from_angles_deg(np.array([90, 210, 330])) == SectorConfig.from_angles_deg((90, 210, 330))


@pytest.mark.parametrize("count", [2, 4])
def test_config_needs_three_directions(count):
    dirs = ((1.0, 0.0), (-1.0, 1.0), (-1.0, -1.0), (0.0, -1.0))  # the first three make a fan
    with pytest.raises(MassPartitionError, match=f"three ray directions, got {count}"):
        SectorConfig(dirs[:count])


def test_sector_areas_cover_polygon():
    rng = np.random.default_rng(73)
    for _ in range(60):
        pts = oc.rand_convex_polygon(rng)
        poly = ConvexPolygon.from_coords(pts)
        cfg = SectorConfig.from_angles_deg(oc.rand_fan_angles_deg(rng))
        apex = Point(*rng.uniform(-2.0, 2.0, 2))
        got = sector_areas(poly, cfg, apex)
        assert all(a >= 0.0 for a in got)
        assert sum(got) == pytest.approx(poly.area, rel=1e-12)


def test_sector_areas_square_frozen():
    # vertical ray, left ray, and a 315 degree ray from the center
    cfg = SectorConfig.from_angles_deg((90.0, 180.0, 315.0))
    got = sector_areas(SQUARE, cfg, Point(0.5, 0.5))
    assert got[0] == pytest.approx(0.25, abs=1e-15)
    assert got[1] == pytest.approx(0.375, abs=1e-15)
    assert got[2] == pytest.approx(0.375, abs=1e-15)


def test_sector_areas_match_oracle():
    rng = np.random.default_rng(79)
    worst = 0.0
    for _ in range(40):
        pts = oc.rand_convex_polygon(rng)
        poly = ConvexPolygon.from_coords(pts)
        angles = oc.rand_fan_angles_deg(rng)
        cfg = SectorConfig.from_angles_deg(angles)
        apex = Point(*rng.uniform(-1.5, 1.5, 2))
        got = sector_areas(poly, cfg, apex)
        rad = np.radians(angles)
        dirs = np.stack([np.cos(rad), np.sin(rad)], axis=1)
        want = oc.sector_areas_np(np.asarray(pts), dirs, np.array([[apex.x, apex.y]]))[0]
        worst = max(worst, float(np.max(np.abs(np.asarray(got) - want))) / poly.area)
    assert worst <= 1e-12


def test_triangle_fan_reproduces_wedge_regions():
    # outward-normal fan at any apex gives exactly the perpendicular regions
    from tripart.geometry import region_areas

    rng = np.random.default_rng(83)
    for _ in range(50):
        tri = Triangle.from_coords(oc.rand_triangle(rng))
        cfg = SectorConfig.from_triangle(tri)
        x = Point(*rng.uniform(-1.0, 1.0, 2))
        s = sector_areas(ConvexPolygon(tri.points), cfg, x)
        r = region_areas(tri, x)
        assert s[0] == r.at_b and s[1] == r.at_c and s[2] == r.at_a


def test_solve_translation_square_thirds():
    cfg = SectorConfig.from_angles_deg((90.0, 210.0, 330.0))
    targets = tuple(f * SQUARE.area for f in (1 / 3, 1 / 3, 1 / 3))
    sol = solve_translation(SQUARE, cfg, targets)
    assert sol.residual <= 1e-12 * SQUARE.area
    for a in sol.achieved:
        assert a == pytest.approx(SQUARE.area / 3.0, abs=1e-12)
    assert sol.translation == (-sol.apex.x, -sol.apex.y)
    assert sol.method == "newton"
    assert sol.iterations >= 1


def test_translation_moves_polygon_onto_origin_fan():
    cfg = SectorConfig.from_angles_deg((80.0, 200.0, 324.0))
    targets = (0.2, 0.5, 0.3)
    sol = solve_translation(SQUARE, cfg, targets)
    moved = ConvexPolygon([(x + sol.translation[0], y + sol.translation[1]) for x, y in SQUARE.coords])
    again = sector_areas(moved, cfg, Point(0.0, 0.0))
    for u, v in zip(again, sol.achieved):
        assert u == pytest.approx(v, abs=1e-12 * SQUARE.area)


def test_solve_translation_random_cases():
    rng = np.random.default_rng(89)
    for _ in range(20):
        poly = ConvexPolygon.from_coords(oc.rand_convex_polygon(rng))
        cfg = SectorConfig.from_angles_deg(oc.rand_fan_angles_deg(rng))
        fracs = oc.rand_fractions(rng)
        targets = tuple(f * poly.area for f in fracs)
        sol = solve_translation(poly, cfg, targets)
        assert sol.residual <= 1e-12 * poly.area
        for a, t in zip(sol.achieved, targets):
            assert abs(a - t) <= 1e-12 * poly.area


def test_solve_translation_accepts_triangle():
    cfg = SectorConfig.from_triangle(RIGHT_ISO)
    targets = tuple(f * RIGHT_ISO.area for f in (1 / 3, 1 / 3, 1 / 3))
    sol = solve_translation(ConvexPolygon(RIGHT_ISO.points), cfg, targets)
    r = 1.0 / math.sqrt(6.0)
    assert sol.apex.x == pytest.approx(r, abs=5e-12)
    assert sol.apex.y == pytest.approx(r, abs=5e-12)


def test_solve_translation_rejects_bad_targets():
    cfg = SectorConfig.from_angles_deg((90.0, 210.0, 330.0))
    with pytest.raises(MassPartitionError, match="positive"):
        solve_translation(SQUARE, cfg, (0.5, 0.5, 0.0))
    with pytest.raises(MassPartitionError, match="polygon area"):
        solve_translation(SQUARE, cfg, (0.5, 0.5, 0.5))


@pytest.mark.parametrize(
    "targets",
    [("a", "b", "c"), (None, 0.5, 0.5), (1 / 3 for _ in range(3)), (10**400, 0.5, 0.5), (1j, 0.5, 0.5), 1.0],
    ids=["strings", "none", "generator", "huge-int", "complex", "scalar"],
)
def test_solve_translation_rejects_targets_that_are_no_areas(targets):
    cfg = SectorConfig.from_angles_deg((90.0, 210.0, 330.0))
    with pytest.raises(MassPartitionError, match="targets must be three positive areas"):
        solve_translation(SQUARE, cfg, targets)


def test_exact_jacobian_matches_central_differences():
    # apex inside the polygon on even cases and pushed out across an edge on
    # odd ones; the tolerance is far above the rounding of a difference
    # quotient at h = 1e-6 and far below any wrong gradient
    rng = np.random.default_rng(97)
    h = 1e-6
    worst = 0.0
    crossing_outside = 0
    for k in range(300):
        poly = ConvexPolygon.from_coords(oc.rand_convex_polygon(rng))
        pts = np.asarray(poly.coords)
        diam = float(np.hypot(*np.ptp(pts, axis=0)))
        cfg = SectorConfig.from_angles_deg(oc.rand_fan_angles_deg(rng))
        if k % 2 == 0:
            apex = rng.dirichlet((1.0, 1.0, 1.0)) @ pts[rng.choice(len(pts), 3, replace=False)]
        else:
            i = int(rng.integers(len(pts)))
            edge = pts[(i + 1) % len(pts)] - pts[i]
            out = np.array([edge[1], -edge[0]]) / np.hypot(*edge)
            apex = pts[i] + rng.uniform() * edge + 10.0 ** rng.uniform(-4.0, -1.0) * diam * out
        x, y = apex
        jac = _sector_jacobian(_edge_terms(poly.coords, cfg.normals), cfg.normals, x, y)
        det = jac[0] * jac[3] - jac[1] * jac[2]
        if k % 2 == 0:
            assert det > 0.0
        else:
            assert det >= 0.0
            crossing_outside += det > 0.0

        def areas(px, py):
            return np.asarray(sector_areas(poly, cfg, Point(px, py)))

        gx = (areas(x + h, y) - areas(x - h, y)) / (2.0 * h)
        gy = (areas(x, y + h) - areas(x, y - h)) / (2.0 * h)
        diff = np.abs(np.asarray(jac) - np.array([gx[0], gy[0], gx[1], gy[1]]))
        worst = max(worst, float(diff.max()) / diam)
    assert crossing_outside >= 20
    assert worst <= 1e-8


def test_hard_instance_fan_set_converges():
    # thin polygons (aspect 1e-4..1e-1) and tiny fractions (1e-5..1e-3) at
    # unit scale; a finite-difference Jacobian stalls on a few percent of
    # these where only one ray crosses the polygon
    rng = np.random.default_rng(101)
    for k in range(400):
        pts = oc.rand_convex_polygon(rng)
        if k % 2 == 0:
            pts = oc.squash(rng, pts, 10.0 ** rng.uniform(-4.0, -1.0))
            fracs = oc.rand_fractions(rng)
        else:
            fracs = oc.tiny_fractions(rng, 10.0 ** rng.uniform(-5.0, -3.0))
        poly = ConvexPolygon.from_coords(oc.unit_scale(pts))
        cfg = SectorConfig.from_angles_deg(oc.rand_fan_angles_deg(rng))
        sol = solve_translation(poly, cfg, tuple(f * poly.area for f in fracs))
        assert sol.residual <= 1e-10 * poly.area


def ref_sector_jacobian(pts, normals, x, y):
    """The exact Jacobian with every edge term computed at each apex: the
    per-call formula that the cached edge terms must reproduce bit for bit."""
    lo = [0.0, 0.0, 0.0]
    hi = [math.inf, math.inf, math.inf]
    sx, sy = pts[-1]
    for ex, ey in pts:
        wx, wy = ex - sx, ey - sy
        c = wx * (y - sy) - wy * (x - sx)
        for j, (nx, ny) in enumerate(normals):
            k = wx * nx + wy * ny
            if k > 0.0:
                hi[j] = min(hi[j], c / k)
            elif k < 0.0:
                lo[j] = max(lo[j], c / k)
            elif c < 0.0:
                hi[j] = -math.inf
        sx, sy = ex, ey
    l0, l1, l2 = (max(0.0, h - l) for l, h in zip(lo, hi))
    (n0x, n0y), (n1x, n1y), (n2x, n2y) = normals
    return (l1 * n1x - l0 * n0x, l1 * n1y - l0 * n0y, l2 * n2x - l1 * n1x, l2 * n2y - l1 * n1y)


def bits(values):
    return [float(v).hex() for v in values]


def test_jacobian_from_cached_edge_terms_is_the_per_call_formula():
    # apexes inside, just outside an edge, far away and on a vertex; the
    # axis-aligned fan over the square (rays 0 and 1) and the right
    # triangle's own fan (rays 0 and 2) have edges parallel to a ray
    rng = np.random.default_rng(1301)
    cases = [(SQUARE.coords, SectorConfig(((1.0, 0.0), (0.0, 1.0), (-1.0, -1.0))).normals),
             (RIGHT_ISO.points, RIGHT_ISO._normals)]
    for _ in range(300):
        poly = ConvexPolygon.from_coords(oc.rand_convex_polygon(rng))
        cases.append((poly.coords, SectorConfig.from_angles_deg(oc.rand_fan_angles_deg(rng)).normals))
    for pts, normals in cases:
        arr = np.asarray(pts)
        diam = float(np.hypot(*np.ptp(arr, axis=0)))
        i = int(rng.integers(len(pts)))
        edge = arr[(i + 1) % len(pts)] - arr[i]
        outward = np.array([edge[1], -edge[0]]) / np.hypot(*edge)
        edges = _edge_terms(pts, normals)
        for apex in (
            rng.dirichlet(np.ones(len(pts))) @ arr,
            arr[i] + rng.uniform() * edge + 1e-3 * diam * outward,
            arr.mean(axis=0) + rng.uniform(-3.0, 3.0, 2) * diam,
            arr[i],
        ):
            x, y = float(apex[0]), float(apex[1])
            assert bits(_sector_jacobian(edges, normals, x, y)) == bits(ref_sector_jacobian(pts, normals, x, y))


def _fan_solves():
    """(polygon, fan, targets) of the fans of the writer specs in
    test_problem and of the acceptance criterion 9 set, both of its parts."""
    for text in _writer_specs():
        spec = parse_spec(text)
        if spec.mode == "mass-partition":
            yield spec.shape, spec.fan, spec.target_areas
    rng = np.random.default_rng(20240617)
    for _ in range(500):
        poly = ConvexPolygon.from_coords(oc.rand_convex_polygon(rng))
        cfg = SectorConfig.from_angles_deg(oc.rand_fan_angles_deg(rng))
        yield poly, cfg, tuple(f * poly.area for f in oc.rand_fractions(rng))
    for _ in range(20):
        pts = np.asarray(oc.rand_convex_polygon(rng))
        pts = pts / np.hypot(*np.ptp(pts, axis=0))
        poly = ConvexPolygon.from_coords([tuple(p) for p in pts])
        cfg = SectorConfig.from_angles_deg(oc.rand_fan_angles_deg(rng))
        yield poly, cfg, tuple(f * poly.area for f in oc.rand_fractions(rng))


def _solve(poly, cfg, targets):
    try:
        return solve_translation(poly, cfg, targets)
    except SolverError as exc:
        return repr(exc.report)


def test_solve_reuses_newtons_areas_and_keeps_its_path(monkeypatch):
    """`achieved` is what `sector_areas` gives at the apex, bit for bit,
    and a solve with the per-call Jacobian formula takes the same path:
    the same apex, iterations and achieved areas, or the same failure."""
    cases = list(_fan_solves())
    assert len(cases) == 527
    solved = [_solve(*case) for case in cases]
    monkeypatch.setattr(tripart.partition, "_edge_terms", lambda pts, normals: pts)
    monkeypatch.setattr(tripart.partition, "_sector_jacobian", ref_sector_jacobian)
    converged = 0
    for (poly, cfg, targets), sol in zip(cases, solved):
        ref = _solve(poly, cfg, targets)
        if isinstance(sol, str):
            assert ref == sol
            continue
        converged += 1
        assert bits(sol.achieved) == bits(sector_areas(poly, cfg, sol.apex))
        assert bits(sol.apex.as_tuple()) == bits(ref.apex.as_tuple())
        assert sol.iterations == ref.iterations
        assert bits(sol.achieved) == bits(ref.achieved)
    assert converged >= 520
