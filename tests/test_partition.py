"""Solver layer: classification, closed forms, the three iterative routes
and their cross-agreement, verification and the boundary-label inequality."""

import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

import oracles as oc
import tripart.geometry as geometry
import tripart.partition as part
from tripart.cli import main
from test_golden import BOUNDARY_SPEC, EXTERIOR_SPEC, FAN_SPEC
from tripart.geometry import ConvexPolygon, Point, Triangle, _clip, _signed_area, _sum_lr
from tripart.masspart import SectorConfig, solve_translation
from tripart.partition import (
    ACUTE,
    INTERIOR_KINDS,
    OBTUSE_BOUNDARY,
    OBTUSE_EXTERIOR,
    OBTUSE_INTERIOR,
    RIGHT,
    LabelSets,
    PartitionError,
    SolverConfig,
    SolverError,
    boundary_point_closed_form,
    classify,
    cut_line_offset,
    equal_partition,
    lemma_check,
    solve_exterior,
    solve_kkm,
    solve_maximin,
    solve_newton,
    verify_partition,
)
from tripart.problem import canonical_json, parse_spec, run, triangle_from_angles

RIGHT_ISO = Triangle.from_coords(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
EQUILATERAL = Triangle.from_coords(((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)))
THIN_OBTUSE = Triangle.from_coords(((0.0, 0.0), (1.0, 0.0), (0.5, 0.05)))
# isoceles whose apex half-angle has tangent 1/sqrt(2): the borderline shape
BOUNDARY_ISO = Triangle.from_coords(((0.0, 0.0), (1.0, 0.0), (0.5, 0.5 / math.sqrt(2.0))))


def test_classify_main_kinds():
    assert classify(EQUILATERAL).kind == ACUTE
    assert classify(RIGHT_ISO).kind == RIGHT
    assert classify(Triangle.from_coords(((0, 0), (4, 0), (0, 3)))).kind == RIGHT
    mild = triangle_from_angles(40.0, 40.0)  # widest angle 100 degrees
    cls = classify(mild)
    assert cls.kind == OBTUSE_INTERIOR and cls.obtuse_vertex == "c"
    assert cls.criterion_margin > 0.0
    flat = triangle_from_angles(20.0, 20.0)  # widest angle 140 degrees
    cls = classify(flat)
    assert cls.kind == OBTUSE_EXTERIOR and cls.criterion_margin < 0.0
    cls = classify(BOUNDARY_ISO)
    assert cls.kind == OBTUSE_BOUNDARY
    assert abs(cls.criterion_margin) <= 1e-12


def test_classify_reports_widest_vertex():
    tri = Triangle.from_coords(((0.0, 0.0), (0.5, 0.05), (1.0, 0.0)))  # obtuse at 2nd vertex
    cls = classify(tri)
    assert cls.kind == OBTUSE_EXTERIOR
    # input was clockwise, so the library's labels b and c are swapped
    widest = max("abc", key=lambda v: tri.angles["abc".index(v)])
    assert cls.obtuse_vertex == widest


def test_widest_takes_the_first_index_on_ties():
    third = math.pi / 3.0
    assert geometry._widest((third, third, third)) == 0
    assert geometry._widest(EQUILATERAL.angles) == max(range(3), key=EQUILATERAL.angles.__getitem__)
    x, y = 0.4, 0.5 * (math.pi - 0.4)  # y, the widest, at indices 1 and 2
    assert geometry._widest((x, y, y)) == 1
    assert geometry._classify_angles((x, y, y)) == (ACUTE, 1, None)
    for values in ((1.0, 2.0), (1.0, 2.0, 3.0)):
        for angles in itertools.product(values, repeat=3):
            assert geometry._widest(angles) == max(range(3), key=angles.__getitem__), angles


def test_boundary_closed_form_keeps_the_golden_point():
    golden = json.loads((Path(__file__).parent / "data" / "boundary_solve.json").read_text())
    tri = parse_spec(json.dumps(golden["input"])).shape
    assert canonical_json(boundary_point_closed_form(tri).as_tuple()) == canonical_json(golden["point"])


def test_classify_right_angle_band():
    # a hair over 90 degrees still counts as right under the default band
    t = triangle_from_angles(50.0, 90.0 + math.degrees(1e-12))
    assert classify(t).kind == RIGHT


def test_classify_margin_matches_tangent_formula():
    rng = np.random.default_rng(41)
    for _ in range(100):
        pts = oc.rand_triangle(rng)
        ang = oc.tri_angles(pts)
        if max(ang) <= 0.5 * math.pi + 1e-9:
            continue
        a, b = sorted(ang)[:2]
        ta, tb = math.tan(a), math.tan(b)
        expect = (
            math.sqrt((1 + ta * ta) * tb)
            + math.sqrt((1 + tb * tb) * ta)
            - math.sqrt(3 * (ta + tb))
        )
        got = classify(Triangle.from_coords(pts)).criterion_margin
        assert got == pytest.approx(expect, rel=1e-9, abs=1e-12)


def test_boundary_closed_form_isoceles():
    p = boundary_point_closed_form(BOUNDARY_ISO)
    assert p.x == pytest.approx(0.5, abs=1e-12)
    assert p.y == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(PartitionError):
        boundary_point_closed_form(RIGHT_ISO)


def test_boundary_formulas_are_complementary():
    # distance from each acute vertex, computed independently, spans the side
    rng = np.random.default_rng(43)
    for _ in range(50):
        tri = Triangle.from_coords(oc.boundary_triangle(rng))
        assert classify(tri).kind == OBTUSE_BOUNDARY
        p = boundary_point_closed_form(tri)
        ang = sorted(zip(tri.angles, "abc"))
        (_, va), (_, vb) = ang[0], ang[1]
        a, b = tri.vertex(va).as_tuple(), tri.vertex(vb).as_tuple()
        ta = math.tan(tri.angles["abc".index(va)])
        tb = math.tan(tri.angles["abc".index(vb)])
        side = math.dist(a, b)
        da = side * math.sqrt((1 + ta * ta) * tb / (3 * (ta + tb)))
        db = side * math.sqrt((1 + tb * tb) * ta / (3 * (ta + tb)))
        assert abs(da + db - side) <= 1e-10 * side
        pa, pb = math.dist(a, p.as_tuple()), math.dist(b, p.as_tuple())
        assert min(pa, pb) >= -1e-12
        assert pa + pb == pytest.approx(side, rel=1e-10)


def test_cut_line_offset_known_values():
    # piece below y = d of the right isoceles: 1/2 - (1 - d)^2 / 2
    d = cut_line_offset(RIGHT_ISO, "ac", 1.0 / 6.0)
    assert d == pytest.approx(1.0 - math.sqrt(2.0 / 3.0), abs=1e-14)
    # reversed direction measures from the other end
    d2 = cut_line_offset(RIGHT_ISO, "ca", 1.0 / 6.0)
    assert d2 == pytest.approx(1.0 / math.sqrt(3.0) - 1.0, abs=1e-14)


def test_cut_line_offset_hits_target_area():
    rng = np.random.default_rng(47)
    for _ in range(50):
        pts = oc.rand_triangle(rng)
        tri = Triangle.from_coords(pts)
        side = ["ab", "bc", "ca", "ba", "cb", "ac"][int(rng.integers(0, 6))]
        target = float(rng.uniform(0.05, 0.95)) * tri.area
        d = cut_line_offset(tri, side, target)
        p, q = tri.side(side)
        ux, uy = (q.x - p.x), (q.y - p.y)
        h = math.hypot(ux, uy)
        V, m = oc.pack(oc.ccw(pts), 1, 6)
        V, m = oc.clip(V, m, ux / h, uy / h, d)
        assert abs(oc.areas(V, m)[0] - target) <= 1e-10 * tri.area


def test_cut_line_offset_is_monotone():
    t1 = cut_line_offset(RIGHT_ISO, "ab", 0.1)
    t2 = cut_line_offset(RIGHT_ISO, "ab", 0.2)
    t3 = cut_line_offset(RIGHT_ISO, "ab", 0.4)
    assert t1 < t2 < t3
    with pytest.raises(PartitionError):
        cut_line_offset(RIGHT_ISO, "ab", 0.0)
    with pytest.raises(PartitionError):
        cut_line_offset(RIGHT_ISO, "ab", 0.6)


def _plain_cut(pts, u, eps, target):
    """The bisection that clips at every step, on a CCW point tuple: the
    reference the certified bisection must match bit for bit."""
    ux, uy = u
    projs = [ux * px + uy * py for px, py in pts]
    lo, hi = min(projs), max(projs)
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if _signed_area(_clip(list(pts), ux, uy, mid, eps)) < target:
            lo = mid
        else:
            hi = mid


def _cut_shapes():
    rng = np.random.default_rng(71)
    base = [oc.rand_triangle(rng) for _ in range(12)]
    base += [oc.rand_obtuse_of_kind(rng, "exterior", tol=1e-3) for _ in range(6)]
    # right triangles with a leg perpendicular to the cut: two projections tie
    base += [np.array([(0.0, 0.0), (a, 0.0), (0.0, b)]) for a, b in ((1.0, 1.0), (0.3, 1.7), (2.5, 0.2))]
    base += [oc.rand_right(rng) for _ in range(3)]
    shapes = []
    for pts in base:
        shapes.append(pts)
        shapes.extend(pts + offset for offset in (1e2, -1e4, 1e6))
        # at 1e8 from the origin a unit triangle's area is lost to rounding
        shapes.append(1e3 * pts + 1e8)
        shapes.extend(pts * scale for scale in (1e100, 1e-100))
    return [Triangle.from_coords(p) for p in shapes], rng


def test_cut_line_offset_matches_plain_bisection():
    tris, rng = _cut_shapes()
    for tri in tris:
        area = tri.area
        targets = [area / 3.0, area / 2.0, 1e-12 * area, 1e-9 * area, (1.0 - 1e-12) * area]
        targets += [float(f) * area for f in rng.uniform(0.0, 1.0, 3)]
        for side in ("ab", "ba", "bc", "cb", "ca", "ac"):
            u = tri.side_unit(side)
            # the piece cut at the middle vertex's projection: on most shapes
            # its answer is inside that vertex's snap band, where steps clip
            # (none where the vertex ties with an end)
            middle = sorted(u[0] * px + u[1] * py for px, py in tri.points)[1]
            at_middle = _signed_area(_clip(list(tri.points), *u, middle, tri._snap))
            for target in targets + [at_middle] * (0.0 < at_middle < area):
                want = _plain_cut(tri.points, u, tri._snap, target)
                assert cut_line_offset(tri, side, target) == want, (tri.points, side, target)


def test_exterior_construction_matches_plain_bisection():
    # the construction bisects on the vertices rotated so the obtuse one is
    # last; its point must be the one the plain bisection gives there
    tris, _ = _cut_shapes()
    checked = 0
    for tri in tris:
        cls = classify(tri)
        if cls.kind != OBTUSE_EXTERIOR:
            continue
        try:
            sol = solve_exterior(tri)
        except SolverError:  # the Newton fallback at an offset (a known defect)
            continue
        if sol.method != "exterior-construction":
            continue
        i = "abc".index(cls.obtuse_vertex)
        rel = Triangle(*(tri.vertex("abc"[(i + k) % 3]) for k in (1, 2, 0)))
        ua, ub = rel.side_unit("ac"), rel.side_unit("bc")
        da = _plain_cut(rel.points, ua, rel._snap, tri.area / 3.0)
        db = _plain_cut(rel.points, ub, rel._snap, tri.area / 3.0)
        det = ua[0] * ub[1] - ua[1] * ub[0]
        x = (da * ub[1] - ua[1] * db) / det
        y = (ua[0] * db - da * ub[0]) / det
        assert sol.point.as_tuple() == (x, y)
        checked += 1
    assert checked >= 12


def test_exterior_cuts_clip_at_most_15_times_on_average(monkeypatch):
    counts = {"clips": 0, "cuts": 0}
    real_clip, real_cut = part._clip, part._cut_offset

    def counting_clip(*args):
        counts["clips"] += 1
        return real_clip(*args)

    def counting_cut(*args):
        counts["cuts"] += 1
        return real_cut(*args)

    monkeypatch.setattr(part, "_clip", counting_clip)
    monkeypatch.setattr(part, "_cut_offset", counting_cut)
    # the 500-triangle suite of the acceptance tests
    rng = np.random.default_rng(20240601)
    for pts in oc.kind_suite(rng, n=500):
        tri = Triangle.from_coords(pts)
        if classify(tri).kind == OBTUSE_EXTERIOR:
            equal_partition(tri)
    assert counts["cuts"] >= 200
    assert counts["clips"] <= 15 * counts["cuts"], counts


def test_exterior_job_builds_one_triangle(monkeypatch, tmp_path, capsys):
    builds = []
    real = Triangle.__init__

    def counting(self, *args):
        builds.append(self)
        real(self, *args)

    monkeypatch.setattr(Triangle, "__init__", counting)
    spec = tmp_path / "spec.json"
    spec.write_text('{"mode": "triangle", "triangle": [[0, 0], [1, 0], [0.5, 0.05]]}')
    assert main(["solve", "--input", str(spec), "--svg", str(tmp_path / "out.svg")]) == 0
    assert '"exterior-construction"' in capsys.readouterr().out
    assert len(builds) == 1


def test_solution_clips_each_region_once(monkeypatch):
    calls = []
    real = geometry._clip

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(geometry, "_clip", counting)
    sol = equal_partition(BOUNDARY_ISO)  # the closed form clips only for the solution
    assert sol.method == "closed-form"
    assert len(calls) == 6
    calls.clear()
    verify_partition(BOUNDARY_ISO, sol.point)
    assert len(calls) == 6


def test_a_built_shape_is_never_rescanned_and_both_solves_seed_at_its_mean(monkeypatch):
    """A shape derives its coordinate scale and its vertex mean once, at its
    door: once built, no solve scans its points for the scale again, and
    Newton starts the triangle and the fan solve at the stored mean, scaled
    by the power of two of the stored scale."""
    tri = Triangle.from_coords(((0.0, 0.0), (1.0, 0.0), (0.3, 0.8)))
    poly = ConvexPolygon.from_coords(((0.0, 0.0), (2.0, 0.0), (2.5, 1.0), (1.0, 2.0), (-0.5, 1.0)))
    fan = SectorConfig.from_angles_deg((90.0, 210.0, 330.0))
    for shape, pts in ((tri, tri.points), (poly, poly.coords)):
        xs, ys = zip(*pts)
        assert shape._centroid == (_sum_lr(xs) / len(pts), _sum_lr(ys) / len(pts))
    calls = (
        lambda: equal_partition(tri),
        lambda: equal_partition(THIN_OBTUSE),
        lambda: equal_partition(BOUNDARY_ISO),
        lambda: cut_line_offset(THIN_OBTUSE, "ab", THIN_OBTUSE.area / 3.0),
        lambda: solve_translation(poly, fan, (0.2 * poly.area, 0.3 * poly.area, 0.5 * poly.area)),
    )
    before = [repr(call()) for call in calls]
    assert [equal_partition(t).method for t in (tri, THIN_OBTUSE, BOUNDARY_ISO)] == [
        "newton", "exterior-construction", "closed-form"
    ]

    def scan(pts):
        raise AssertionError("a built shape's points were scanned for the scale again")

    seeds = []
    real = part.newton2d
    monkeypatch.setattr(geometry, "_coord_scale", scan)
    monkeypatch.setattr(part, "_coord_scale", scan, raising=False)  # a binding of its own, if it has one
    monkeypatch.setattr(part, "newton2d", lambda fun, seed, **kw: seeds.append(seed) or real(fun, seed, **kw))
    assert [repr(call()) for call in calls] == before
    expected = []
    for shape in (tri, poly):
        k = math.ldexp(1.0, -math.frexp(shape._scale)[1])
        expected.append((shape._centroid[0] * k, shape._centroid[1] * k))
    assert seeds == expected


def test_newton_reuses_its_last_regions_bit_for_bit():
    """`solve_newton` takes all three regions from Newton's answer, scaled
    back by a power of two: those at b and c from its last evaluation, the
    one at a clipped once at its point in its frame.  Its regions, areas
    and residual are those a fresh `region_parts` gives at its point, bit
    for bit (repr writes each float exactly).  The Newton kinds of the
    acceptance suite, as given and scaled by 1e-150, 1e150 and 1e153;
    `Triangle` rejects them at 1e300, where their areas, near 1e600, and
    their squared diameters are not floats."""
    rng = np.random.default_rng(20240601)
    kinds = (ACUTE, RIGHT, OBTUSE_INTERIOR)
    suite = [pts for pts in oc.kind_suite(rng, n=500) if classify(Triangle.from_coords(pts)).kind in kinds]
    assert len(suite) >= 200
    for scale in (1.0, 1e-150, 1e150, 1e153):
        for pts in suite:
            tri = Triangle.from_coords([(x * scale, y * scale) for x, y in pts])
            sol = solve_newton(tri)
            assert repr(sol) == repr(part._solution(tri, sol.point, "newton"))


def test_newton_right_isoceles():
    sol = solve_newton(RIGHT_ISO)
    r = 1.0 / math.sqrt(6.0)
    assert sol.point.x == pytest.approx(r, abs=5e-12)
    assert sol.point.y == pytest.approx(r, abs=5e-12)
    assert sol.residual <= 1e-12 * RIGHT_ISO.area
    assert sol.method == "newton"
    assert sol.classification.kind == RIGHT
    for v in "abc":
        assert getattr(sol.areas, "at_" + v) == pytest.approx(RIGHT_ISO.area / 3.0, abs=1e-12)


def test_newton_equilateral_hits_centroid():
    sol = solve_newton(EQUILATERAL)
    assert sol.point.x == pytest.approx(0.5, abs=5e-13)
    assert sol.point.y == pytest.approx(math.sqrt(3.0) / 6.0, abs=5e-13)


def test_newton_survives_terrible_seed():
    sol = solve_newton(EQUILATERAL, seed=Point(40.0, -35.0))
    assert sol.point.x == pytest.approx(0.5, abs=1e-9)
    assert sol.point.y == pytest.approx(math.sqrt(3.0) / 6.0, abs=1e-9)


class _Fallback(Exception):
    """Raised in place of Newton's stall fallback."""


def test_fallback_serves_only_far_seeds(monkeypatch):
    """Newton reaches its stall fallback only from a far seed or on a
    shape far from the origin: with the fallback made to raise, the
    acceptance suite through `equal_partition`, the 500 fan instances of
    acceptance 9 and the golden specs solve without reaching it, while the
    far seed above does reach it.  So a change that makes Newton stall on
    core input cannot hide behind the fallback."""

    def refuse():
        raise _Fallback

    real = part.newton2d
    monkeypatch.setattr(part, "newton2d", lambda fun, seed, *, fallback, **kw: real(fun, seed, fallback=refuse, **kw))
    rng = np.random.default_rng(20240601)
    for pts in oc.kind_suite(rng, n=500):
        equal_partition(Triangle.from_coords(pts))
    rng = np.random.default_rng(20240617)
    for _ in range(500):
        poly = ConvexPolygon.from_coords(oc.rand_convex_polygon(rng))
        cfg = SectorConfig.from_angles_deg(oc.rand_fan_angles_deg(rng))
        solve_translation(poly, cfg, tuple(f * poly.area for f in oc.rand_fractions(rng)))
    for spec in (EXTERIOR_SPEC, BOUNDARY_SPEC, FAN_SPEC):
        run(parse_spec(spec))
    with pytest.raises(_Fallback):
        solve_newton(EQUILATERAL, seed=Point(40.0, -35.0))


def _far(shape) -> tuple[float, float]:
    """A seed 50 diameters from the shape's vertex mean, where every ray
    misses or holds all of it, so Newton stalls at once."""
    cx, cy = shape._centroid
    return cx + 30.0 * shape.diameter, cy - 40.0 * shape.diameter


def _fallback_rings(monkeypatch, solve) -> tuple[object, list[int]]:
    """`solve()` and the sector rings (`partition._sector_ring` calls) of
    each call of Newton's fallback in it."""
    rings, counts = [0], []
    real_ring, real_newton = part._sector_ring, part.newton2d

    def ring(*args):
        rings[0] += 1
        return real_ring(*args)

    def newton(fun, seed, *, fallback, **kwargs):
        def counted():
            start = rings[0]
            try:
                return fallback()
            finally:
                counts.append(rings[0] - start)

        return real_newton(fun, seed, fallback=counted, **kwargs)

    monkeypatch.setattr(part, "_sector_ring", ring)
    monkeypatch.setattr(part, "newton2d", newton)
    try:
        return solve(), counts
    finally:
        monkeypatch.undo()


def test_forced_fallback_reaches_the_tolerance(monkeypatch):
    """Seeded 50 diameters out, Newton stalls at once and polishes from
    the KKM zoom's point, on the triangle's fan (the interior kinds of the
    acceptance suite) and on 50 core and 50 hard fans (thin polygons or a
    tiny target, as in `test_masspart`): every solve reaches
    area_tol_rel * area, after one fallback each."""
    rng = np.random.default_rng(20240601)
    tris = [tri for tri in map(Triangle.from_coords, oc.kind_suite(rng, n=500)) if classify(tri).kind in INTERIOR_KINDS]
    assert len(tris) >= 200
    for tri in tris:
        sol, counts = _fallback_rings(monkeypatch, lambda: solve_newton(tri, seed=Point(*_far(tri))))
        assert len(counts) == 1
        assert sol.residual <= 1e-12 * tri.area
    rng = np.random.default_rng(20240617)
    for k in range(100):
        pts = oc.rand_convex_polygon(rng)
        fracs = oc.rand_fractions(rng)
        if k >= 50:
            if k % 2 == 0:
                pts = oc.squash(rng, pts, 10.0 ** rng.uniform(-4.0, -1.0))
            else:
                fracs = oc.tiny_fractions(rng, 10.0 ** rng.uniform(-5.0, -3.0))
            pts = oc.unit_scale(pts)
        poly = ConvexPolygon.from_coords(pts)
        fan = SectorConfig.from_angles_deg(oc.rand_fan_angles_deg(rng))
        targets = tuple(f * poly.area for f in fracs)
        (x, y, _, achieved, *_), counts = _fallback_rings(monkeypatch, lambda: part._fan_newton(
            poly.coords, poly.area, poly._scale, poly._snap, fan.normals, targets, SolverConfig(), _far(poly)))
        assert len(counts) == 1
        assert max(abs(a - t) for a, t in zip(achieved, targets)) <= 1e-12 * poly.area


def test_forced_fallback_does_not_cycle_on_a_thin_triangle(monkeypatch):
    """A 2.66 degree triangle whose label sets string fully-labeled cells
    out along a thin band: first-cell zooming picks a far cell of the
    band, its blow-up drops the point, and two growths bring the zoom back
    about the same domain and cell for all 200 levels (about 16,000
    rings) until the zoom gives up.  Starting a rescanned domain's scan
    from its next side reaches the point in 9,154 rings."""
    tri = Triangle.from_coords(((0.7515617268342755, 2.433207266378817), (0.3480141154746309, 1.1092166851424332),
                                (0.8139547697267799, 2.416748784154496)))
    sol, counts = _fallback_rings(monkeypatch, lambda: solve_newton(tri, seed=Point(*_far(tri))))
    assert counts and counts[0] <= 10_000
    assert sol.residual <= 1e-12 * tri.area
    assert math.dist(sol.point.as_tuple(), solve_newton(tri).point.as_tuple()) <= 1e-12 * tri.diameter


def test_forced_fallback_stops_at_the_rounding_floor(monkeypatch):
    """The unit equilateral triangle 1e6 from the origin, seeded 50
    diameters out: 1e-10 of its diameter is below an ulp of its
    coordinates, so the zoom stops at the cell its grid can still split
    (736 rings) instead of running all 200 levels (13,695 rings)."""
    tri = Triangle.from_coords([(x + 1e6, y + 1e6) for x, y in EQUILATERAL.points])
    sol, counts = _fallback_rings(monkeypatch, lambda: solve_newton(tri, seed=Point(*_far(tri))))
    assert counts and counts[0] <= 1_500
    assert sol.residual <= 1e-12 * tri.area


def _restart_jobs():
    """Solves that reach Newton's fallback: triangles and fans shifted far
    from the origin (most of them raise) and core triangles seeded 50
    diameters out (these answer after the fallback)."""
    rng = np.random.default_rng(71)
    tris = [Triangle.from_coords([(x + 1e5, y + 1e5) for x, y in oc.rand_triangle(rng)]) for _ in range(8)]
    jobs = [lambda tri=tri: equal_partition(tri) for tri in tris]
    for tri in map(Triangle.from_coords, (oc.rand_acute(rng) for _ in range(3))):
        jobs.append(lambda tri=tri: solve_newton(tri, seed=Point(50.0 * tri.diameter, -40.0 * tri.diameter)))
    for _ in range(3):
        poly = ConvexPolygon.from_coords([(x + 1e5, y + 1e5) for x, y in oc.rand_convex_polygon(rng, 4, 8)])
        fan = SectorConfig.from_angles_deg(oc.rand_fan_angles_deg(rng))
        targets = tuple(f * poly.area for f in oc.rand_fractions(rng))
        jobs.append(lambda poly=poly, fan=fan, targets=targets: solve_translation(poly, fan, targets))
    return jobs


def _run_counted(monkeypatch, jobs):
    """Each job's solution or SolverError report as repr, with each job's fallback calls."""
    fallbacks = []
    real_newton = part.newton2d

    def newton(fun, seed, *, fallback, **kwargs):
        def counted():
            fallbacks[-1] += 1
            return fallback()

        return real_newton(fun, seed, fallback=counted, **kwargs)

    monkeypatch.setattr(part, "newton2d", newton)
    out = []
    for job in jobs:
        fallbacks.append(0)
        try:
            out.append(repr(job()))
        except SolverError as exc:
            out.append(repr(exc.report))
    monkeypatch.undo()
    return out, fallbacks


# sha256 over the newline-joined reprs of `_restart_jobs`' solutions and
# SolverError reports
STALLED_SOLVES_SHA256 = "c703cf0bba568a06978c2263ad39f0381d491694a31df400462d2d570e6a4624"


def test_stalled_solves_keep_every_bit(monkeypatch):
    """The goldens cover core jobs only; this pins the bits of solves that
    stall and reach Newton's fallback: every solution and error report,
    residual history included, of the 14 `_restart_jobs`."""
    out, fallbacks = _run_counted(monkeypatch, _restart_jobs())
    assert hashlib.sha256("\n".join(out).encode()).hexdigest() == STALLED_SOLVES_SHA256
    assert sum(fallbacks) >= 10  # 12 of the 14 jobs reach the fallback
    assert {text.split("(")[0] for text in out} == {"PartitionSolution", "SolverReport"}


def test_newton_failure_carries_report():
    cfg = SolverConfig(max_iters=1)
    with pytest.raises(SolverError) as err:
        solve_newton(RIGHT_ISO, cfg, seed=Point(0.9, 0.9))
    rep = err.value.report
    assert rep.method == "newton"
    assert not rep.converged
    assert rep.residual > 0.0
    assert len(rep.best_point) == 2
    assert len(rep.residual_history) >= 1


def test_three_solvers_agree():
    rng = np.random.default_rng(53)
    cases = [oc.rand_acute(rng) for _ in range(10)]
    cases += [oc.rand_right(rng) for _ in range(5)]
    for pts in cases:
        tri = Triangle.from_coords(pts)
        n = solve_newton(tri)
        m = solve_maximin(tri)
        k = solve_kkm(tri)
        assert math.dist(n.point.as_tuple(), m.point.as_tuple()) <= 1e-6 * tri.diameter
        assert math.dist(n.point.as_tuple(), k.point.as_tuple()) <= 1e-6 * tri.diameter
        assert math.dist(m.point.as_tuple(), k.point.as_tuple()) <= 1e-6 * tri.diameter


def test_maximin_handles_interior_obtuse():
    rng = np.random.default_rng(59)
    for _ in range(5):
        tri = Triangle.from_coords(oc.rand_obtuse_of_kind(rng, "interior", tol=1e-3))
        n = solve_newton(tri)
        m = solve_maximin(tri)
        assert m.method == "maximin"
        assert math.dist(n.point.as_tuple(), m.point.as_tuple()) <= 1e-6 * tri.diameter


def test_maximin_rejects_boundary_and_exterior():
    with pytest.raises(PartitionError):
        solve_maximin(THIN_OBTUSE)
    with pytest.raises(PartitionError):
        solve_maximin(BOUNDARY_ISO)


def test_kkm_rejects_obtuse():
    with pytest.raises(PartitionError):
        solve_kkm(THIN_OBTUSE)
    with pytest.raises(PartitionError):
        solve_kkm(triangle_from_angles(40.0, 40.0))


def test_kkm_zoom_reaches_target_diameter(monkeypatch):
    """One 8-grid per level, labelled row by row up to the first
    fully-labeled cell: 595 labels on the equilateral triangle."""
    labels = []
    real = LabelSets._label

    def counting(self, x, y):
        labels.append((x, y))
        return real(self, x, y)

    monkeypatch.setattr(LabelSets, "_label", counting)
    fine = solve_kkm(EQUILATERAL)
    exact = Point(0.5, math.sqrt(3.0) / 6.0)
    assert math.dist(fine.point.as_tuple(), exact.as_tuple()) <= 1e-9 * EQUILATERAL.diameter
    assert len(labels) <= 595


def test_kkm_grows_a_level_without_a_labeled_cell(monkeypatch):
    """A level whose grid holds no fully-labeled cell grows its domain,
    and the zoom still finds the point."""
    rng = np.random.default_rng(20240603)
    tri = Triangle.from_coords([oc.rand_acute(rng) for _ in range(4)][-1])
    cells = []
    real = part._fully_labeled_cell

    def recording(*args):
        cells.append(real(*args))
        return cells[-1]

    monkeypatch.setattr(part, "_fully_labeled_cell", recording)
    k = solve_kkm(tri)
    assert None in cells
    assert math.dist(k.point.as_tuple(), solve_newton(tri).point.as_tuple()) <= 1e-9 * tri.diameter


def test_kkm_answers_a_thin_acute_triangle_newton_stalls_on():
    """A 0.55 degree acute triangle 15 diameters from the origin: Newton
    stalls on it at a residual of 1.48e-16 against a tolerance of
    1.38e-16, while the zoom lands within 1e-9 diameters of Newton's
    answer on the same triangle moved to put its first vertex at the
    origin."""
    pts = ((-1.9956993752320094, -1.5514782894129415), (-2.1454199786423587, -1.4704060577550349),
           (-2.146191511918357, -1.471834259912536))
    tri = Triangle.from_coords(pts)
    x0, y0 = pts[0]
    near = solve_newton(Triangle.from_coords([(x - x0, y - y0) for x, y in pts])).point
    k = solve_kkm(tri)
    assert math.dist(k.point.as_tuple(), (near.x + x0, near.y + y0)) <= 1e-9 * tri.diameter


def test_exterior_construction_properties():
    # the two cut pieces each hold a third of the area, and the point is outside
    rng = np.random.default_rng(61)
    cases = [THIN_OBTUSE.points] + [oc.rand_obtuse_of_kind(rng, "exterior", tol=1e-3) for _ in range(15)]
    for pts in cases:
        tri = Triangle.from_coords(pts)
        sol = solve_exterior(tri)
        assert tri.signed_distance(sol.point) < 0.0
        assert sol.residual <= 1e-12 * tri.area
        n = solve_newton(tri, seed=sol.point)
        assert math.dist(sol.point.as_tuple(), n.point.as_tuple()) <= 1e-9 * tri.diameter


def test_exterior_rejects_other_kinds():
    with pytest.raises(PartitionError):
        solve_exterior(RIGHT_ISO)
    with pytest.raises(PartitionError):
        solve_exterior(triangle_from_angles(40.0, 40.0))


def test_equal_partition_dispatch():
    assert equal_partition(EQUILATERAL).method == "newton"
    assert equal_partition(triangle_from_angles(40.0, 40.0)).method == "newton"
    assert equal_partition(BOUNDARY_ISO).method == "closed-form"
    assert equal_partition(THIN_OBTUSE).method == "exterior-construction"


# one triangle of each kind, as points, so each test builds fresh triangles
# whose classification is not cached yet
KIND_CASES = (
    (EQUILATERAL.points, ACUTE),
    (RIGHT_ISO.points, RIGHT),
    (triangle_from_angles(40.0, 40.0).points, OBTUSE_INTERIOR),
    (BOUNDARY_ISO.points, OBTUSE_BOUNDARY),
    (THIN_OBTUSE.points, OBTUSE_EXTERIOR),
)
# the public solvers that accept each kind
SOLVERS_OF_KIND = {
    ACUTE: (solve_newton, solve_maximin, solve_kkm),
    RIGHT: (solve_newton, solve_maximin, solve_kkm),
    OBTUSE_INTERIOR: (solve_newton, solve_maximin),
    OBTUSE_BOUNDARY: (solve_newton,),
    OBTUSE_EXTERIOR: (solve_exterior, solve_newton),
}


def _count_classifications(monkeypatch) -> list:
    calls = []
    real = geometry._classify_angles

    def counting(angles):
        calls.append(angles)
        return real(angles)

    monkeypatch.setattr(geometry, "_classify_angles", counting)
    return calls


def test_equal_partition_classifies_once(monkeypatch):
    calls = _count_classifications(monkeypatch)
    for pts, kind in KIND_CASES:
        calls.clear()
        assert equal_partition(Triangle.from_coords(pts)).classification.kind == kind
        assert len(calls) == 1, (kind, len(calls))


def test_each_triangle_is_classified_once_across_solvers(monkeypatch):
    calls = _count_classifications(monkeypatch)
    for pts, kind in KIND_CASES:
        for order in (pts, (pts[0], pts[2], pts[1])):  # and a clockwise copy
            calls.clear()
            tri = Triangle.from_coords(order)
            assert equal_partition(tri).classification.kind == kind
            for solve in SOLVERS_OF_KIND[kind]:
                assert solve(tri).classification.kind == kind
            assert classify(tri).kind == kind
            assert len(calls) == 1, (kind, order, len(calls))


def test_equal_partition_is_the_solver_of_its_kind():
    for pts, kind in KIND_CASES:
        tri = Triangle.from_coords(pts)
        if kind == OBTUSE_EXTERIOR:
            assert equal_partition(tri) == solve_exterior(tri)
        elif kind != OBTUSE_BOUNDARY:
            assert equal_partition(tri) == solve_newton(tri)


def test_classify_leaves_triangle_value_unchanged():
    for pts, _ in KIND_CASES:
        tri, fresh = Triangle.from_coords(pts), Triangle.from_coords(pts)
        before = (hash(tri), repr(tri))
        cls = classify(tri)
        assert classify(tri) is cls
        assert tri == fresh and (hash(tri), repr(tri)) == before == (hash(fresh), repr(fresh))


def test_equal_partition_cross_check():
    # the maximin search is an independent route to the interior kinds' point
    for pts, kind in KIND_CASES[:3]:
        tri = Triangle.from_coords(pts)
        sol = equal_partition(tri)
        assert sol.residual <= 1e-12 * tri.area
        assert math.dist(sol.point.as_tuple(), solve_maximin(tri).point.as_tuple()) <= 1e-6 * tri.diameter, kind


def test_verify_partition_at_solution():
    sol = equal_partition(RIGHT_ISO)
    vr = verify_partition(RIGHT_ISO, sol.point)
    assert vr.ok
    assert vr.location == "interior"
    assert vr.max_deviation <= 1e-12 * RIGHT_ISO.area
    assert vr.region_vertex_counts == (4, 4, 4)


def test_verify_partition_rejects_wrong_point():
    # frozen case: centroid of a 4 x 1 right triangle is far from equalizing
    tri = Triangle.from_coords(((0.0, 0.0), (4.0, 0.0), (0.0, 1.0)))
    vr = verify_partition(tri, Point(*tri._centroid))
    assert not vr.ok
    assert vr.location == "interior"
    assert vr.areas.at_a == pytest.approx(0.44444444444444436, rel=1e-12)
    assert vr.areas.at_b == pytest.approx(0.8758169934640523, rel=1e-12)
    assert vr.areas.at_c == pytest.approx(0.6797385620915034, rel=1e-12)
    assert vr.max_deviation == pytest.approx(0.22222222222222227, rel=1e-12)
    assert vr.deviation_rel == pytest.approx(0.11111111111111113, rel=1e-12)


def test_verify_partition_location_kinds():
    ext = equal_partition(THIN_OBTUSE)
    assert verify_partition(THIN_OBTUSE, ext.point).location == "exterior"
    bnd = equal_partition(BOUNDARY_ISO)
    assert verify_partition(BOUNDARY_ISO, bnd.point).location == "boundary"


def test_lemma_inequality_on_boundary():
    # on any side, the region of the opposite vertex beats the smaller of
    # the other two, so boundary grid nodes never take the opposite label;
    # holds exactly for the triangles whose equal-area point is interior
    rng = np.random.default_rng(67)
    cases = [oc.rand_acute(rng) for _ in range(60)]
    cases += [oc.rand_right(rng) for _ in range(20)]
    cases += [oc.rand_obtuse_of_kind(rng, "interior", tol=1e-3) for _ in range(10)]
    for pts in cases:
        tri = Triangle.from_coords(pts)
        for side in ("ab", "bc", "ca"):
            p, q = tri.side(side)
            t = float(rng.uniform(0.05, 0.95))
            x = Point(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))
            assert lemma_check(tri, x)


def test_lemma_inequality_can_fail_when_point_is_exterior():
    # the wedge at the wide vertex of a flat triangle is so narrow that its
    # region stays the smallest even from the opposite side
    p, q = THIN_OBTUSE.side("ab")
    hits = sum(
        not lemma_check(THIN_OBTUSE, Point(p.x + t * (q.x - p.x), p.y))
        for t in (0.3, 0.4, 0.5, 0.6, 0.7)
    )
    assert hits > 0


def test_lemma_check_requires_boundary_point():
    with pytest.raises(PartitionError):
        lemma_check(RIGHT_ISO, Point(0.2, 0.2))


def _segment_side(tri, x, band):
    """The first side whose clamped segment is within band of x, or None:
    the boundary rule lemma_check used before it read the side lines."""
    for side in ("ab", "bc", "ca"):
        p, q = tri.side(side)
        dx, dy = q.x - p.x, q.y - p.y
        t = min(1.0, max(0.0, ((x.x - p.x) * dx + (x.y - p.y) * dy) / (dx * dx + dy * dy)))
        if math.hypot(p.x + t * dx - x.x, p.y + t * dy - x.y) <= band:
            return side
    return None


def _hypot_signed_distance(tri, x):
    """Distance to the boundary, positive inside, with each side's normal
    divided by its length: the formula signed_distance used before."""
    best = math.inf
    for (sx, sy), (ex, ey) in zip(tri.points, tri.points[1:] + tri.points[:1]):
        dx, dy = ex - sx, ey - sy
        best = min(best, ((x.x - sx) * -dy + (x.y - sy) * dx) / math.hypot(dx, dy))
    return best


# sha256 over the hex coordinates of solve_maximin's answers on the interior
# triangles of the probe set, from the inline feasibility test it had before
# it read the side distance
MAXIMIN_PROBE_SHA256 = "94c106997e4ba556ccb0fa060147b9d2664032c23cbb8ff4349d4067ef614b0d"


def test_one_side_distance_keeps_each_caller_on_a_seeded_probe_set():
    """signed_distance, verify_partition, lemma_check and solve_maximin read
    a point against the side lines through one signed side distance.  On
    300 seeded triangles they give what their own formulas gave: 125 of 125
    maximin answers keep their bits, the lemma's outcome and the verified
    location are the same at 6,300 points on each side and its extensions,
    and signed_distance stays within 4e-15 * diameter of the old formula at
    15,000 points (1.2e-15 measured)."""
    rng = np.random.default_rng(11)
    tris = [Triangle.from_coords(oc.rand_triangle(rng)) for _ in range(300)]
    digest, solved = hashlib.sha256(), 0
    for tri in tris:
        if tri._classification.kind in (ACUTE, RIGHT, OBTUSE_INTERIOR):
            p = solve_maximin(tri).point
            digest.update(f"{p.x.hex()} {p.y.hex()}\n".encode())
            solved += 1
    assert (solved, digest.hexdigest()) == (125, MAXIMIN_PROBE_SHA256)
    for tri in tris:
        band = 1e-9 * tri.diameter  # verify_partition's default boundary band
        for side in ("ab", "bc", "ca"):
            p, q = tri.side(side)
            for u in (-1e-3, -1e-13, 0.0, 0.3, 1.0, 1.0 + 1e-13, 1.001):
                x = Point(p.x + u * (q.x - p.x), p.y + u * (q.y - p.y))
                old = _segment_side(tri, x, 1e-12 * tri.diameter)
                if old is None:
                    with pytest.raises(PartitionError):
                        lemma_check(tri, x)
                else:
                    areas = geometry.region_areas(tri, x)
                    opp = "abc".index(next(v for v in "abc" if v not in old))
                    assert lemma_check(tri, x) == (areas[opp] > min(a for k, a in enumerate(areas) if k != opp))
                sd = _hypot_signed_distance(tri, x)
                want = "interior" if sd > band else "exterior" if sd < -band else "boundary"
                assert verify_partition(tri, x).location == want, (tri, side, u)
    probe = np.random.default_rng(12)
    for tri in tris:
        for x, y in probe.uniform(-1.5, 1.5, (50, 2)):
            x = Point(float(x), float(y))
            assert abs(tri.signed_distance(x) - _hypot_signed_distance(tri, x)) <= 4e-15 * tri.diameter


def test_label_sets_partition_and_ties():
    tri = EQUILATERAL
    labels = LabelSets(tri)
    sol = equal_partition(tri)
    areas = geometry.region_areas(tri, sol.point)  # every label within 1e-12 |T| of the least area
    assert all(a <= min(areas) + 1e-12 * tri.area for a in areas)
    rng = np.random.default_rng(71)
    for _ in range(200):
        x = Point(*rng.uniform(-0.5, 1.5, 2))
        lab = labels.label(x)
        got = geometry.region_areas(tri, x)
        best = min(got)
        assert getattr(got, "at_" + lab) == best


def test_solver_config_validation():
    with pytest.raises(PartitionError):
        SolverConfig(area_tol_rel=0.0)
    with pytest.raises(PartitionError):
        SolverConfig(max_iters=0)


@pytest.mark.parametrize(
    "field, value",
    [("max_iters", True), ("max_iters", False), ("max_iters", "5"), ("max_iters", None), ("max_iters", 5j),
     ("area_tol_rel", True), ("area_tol_rel", "x"), ("area_tol_rel", None), ("area_tol_rel", 1e-9j)],
)
def test_solver_config_rejects_bools_and_non_numbers(field, value):
    """A bool is no number here: max_iters=True would cap Newton at one
    step, and area_tol_rel=True would be a tolerance of the whole area."""
    with pytest.raises(PartitionError, match=f"^{field} must be a positive"):
        SolverConfig(**{field: value})


@pytest.mark.parametrize("target", ["x", None, True, 0.1j, (0.1,)])
def test_cut_line_offset_rejects_a_target_that_is_no_number(target):
    with pytest.raises(PartitionError, match="^target_area must lie"):
        cut_line_offset(RIGHT_ISO, "ab", target)


@pytest.mark.parametrize("max_iters", [math.inf, math.nan])
def test_solver_config_rejects_non_finite_max_iters(max_iters):
    with pytest.raises(PartitionError, match="max_iters must be a positive integer"):
        SolverConfig(max_iters=max_iters)
