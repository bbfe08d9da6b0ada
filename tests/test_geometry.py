"""Geometry layer: hand-checked values, invariants under random inputs,
and agreement with the independent clipping and Monte Carlo engines."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as oc
from tripart import geometry, masspart, partition
from tripart.geometry import (
    _SECTOR_OF,
    ConvexPolygon,
    GeometryError,
    Point,
    Triangle,
    _clip,
    _foot,
    _sector_ring,
    _signed_area,
    _unit,
    min_area_f,
    region_area,
    region_areas,
    region_parts,
    region_polygon,
)
from tripart.masspart import SectorConfig

RIGHT_ISO = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
EQUILATERAL = ((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0))

UNIT_SQUARE = ConvexPolygon.from_coords(((0, 0), (1, 0), (1, 1), (0, 1)))


def ring_area(ring) -> float:
    """The oracle's shoelace area of a point ring, 0 for the empty ring."""
    return float(oc.areas(*oc.pack(ring, 1, len(ring)))[0]) if ring else 0.0


def test_polygon_area_basics():
    assert UNIT_SQUARE.area == 1.0
    with pytest.raises(GeometryError):  # every polygon has positive area
        ConvexPolygon(())
    tri = ConvexPolygon.from_coords(((0, 0), (2, 0), (0, 3)))
    assert tri.area == 3.0


def test_polygon_normalizes_clockwise_input():
    cw = ConvexPolygon.from_coords(((0, 0), (0, 1), (1, 1), (1, 0)))
    assert cw.area == 1.0
    coords = cw.coords
    signed = sum(
        coords[i][0] * coords[(i + 1) % 4][1] - coords[(i + 1) % 4][0] * coords[i][1]
        for i in range(4)
    )
    assert signed > 0.0


def test_polygon_rejects_nonconvex_and_tiny():
    with pytest.raises(GeometryError):
        ConvexPolygon.from_coords(((0, 0), (2, 0), (1, 0.2), (2, 2), (0, 2)))
    with pytest.raises(GeometryError):
        ConvexPolygon.from_coords(((0, 0), (1, 0)))


# the messages a fan spec reports for the same polygons
DEGENERATE_POLYGONS = {
    "empty": ((), "polygon collapses to nothing after deduplication"),
    "collapsed": (((1.0, 1.0), (1.0, 1.0), (1.0 + 1e-15, 1.0)), "polygon collapses to nothing after deduplication"),
    "near-collinear": (((0.0, 0.0), (1.0, 0.0), (2.0, 1e-13)), "polygon vertices are collinear"),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE_POLYGONS))
def test_polygon_rejects_degenerate_rings(name):
    coords, message = DEGENERATE_POLYGONS[name]
    with pytest.raises(GeometryError) as err:
        ConvexPolygon(coords)
    assert str(err.value) == message


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e5, 1e6, 1e8])
def test_polygon_rejects_a_dent_wherever_it_sits(offset):
    o = offset
    with pytest.raises(GeometryError, match="not convex"):
        ConvexPolygon(((o, o), (o + 1.0, o), (o + 0.2, o + 0.2), (o, o + 1.0)))


def test_polygon_far_from_the_origin_is_counter_clockwise():
    """Ellipse rings of diameter 1 at (1e8, 1e8), given in both orders:
    the shoelace on absolute coordinates gets the sign of some wrong."""
    accepted = 0
    for k in range(60):
        n = 5 + k % 7
        ring = [
            (1e8 + 0.5 * math.cos(2.0 * math.pi * j / n + k), 1e8 + 0.3 * math.sin(2.0 * math.pi * j / n + k))
            for j in range(n)
        ]
        for coords in (ring, ring[::-1]):
            try:
                poly = ConvexPolygon(coords)
            except GeometryError:
                continue
            accepted += 1
            x0, y0 = poly.coords[0]
            assert _signed_area([(x - x0, y - y0) for x, y in poly.coords]) > 0.0, coords
    assert accepted >= 40


def test_polygon_rejects_non_finite_coords():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(GeometryError, match="non-finite"):
            ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (1.0, bad)))


# one bad coordinate at each door: a string or a bool does not pass for a
# number ('0' for 0.0, True for 1.0), and a non-number gives GeometryError
@pytest.mark.parametrize(
    "build, bad",
    [
        (lambda: Triangle.from_coords((("0", 0), (1, 0), (0, 1))), "'0'"),
        (lambda: Triangle.from_coords(((0, 0), (1, 0), (0, True))), "True"),
        (lambda: ConvexPolygon.from_coords([(0, 0), (1, False), (1, 1), (0, 1)]), "False"),
        (lambda: ConvexPolygon(((0, 0), (1, 0), (1, "1"), (0, 1))), "'1'"),
        (lambda: Point("a", 0), "'a'"),
        (lambda: Point(0.0, True), "True"),
    ],
)
def test_coordinates_are_real_numbers_at_every_door(build, bad):
    with pytest.raises(GeometryError, match=re.escape(f"coordinate {bad} is not a real number")):
        build()


def test_polygon_vertices_are_points_of_coords():
    poly = ConvexPolygon.from_coords(((0, 0), (0, 1), (1, 1), (1, 0)))  # clockwise
    assert poly.coords == ((1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0))
    assert all(type(x) is float and type(y) is float for x, y in poly.coords)  # the ints became floats
    region = region_polygon(Triangle.from_coords(RIGHT_ISO), "a", Point(0.25, 0.25))
    as_poly = ConvexPolygon(region)  # a region ring is a valid CCW polygon
    assert as_poly.coords == region


def test_polygon_merges_duplicate_vertices():
    poly = ConvexPolygon.from_coords(((0, 0), (1, 0), (1, 0), (1, 1), (0, 1), (0, 0)))
    assert len(poly.coords) == 4


def _clip_square(nx: float, ny: float, off: float):
    """The unit square clipped to {p : (nx, ny) . p <= off}."""
    return _clip(list(UNIT_SQUARE.coords), nx, ny, off, UNIT_SQUARE._snap)


def test_clip_keeps_boundary_vertices():
    out = _clip_square(1.0, 0.0, 0.5)
    assert _signed_area(out) == pytest.approx(0.5, abs=1e-15)
    assert (0.5, 0.0) in out and (0.5, 1.0) in out
    # vertices already on the line survive a clip through them
    again = _clip_square(1.0, 0.0, 1.0)
    assert set(again) == set(UNIT_SQUARE.coords)


def test_clip_away_everything_gives_empty():
    out = _clip_square(1.0, 0.0, -2.0)
    assert out == []
    assert _signed_area(out) == 0.0


def test_clip_soundness_random():
    # the two halves of any cut must add back to the whole
    rng = np.random.default_rng(42)
    for _ in range(200):
        poly = ConvexPolygon.from_coords(oc.rand_convex_polygon(rng, 4, 12))
        total = poly.area
        th = rng.uniform(0.0, 2.0 * math.pi)
        nx, ny, off = math.cos(th), math.sin(th), rng.uniform(-2.0, 2.0)
        a = _signed_area(_clip(poly.coords, nx, ny, off, poly._snap))
        b = _signed_area(_clip(poly.coords, -nx, -ny, -off, poly._snap))
        assert abs(a + b - total) <= 1e-12 * total


def test_outward_normals_of_right_isoceles():
    # ray j of a triangle's fan is the outward normal of side j: ab, bc, ca
    ab, bc, ca = SectorConfig.from_triangle(Triangle.from_coords(RIGHT_ISO)).directions
    assert ab == pytest.approx((0.0, -1.0))
    assert ca == pytest.approx((-1.0, 0.0))
    s = 1.0 / math.sqrt(2.0)
    assert bc == pytest.approx((s, s))


def test_outward_normal_points_away_from_opposite_vertex():
    rng = np.random.default_rng(3)
    for _ in range(100):
        tri = Triangle.from_coords(oc.rand_triangle(rng))
        rays = SectorConfig.from_triangle(tri).directions
        for (nx, ny), side, opp in zip(rays, ("ab", "bc", "ca"), "cab"):
            p, _ = tri.side(side)
            o = tri.vertex(opp)
            assert nx * (o.x - p.x) + ny * (o.y - p.y) < 0.0


def test_foot_of_perpendicular_examples():
    assert _foot(1.0, 1.0, (0.0, 0.0), (2.0, 0.0)) == (1.0, 0.0)
    # projection is onto the supporting line, not clamped to the segment
    assert _foot(5.0, 3.0, (0.0, 0.0), (1.0, 0.0)) == (5.0, 0.0)
    with pytest.raises(GeometryError):
        _foot(0.0, 0.0, (1.0, 1.0), (1.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(
    px=st.floats(-100, 100), py=st.floats(-100, 100),
    qx=st.floats(-100, 100), qy=st.floats(-100, 100),
    xx=st.floats(-100, 100), xy=st.floats(-100, 100),
)
def test_foot_is_on_line_and_orthogonal(px, py, qx, qy, xx, xy):
    if math.hypot(qx - px, qy - py) < 1e-6:
        return
    fx, fy = _foot(xx, xy, (px, py), (qx, qy))
    dx, dy = qx - px, qy - py
    h = math.hypot(dx, dy)
    # on the line
    assert abs((fx - px) * dy - (fy - py) * dx) / h <= 1e-7 * (1 + abs(xx) + abs(xy))
    # residual is orthogonal to the line
    assert abs((xx - fx) * dx + (xy - fy) * dy) / h <= 1e-7 * (1 + abs(xx) + abs(xy))


def _cuts(normals, i: int, x: float, y: float):
    """The two half-planes (nx, ny, offset), <= form, of sector i of the fan
    of ray normals `normals` at (x, y), as `_sector_ring` states them: the
    inner side of ray i+1, then that of ray i, whose normal is negated."""
    (ax, ay), (bx, by) = normals[(i + 1) % 3], normals[i]
    bx, by = -bx, -by
    return (ax, ay, ax * x + ay * y), (bx, by, bx * x + by * y)


def _wedge_cuts(tri: Triangle, v: str, x: float, y: float):
    """The two half-planes of the wedge at (x, y) opening toward vertex v."""
    return _cuts(tri._normals, _SECTOR_OF[v], x, y)


def test_sector_ring_clips_to_the_wedge_cuts_bit_for_bit():
    # the kernel is the two clips by the half-planes the wedge tests below check
    rng = np.random.default_rng(14)
    for _ in range(100):
        tri = Triangle.from_coords(oc.rand_triangle(rng))
        poly = ConvexPolygon.from_coords(oc.rand_convex_polygon(rng))
        fan = SectorConfig.from_angles_deg(oc.rand_fan_angles_deg(rng))
        for pts, normals, eps in ((tri.points, tri._normals, tri._snap), (poly.coords, fan.normals, poly._snap)):
            for x, y in (rng.uniform(-1.0, 1.0, 2), rng.uniform(-1e3, 1e3, 2)):
                for i in range(3):
                    cut1, cut2 = _cuts(normals, i, x, y)
                    assert _sector_ring(pts, normals, i, x, y, eps) == _clip(_clip(pts, *cut1, eps), *cut2, eps)


def test_sector_ring_spans_keep_every_bit(monkeypatch):
    # with a span table each cut that keeps all or none of the polygon is
    # decided without its clip, and every ring keeps the two clips' bits:
    # polygons and fans at unit scale and 1e5 from the origin, apexes on a
    # grid over the grid restart's box, and a square whose vertices sit
    # exactly on the edge of the snap band, where `<=` decides
    calls = {"clips": 0}
    real = geometry._clip

    def clip(*args):
        calls["clips"] += 1
        return real(*args)

    monkeypatch.setattr(geometry, "_clip", clip)
    decided = {"first none": 0, "first all": 0, "second none": 0, "second all": 0}

    def check(pts, normals, eps, apexes):
        span = [(min(p), max(p)) for p in ([nx * vx + ny * vy for vx, vy in pts] for nx, ny in normals)]
        for x, y in apexes:
            for i in range(3):
                cut1, cut2 = _cuts(normals, i, x, y)
                first = real(pts, *cut1, eps)
                ring = real(first, *cut2, eps)
                calls["clips"] = 0
                assert _sector_ring(pts, normals, i, x, y, eps, span) == ring
                if not first:
                    decided["first none"] += 1
                    assert calls["clips"] == 0
                elif first == list(pts):
                    decided["first all"] += 1
                    kept = "second none" if not ring else "second all" if ring == first else ""
                    if kept:
                        decided[kept] += 1
                    assert calls["clips"] == (0 if kept else 1)
                else:
                    assert calls["clips"] == 2

    rng = np.random.default_rng(30)
    for shift in (0.0, 1e5):
        for _ in range(12):
            poly = ConvexPolygon.from_coords([(x + shift, y + shift) for x, y in oc.rand_convex_polygon(rng, 4, 12)])
            normals = SectorConfig.from_angles_deg(oc.rand_fan_angles_deg(rng)).normals
            xs, ys = zip(*poly.coords)
            pad = 2.0 * poly.diameter
            gx, gy = (np.linspace(min(v) - pad, max(v) + pad, 11).tolist() for v in (xs, ys))
            check(poly.coords, normals, poly._snap, [(x, y) for x in gx for y in gy])
    assert min(decided.values()) >= 1, decided
    eps = 2.0**-20  # every n . p - off below is exact, so 1 - eps, -eps, ... put a vertex at eps from the cut
    edge = (-1.0 - eps, -eps, 0.0, eps, 0.5, 1.0 - eps, 1.0, 1.0 + eps, 2.0 + eps)
    decided = dict.fromkeys(decided, 0)
    check(list(UNIT_SQUARE.coords), ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)), eps, [(x, y) for x in edge for y in edge])
    assert min(decided.values()) >= 1, decided


def test_every_sector_clip_goes_through_the_kernel(monkeypatch):
    # two clips per sector ring, and no sector clipped elsewhere: every
    # solve, area and region below clips only inside `_sector_ring`
    calls = {"_clip": 0, "_sector_ring": 0}

    def counting(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    for module in (geometry, partition, masspart):  # a module that imports a name calls its own binding
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    tri = Triangle.from_coords(((0.0, 0.0), (1.0, 0.0), (0.3, 0.8)))
    boundary = Triangle.from_coords(((0.0, 0.0), (1.0, 0.0), (0.5, 0.5 / math.sqrt(2.0))))
    poly = ConvexPolygon.from_coords(((0.0, 0.0), (2.0, 0.0), (2.5, 1.0), (1.0, 2.0), (-0.5, 1.0)))
    fan = SectorConfig.from_angles_deg((90.0, 210.0, 330.0))
    x = Point(0.4, 0.3)
    assert partition.solve_newton(tri).method == "newton"
    assert partition.equal_partition(boundary).method == "closed-form"
    masspart.solve_translation(poly, fan, (0.2 * poly.area, 0.3 * poly.area, 0.5 * poly.area))
    region_area(tri, "a", x)
    region_areas(boundary, x)
    masspart.sector_areas(poly, fan, x)
    partition.verify_partition(tri, x)
    assert calls["_sector_ring"] >= 30
    assert calls["_clip"] == 2 * calls["_sector_ring"], calls


def _width(cuts) -> float:
    """Opening angle of the intersection of two half-planes whose lines cross."""
    (n1x, n1y, _), (n2x, n2y, _) = cuts
    return math.pi - math.atan2(abs(n1x * n2y - n1y * n2x), n1x * n2x + n1y * n2y)


def test_sector_width_complements_vertex_angle():
    rng = np.random.default_rng(11)
    for _ in range(300):
        tri = Triangle.from_coords(oc.rand_triangle(rng))
        x, y = rng.uniform(-2.0, 2.0, 2)
        for v in "abc":
            cuts = _wedge_cuts(tri, v, x, y)
            assert _width(cuts) == pytest.approx(math.pi - tri.angles["abc".index(v)], abs=1e-12)
            for nx, ny, off in cuts:  # the apex is on both lines
                assert nx * x + ny * y == off


def test_sector_of_acute_triangle_contains_its_vertex():
    # with every corner acute and the apex inside, each wedge reaches its vertex
    rng = np.random.default_rng(12)
    for _ in range(50):
        tri = Triangle.from_coords(oc.rand_acute(rng))
        w = rng.dirichlet((1.0, 1.0, 1.0))
        x = w[0] * tri.a.x + w[1] * tri.b.x + w[2] * tri.c.x
        y = w[0] * tri.a.y + w[1] * tri.b.y + w[2] * tri.c.y
        for v in "abc":
            p = tri.vertex(v)
            for nx, ny, off in _wedge_cuts(tri, v, x, y):
                assert nx * p.x + ny * p.y - off <= 1e-12 * tri.diameter


def test_sector_validation():
    # at any apex, near or far, each wedge's cuts are unit half-planes whose
    # lines pass through the apex and open a width strictly inside (0, pi)
    rng = np.random.default_rng(13)
    for _ in range(50):
        tri = Triangle.from_coords(oc.rand_triangle(rng))
        x, y = rng.uniform(-1e3, 1e3, 2)
        for v in "abc":
            cuts = _wedge_cuts(tri, v, x, y)
            assert 0.0 < _width(cuts) < math.pi
            for nx, ny, off in cuts:
                assert math.hypot(nx, ny) == pytest.approx(1.0, abs=1e-15)
                assert abs(nx * x + ny * y - off) <= 1e-9 * max(1.0, abs(x), abs(y))


def test_regions_tile_the_triangle():
    # the three wedges partition the plane, so the areas always total |T|
    rng = np.random.default_rng(5)
    for _ in range(200):
        tri = Triangle.from_coords(oc.rand_triangle(rng))
        for x in (
            Point(*rng.uniform(-0.5, 0.5, 2)),
            Point(*tri._centroid),
            tri.a,
            Point(*(10.0 * rng.uniform(-1, 1, 2))),
        ):
            total = sum(region_areas(tri, x))
            assert abs(total - tri.area) <= 1e-10 * tri.area


def test_region_area_right_isoceles_square_corner():
    # at x = (t, t) the region at the right-angle vertex is the square [0,t]^2
    tri = Triangle.from_coords(RIGHT_ISO)
    assert region_area(tri, "a", Point(0.25, 0.25)) == pytest.approx(0.0625, abs=1e-15)
    assert region_area(tri, "b", Point(0.25, 0.25)) == pytest.approx(0.21875, abs=1e-14)
    assert region_area(tri, "c", Point(0.25, 0.25)) == pytest.approx(0.21875, abs=1e-14)


def test_region_area_monte_carlo():
    # fully independent estimate: 10^7 uniform samples classified by sign tests
    est = oc.mc_region_areas(RIGHT_ISO, (0.25, 0.25), n=10**7, seed=20240817)
    lib = region_areas(Triangle.from_coords(RIGHT_ISO), Point(0.25, 0.25))
    for e, l in zip(est, lib):
        assert abs(e - l) <= 1e-3 * 0.5


def test_region_area_equilateral_midpoint():
    tri = Triangle.from_coords(EQUILATERAL)
    mid = Point(0.5, 0.0)
    r = region_areas(tri, mid)
    assert r.at_a == pytest.approx(math.sqrt(3.0) / 32.0, rel=1e-13)
    assert r.at_b == pytest.approx(math.sqrt(3.0) / 32.0, rel=1e-13)
    assert r.at_c == pytest.approx(3.0 * math.sqrt(3.0) / 16.0, rel=1e-13)


def test_region_area_agrees_with_independent_engine():
    rng = np.random.default_rng(17)
    for _ in range(150):
        pts = oc.rand_triangle(rng)
        tri = Triangle.from_coords(pts)
        X = rng.uniform(-2.0, 2.0, (4, 2))
        expected = oc.region_areas_np(pts, X)
        for row, (x, y) in zip(expected, X):
            got = region_areas(tri, Point(x, y))
            for e, g in zip(row, got):
                assert abs(e - g) <= 1e-12 * tri.area


def test_region_polygon_matches_region_area():
    rng = np.random.default_rng(23)
    for _ in range(100):
        tri = Triangle.from_coords(oc.rand_triangle(rng))
        x = Point(*rng.uniform(-1.5, 1.5, 2))
        for v in "abc":
            ring = region_polygon(tri, v, x)
            a = region_area(tri, v, x)
            assert abs(ring_area(ring) - a) <= 1e-12 * max(a, tri.area * 1e-3)


def test_region_parts_match_separate_calls():
    from tripart.partition import equal_partition, verify_partition
    from tripart.problem import triangle_from_angles

    rng = np.random.default_rng(41)
    shapes = [
        EQUILATERAL,
        RIGHT_ISO,
        triangle_from_angles(40.0, 40.0).points,  # obtuse, point inside
        ((0.0, 0.0), (1.0, 0.0), (0.5, 0.5 / math.sqrt(2.0))),  # boundary case
        ((0.0, 0.0), (1.0, 0.0), (0.5, 0.05)),  # exterior case
    ]
    shapes += [pts[::-1] for pts in shapes]  # clockwise input
    shapes += [oc.rand_triangle(rng) for _ in range(20)]
    for pts in shapes:
        tri = Triangle.from_coords(pts)
        points = [equal_partition(tri).point, Point(*tri._centroid), tri.a, Point(3.0, -2.0)]
        points += [Point(*rng.uniform(-2.0, 2.0, 2)) for _ in range(4)]
        for x in points:
            areas, regions = region_parts(tri, x)
            # the one clip pass gives the kernel's area of each region, bit
            # for bit, and every other reader of the regions takes its parts
            assert areas == tuple(region_area(tri, v, x) for v in "abc")
            assert region_areas(tri, x) == areas
            assert regions == tuple(region_polygon(tri, v, x) for v in "abc")
            vr = verify_partition(tri, x)
            assert vr.areas == areas
            assert vr.region_vertex_counts == tuple(len(r) for r in regions)


def test_region_at_own_vertex_is_empty():
    tri = Triangle.from_coords(RIGHT_ISO)
    assert region_area(tri, "a", tri.a) == 0.0
    assert region_polygon(tri, "a", tri.a) == ()


def test_region_area_is_lipschitz():
    rng = np.random.default_rng(29)
    for _ in range(200):
        tri = Triangle.from_coords(oc.rand_triangle(rng))
        x = rng.uniform(-1.0, 1.0, 2)
        th = rng.uniform(0.0, 2.0 * math.pi)
        eps = 1e-3 * tri.diameter
        y = x + eps * np.array([math.cos(th), math.sin(th)])
        for v in "abc":
            da = region_area(tri, v, Point(*x)) - region_area(tri, v, Point(*y))
            assert abs(da) <= 4.0 * tri.diameter * eps


def test_similarity_equivariance():
    # rotations, scalings, translations and reflections carry regions along
    rng = np.random.default_rng(31)
    for _ in range(100):
        pts = oc.rand_triangle(rng)
        x = rng.uniform(-0.5, 0.5, 2)
        tri = Triangle.from_coords(pts)
        base = region_areas(tri, Point(*x))
        reflect = bool(rng.integers(0, 2))
        th = rng.uniform(0.0, 2.0 * math.pi)
        s = rng.uniform(0.4, 2.5)
        R = s * np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        if reflect:
            R = R @ np.array([[1.0, 0.0], [0.0, -1.0]])
        t = rng.uniform(-3.0, 3.0, 2)
        pts2 = pts @ R.T + t
        x2 = R @ x + t
        tri2 = Triangle.from_coords(pts2)
        # reflection flips orientation; the library then swaps labels b and c
        order = (0, 2, 1) if reflect else (0, 1, 2)
        got = region_areas(tri2, Point(*x2))
        for i, j in enumerate(order):
            assert got[j] == pytest.approx(s * s * base[i], rel=1e-9)


def test_min_area_f_never_exceeds_third():
    rng = np.random.default_rng(37)
    for _ in range(100):
        tri = Triangle.from_coords(oc.rand_triangle(rng))
        for _ in range(5):
            x = Point(*rng.uniform(-1.5, 1.5, 2))
            assert min_area_f(tri, x) <= tri.area / 3.0 + 1e-12 * tri.area
        assert min_area_f(tri, tri.a) == 0.0


def test_triangle_validation_and_normalization():
    with pytest.raises(GeometryError):
        Triangle.from_coords(((0, 0), (1, 0), (2, 0)))
    with pytest.raises(GeometryError):
        Triangle.from_coords(((0, 0), (1, 0), (0.5, 1e-14)))
    cw = Triangle.from_coords(((0, 0), (0, 1), (1, 0)))
    assert cw.area > 0.0
    assert (cw.b.x, cw.b.y) == (1.0, 0.0)  # b and c swapped to restore CCW
    assert cw.angles[0] == pytest.approx(math.pi / 2.0)


def test_triangle_accessors():
    tri = Triangle.from_coords(RIGHT_ISO)
    assert tri.area == 0.5
    assert tri.diameter == pytest.approx(math.sqrt(2.0))
    assert tri._centroid == pytest.approx((1.0 / 3.0, 1.0 / 3.0))
    assert tri.side("ba") == (tri.b, tri.a)
    assert sum(tri.angles) == pytest.approx(math.pi)
    assert tri.signed_distance(Point(0.1, 0.1)) >= 0.0
    assert tri.signed_distance(Point(1.0, 1.0)) < 0.0
    assert tri.signed_distance(Point(0.1, 0.1)) > 0.0
    with pytest.raises(GeometryError):
        tri.vertex("d")
    with pytest.raises(GeometryError):
        tri.side("aa")


@pytest.mark.parametrize("v", ["d", "", "ab", "A "])
def test_unknown_vertex_ids_are_geometry_errors(v):
    tri = Triangle.from_coords(RIGHT_ISO)
    x = Point(0.25, 0.25)
    message = f"unknown vertex id {v.lower()!r}"
    for call in (
        lambda: tri.vertex(v),
        lambda: region_area(tri, v, x),
        lambda: region_polygon(tri, v, x),
    ):
        with pytest.raises(GeometryError, match=re.escape(message)):
            call()
    for v in "aBc":  # known ids are read in any case
        assert getattr(region_areas(tri, x), "at_" + v.lower()) == region_area(tri, v, x)
        assert region_polygon(tri, v, x) == region_polygon(tri, v.lower(), x)
        assert tri.vertex(v) is tri.vertex(v.upper())


def test_point_and_halfplane_validation():
    with pytest.raises(GeometryError):
        Point(math.nan, 0.0)
    with pytest.raises(GeometryError):
        Point(math.inf, 1.0)
    # the kernels' half-plane through a point: a unit normal from `_unit`
    # and the offset n . p, so the point lies on the boundary line
    nx, ny = _unit((2.0, 0.0), (12.0, 0.0))
    off = nx * 2.0 + ny * 0.0
    assert (nx, ny, off) == (1.0, 0.0, 2.0)
    square = [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]
    left = _clip(square, nx, ny, off, 0.0)
    right = _clip(square, -nx, -ny, -off, 0.0)
    # the boundary line belongs to both sides, and they split the square
    assert (2.0, 0.0) in left and (2.0, 4.0) in left
    assert (2.0, 0.0) in right and (2.0, 4.0) in right
    assert _signed_area(left) == _signed_area(right) == 8.0
