"""Metamorphic checks: a scaled, rotated, reflected or relabelled input
gives the correspondingly transformed answer.

Seeded triangles of every kind and seeded polygon/fan/fraction jobs are
multiplied by 10**k over a wide range of k.  Each scaled solve must keep
the classification, land on the unscaled point times the scale to within
1e-9 of the diameter, and meet the residual bar relative to the scaled
area.  At unit scale, a rotation about the origin, a reflection and a
relabelling of the vertices, or of the rays with the fractions permuted
to match, move the answer with the input, to within bounds set at
several times the worst deviation measured."""

import math

import numpy as np
import pytest

import oracles as oc
from tripart import ConvexPolygon, SectorConfig, Triangle, equal_partition, solve_translation

EXPONENTS = (-150, -110, -100, -50, -14, -13, -8, 0, 8, 50, 100, 110, 150)
RESIDUAL_REL = 1e-10  # the acceptance suite's equal-area bar, relative to the area
POINT_REL = 1e-9


def _triangles():
    rng = np.random.default_rng(31337)
    out = []
    for _ in range(2):
        out += [
            ("acute", oc.rand_acute(rng)),
            ("right", oc.rand_right(rng)),
            ("obtuse-interior", oc.rand_obtuse_of_kind(rng, "interior")),
            ("obtuse-boundary", oc.boundary_triangle(rng)),
            ("obtuse-exterior", oc.rand_obtuse_of_kind(rng, "exterior")),
        ]
    return out


def _fan_jobs():
    rng = np.random.default_rng(4242)
    return [
        (oc.rand_convex_polygon(rng, 3, 12), oc.rand_fan_angles_deg(rng), oc.rand_fractions(rng))
        for _ in range(4)
    ]


def _scaled(pts, k):
    s = 10.0**k
    return [(float(x) * s, float(y) * s) for x, y in pts]


@pytest.mark.parametrize("k", EXPONENTS)
def test_triangle_solve_commutes_with_scaling(k):
    s = 10.0**k
    for kind, pts in _triangles():
        ref = equal_partition(Triangle.from_coords(_scaled(pts, 0)))
        assert ref.classification.kind == kind
        tri = Triangle.from_coords(_scaled(pts, k))
        sol = equal_partition(tri)
        got, want = sol.classification, ref.classification
        assert (got.kind, got.obtuse_vertex) == (want.kind, want.obtuse_vertex), (kind, k)
        gap = math.hypot(sol.point.x / s - ref.point.x, sol.point.y / s - ref.point.y)
        assert gap <= POINT_REL * tri.diameter / s, (kind, k, gap)
        assert sol.residual <= RESIDUAL_REL * tri.area, (kind, k, sol.residual / tri.area)


@pytest.mark.parametrize("k", EXPONENTS)
def test_fan_placement_commutes_with_scaling(k):
    s = 10.0**k
    for pts, rays, fractions in _fan_jobs():
        fan = SectorConfig.from_angles_deg(rays)
        base = ConvexPolygon.from_coords(_scaled(pts, 0))
        ref = solve_translation(base, fan, tuple(f * base.area for f in fractions))
        poly = ConvexPolygon.from_coords(_scaled(pts, k))
        sol = solve_translation(poly, fan, tuple(f * poly.area for f in fractions))
        gap = math.hypot(sol.apex.x / s - ref.apex.x, sol.apex.y / s - ref.apex.y)
        assert gap <= POINT_REL * poly.diameter / s, (k, gap)
        assert sol.residual <= RESIDUAL_REL * poly.area, (k, sol.residual / poly.area)


def _rotate(pts, th):
    c, s = math.cos(th), math.sin(th)
    return [(c * x - s * y, s * x + c * y) for x, y in pts]


def _mirror(pts):
    return [(x, -y) for x, y in pts]


# worst deviation / diameter over the cases below: on the exterior kind
# 4.3e-13 (rotation), 3.7e-13 (reflection) and 5.4e-13 (relabelling), the
# construction's bisection being exact only to offset adjacency; on the
# other kinds 3.0e-15.  The bounds are 7.5 and 10 times those
EXTERIOR_SYMMETRY_REL = 4e-12
SYMMETRY_REL = 3e-14


def test_triangle_solve_commutes_with_rotation_reflection_and_relabelling():
    rng = np.random.default_rng(1523)
    for pts in oc.kind_suite(rng, 300):
        pts = [(float(x), float(y)) for x, y in pts]
        tri = Triangle.from_coords(pts)
        ref = equal_partition(tri)
        px, py = ref.point.as_tuple()
        th = float(rng.uniform(0.0, 2.0 * math.pi))
        cases = {
            "rotation": (_rotate(pts, th), _rotate([(px, py)], th)[0]),
            "reflection": (_mirror(pts), (px, -py)),
            "relabelling": (pts[1:] + pts[:1], (px, py)),
        }
        bound = (EXTERIOR_SYMMETRY_REL if ref.classification.kind == "obtuse-exterior" else SYMMETRY_REL) * tri.diameter
        for name, (moved, (wx, wy)) in cases.items():
            sol = equal_partition(Triangle.from_coords(moved))
            assert sol.classification.kind == ref.classification.kind, (name, pts)
            assert math.hypot(sol.point.x - wx, sol.point.y - wy) <= bound, (name, pts)
        # a, c, b is the same CCW triangle as a, b, c, so the answer keeps its bits
        assert equal_partition(Triangle.from_coords((pts[0], pts[2], pts[1]))).point == ref.point


# worst deviation / diameter over the cases below: 1.7e-14 (rotation),
# 5.8e-14 (ray relabelling) and 3.2e-14 (mirroring); the bound is 8.6
# times the worst
FAN_SYMMETRY_REL = 5e-13


def test_fan_placement_commutes_with_rotation_mirroring_and_ray_relabelling():
    rng = np.random.default_rng(1524)
    for _ in range(100):
        pts = [(float(x), float(y)) for x, y in oc.rand_convex_polygon(rng, 3, 12)]
        rays, f = oc.rand_fan_angles_deg(rng), oc.rand_fractions(rng)
        poly = ConvexPolygon.from_coords(pts)
        ref = solve_translation(poly, SectorConfig.from_angles_deg(rays), tuple(v * poly.area for v in f))
        ax, ay = ref.apex.as_tuple()
        th = float(rng.uniform(0.0, 2.0 * math.pi))
        cases = {
            "rotation": (_rotate(pts, th), tuple(r + math.degrees(th) for r in rays), f, _rotate([(ax, ay)], th)[0]),
            # ray i + 1 becomes ray i, so sector i + 1 becomes sector i
            "ray relabelling": (pts, rays[1:] + rays[:1], f[1:] + f[:1], (ax, ay)),
            # mirrored rays 2, 1, 0 run CCW, and bound the mirrored sectors 1, 0, 2
            "mirroring": (_mirror(pts), tuple(-r for r in rays[::-1]), (f[1], f[0], f[2]), (ax, -ay)),
        }
        for name, (moved, moved_rays, moved_f, (wx, wy)) in cases.items():
            p = ConvexPolygon.from_coords(moved)
            sol = solve_translation(p, SectorConfig.from_angles_deg(moved_rays), tuple(v * p.area for v in moved_f))
            assert math.hypot(sol.apex.x - wx, sol.apex.y - wy) <= FAN_SYMMETRY_REL * poly.diameter, (name, pts)
