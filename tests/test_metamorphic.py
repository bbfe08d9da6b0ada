"""Metamorphic checks: a uniformly scaled input gives the scaled answer.

Seeded triangles of every kind and seeded polygon/fan/fraction jobs are
multiplied by 10**k over a wide range of k.  Each scaled solve must keep
the classification, land on the unscaled point times the scale to within
1e-9 of the diameter, and meet the residual bar relative to the scaled
area."""

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
