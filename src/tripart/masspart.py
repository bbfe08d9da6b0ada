"""Three-ray fans and area partition of convex polygons by translation.

A fan of three rays from a common apex, with consecutive gaps each below
pi, splits the plane into three convex sectors.  For any convex polygon
and any positive target areas summing to the polygon's area there is a
position of the apex realizing the targets; `solve_translation` finds it.
The perpendicular-wedge partition of a triangle is the special case where
the rays are the outward side normals: sectors 0, 1, 2 reproduce the
regions at vertices b, c, a bit for bit, because both are clipped by
`_sector_ring`.  Both problems share that area kernel (`tripart.geometry`)
and one Newton front end with an exact Jacobian (`tripart.partition`).
"""

from __future__ import annotations

import math
from collections import namedtuple

from .geometry import (
    ConvexPolygon, Point, Triangle, Vec, _need, _real_float, _reals, _sector_ring, _shown, _signed_area, _sum_lr, _Value,
)
from .partition import _config, _fan_newton

GAP_MIN = 1e-9  # smallest allowed angle between consecutive rays
GAP_GUARD = 1e-9  # each gap must stay below pi by this margin


class MassPartitionError(ValueError):
    """Invalid fan configuration or target areas."""


class SectorConfig(_Value):
    """Three unit ray directions in CCW order; sector i lies between ray i
    and ray i+1 (indices mod 3).

    Construction normalizes the directions to unit length and enforces the
    fan invariants: exactly three rays, no coincident rays, CCW order,
    every gap below pi (so each sector is convex).  It also stores
    `normals`, the directions turned +90 degrees: the fan form the area
    kernel reads."""

    _fields = ("directions",)

    def __init__(self, directions: tuple[Vec, Vec, Vec]):
        try:  # read once, so any iterable of pairs will do
            pairs = [(dx, dy) for dx, dy in directions]
        except (TypeError, ValueError):  # not an iterable of pairs
            pairs = None
        if pairs is None or not _reals([v for pair in pairs for v in pair], 2 * len(pairs)):
            raise MassPartitionError(f"directions must be (x, y) pairs of real numbers, got {_shown(directions)}")
        if len(pairs) != 3:
            raise MassPartitionError(f"a fan has three ray directions, got {len(pairs)}")
        dirs = []
        for rx, ry in pairs:
            dx, dy = _real_float(rx), _real_float(ry)
            h = math.hypot(dx, dy)
            if h == 0.0 or not math.isfinite(h):
                raise MassPartitionError(f"ray direction ({_shown(rx)}, {_shown(ry)}) is not usable")
            # keep vectors that are already unit length bit-for-bit, so fans
            # built from triangle normals reproduce the wedge areas exactly
            if abs(h - 1.0) > 1e-12:
                dx, dy = dx / h, dy / h
            dirs.append((dx, dy))
        self.__dict__.update(directions=tuple(dirs), normals=tuple((-dy, dx) for dx, dy in dirs))
        for g in self.gaps():
            if g < GAP_MIN:
                raise MassPartitionError("two rays coincide")
            if g > math.pi - GAP_GUARD:
                raise MassPartitionError(
                    "rays must be in counter-clockwise order with every gap below pi"
                )

    @classmethod
    def from_angles_deg(cls, angles: tuple[float, float, float]) -> "SectorConfig":
        """The fan of rays at `angles`, three real numbers in degrees."""
        if not _reals(angles, 3):
            raise MassPartitionError(f"angles must be three real numbers, got {_shown(angles)}")
        if not all(math.isfinite(_real_float(a)) for a in angles):
            raise MassPartitionError(f"angles must be finite, got {_shown(angles)}")
        return cls(tuple((math.cos(math.radians(a)), math.sin(math.radians(a))) for a in angles))

    @classmethod
    def from_triangle(cls, tri: Triangle) -> "SectorConfig":
        """Fan of the triangle's outward side normals, its stored side unit
        vectors turned -90 degrees.  Its sectors coincide with the perpendicular
        wedges: sectors 0, 1, 2 reproduce the regions at vertices b, c, a."""
        return cls(tuple([(uy, -ux) for ux, uy in _need(tri, Triangle, "tri", MassPartitionError)._normals]))

    def gaps(self) -> tuple[float, float, float]:
        """CCW angles between consecutive rays; they always sum to 2 pi."""
        ang = [math.atan2(dy, dx) for dx, dy in self.directions]
        return tuple((ang[(i + 1) % 3] - ang[i]) % (2.0 * math.pi) for i in range(3))


TranslationSolution = namedtuple(
    "TranslationSolution", "apex translation achieved targets residual iterations method", defaults=("newton",)
)


def sector_areas(poly: ConvexPolygon, cfg: SectorConfig, apex: Point) -> tuple[float, float, float]:
    """Areas of the polygon pieces cut by the fan placed at `apex`.  The
    three values sum to the polygon area for every apex position."""
    poly, apex = _need(poly, ConvexPolygon, "poly", MassPartitionError), _need(apex, Point, "apex", MassPartitionError)
    normals = _need(cfg, SectorConfig, "cfg", MassPartitionError).normals
    return tuple(_signed_area(_sector_ring(poly.coords, normals, i, apex.x, apex.y, poly._snap)) for i in range(3))


def _check_targets(vals, total: float) -> tuple[float, float, float]:
    """The rule every fan job's targets obey: three positive finite areas
    whose sum, left to right, is within 1e-12 * total of the polygon area
    `total`.  Returns them as floats, the values the rule judged; raises
    MassPartitionError otherwise."""
    floats = tuple(map(_real_float, vals)) if _reals(vals, 3) else ()
    if not (floats and all(0.0 < v < math.inf for v in floats)):
        raise MassPartitionError(f"targets must be three positive areas, got {_shown(vals)}")
    if abs(_sum_lr(floats) - total) > 1e-12 * total:
        raise MassPartitionError(f"targets sum to {_sum_lr(floats)!r} but the polygon area is {total!r}")
    return floats


def solve_translation(poly, fan: SectorConfig, targets, solver_cfg=None) -> TranslationSolution:
    """Place the fan so its sectors cut the polygon into `targets`, the
    three target areas.

    The polygon stays fixed and the apex moves; `translation` is the
    vector that would instead move the polygon onto a fan anchored at the
    origin, i.e. the negated apex.  Solved with the same damped Newton
    engine as the triangle problem, from the vertex mean the polygon
    stores.  `achieved` holds the sector areas of Newton's answer, bit for
    bit those `sector_areas` gives at the apex.
    Raises SolverError on failure and MassPartitionError for invalid
    targets or a `poly` or `fan` of the wrong type."""
    floats = _check_targets(targets, _need(poly, ConvexPolygon, "poly", MassPartitionError).area)
    x, y, iters, achieved, *_ = _fan_newton(
        poly.coords, poly.area, poly._scale, poly._snap, _need(fan, SectorConfig, "fan", MassPartitionError).normals,
        floats, 2 * poly.diameter, _config(solver_cfg, "solver_cfg"), poly._centroid,
    )
    apex = Point(x, y)
    residual = max(abs(a - t) for a, t in zip(achieved, floats))
    return TranslationSolution(
        apex=apex,
        translation=(-apex.x, -apex.y),
        achieved=achieved,
        targets=targets,
        residual=residual,
        iterations=iters,
    )
