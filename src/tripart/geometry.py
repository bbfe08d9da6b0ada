"""Planar geometry primitives.

Double-precision points, triangles and convex polygons, half-plane
clipping, and the perpendicular-wedge machinery that splits the plane
around a movable point X into three angular regions, one per triangle
vertex: the region at vertex V is bounded by the two lines through X
perpendicular to the sides meeting at V and opens toward V.  The three
wedges tile the plane for every X, so the three region areas always sum
to the triangle area.  The wedges are the sectors of a three-ray fan at X
whose rays are the outward side normals, so one fan kernel serves both
problems: `_sector_ring` clips a polygon to a sector with `_clip`,
`_signed_area` gives the area of what it keeps, and `_sector_jacobian`
gives the exact gradient of those areas from the rays' chords.

Where a triangle's equal-area point lies (its classification) follows
from its angles alone, so it is computed here, once per `Triangle`, and
kept on it like the angles; `tripart.partition` reads it.

All types are immutable after construction and all operations are pure
functions, so everything here is safe to use concurrently.
"""

from __future__ import annotations

import math
from collections import namedtuple

Vec = tuple[float, float]

VERTEX_IDS = ("a", "b", "c")
SECTOR_VERTEX_ORDER = ("b", "c", "a")  # triangle regions hit by fan sectors 0, 1, 2
_SECTOR_OF = {v: i for i, v in enumerate(SECTOR_VERTEX_ORDER)}

DEGENERACY_REL = 1e-12  # min |signed area| / diameter**2 for a usable triangle or polygon
CLIP_SNAP_REL = 1e-14   # on-line band for clipping, relative to coordinate scale
_FLOAT_MIN = 2.2250738585072014e-308  # sys.float_info.min, the least normal float
_SHOWN_DEPTH = 100  # a message shows what sits inside this many lists or tuples as ...


class GeometryError(ValueError):
    """Invalid geometric input: non-finite, degenerate or non-convex."""


def _real(v) -> bool:
    """Whether v is a real number and not a bool, as the value types' numbers must be."""
    if type(v) is float or type(v) is int:
        return True
    import numbers  # only for other types: at module level its import would slow every command's start

    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _real_float(v) -> float:
    """v as a float64, inf past the float range, nan unless v is a real
    number (see `_real`): how every door converts a number, once."""
    if not _real(v):
        return math.nan
    try:
        return float(v)
    except OverflowError:  # an int or Fraction past the float range
        return math.inf


def _shown(v, depth: int = 0) -> str:
    """repr(v) for a door's message, but never raising: an int past the float range
    by its bit count, a value whose repr raises (past 4,300 digits or the recursion
    limit) by its type, and what sits `_SHOWN_DEPTH` lists or tuples deep as `...`."""
    if depth == _SHOWN_DEPTH:
        return "..."
    if type(v) in (tuple, list):
        inner = ", ".join([_shown(x, depth + 1) for x in v]) + ("," if len(v) == 1 and type(v) is tuple else "")
        return f"({inner})" if type(v) is tuple else f"[{inner}]"
    try:
        return f"<int of {v.bit_length()} bits>" if isinstance(v, int) and _real_float(v) == math.inf else repr(v)
    except (ValueError, RecursionError):
        return f"<{type(v).__name__} too long to show>"


def _need(value, kind: type, name: str, error: type = GeometryError):
    """`value` if it is a `kind`, else `error` naming the parameter `name`: the package's one type check at a door."""
    if isinstance(value, kind):
        return value
    raise error(f"{name} must be a {kind.__name__}, got {_shown(value)}")


def _float(v) -> float:
    """A coordinate as a float64, the value types' one rule; GeometryError naming it unless finite and real."""
    f = v if type(v) is float else _real_float(v)
    if not math.isfinite(f):
        raise GeometryError(f"non-finite coordinate {_shown(v)}" if _real(v) else f"coordinate {_shown(v)} is not a real number")
    return f


def _reals(v, n: int) -> bool:
    """Whether v is a sized sequence of n real numbers (see `_real`)."""
    try:  # a plain float or int needs no call of its own
        return len(v) == n and (set(map(type, v)) <= {float, int} or all(map(_real, v)))
    except TypeError:  # v has no length
        return False


def _vertex_id(v: str) -> str:
    """Vertex id v in lower case; GeometryError unless it is a string a, b or c, in either case."""
    key = v.lower() if isinstance(v, str) else v
    if isinstance(key, str) and key in VERTEX_IDS:
        return key
    raise GeometryError(f"unknown vertex id {_shown(key)}")


# ---------------------------------------------------------------------------
# Low-level helpers on raw coordinate tuples.  These are the hot paths; they
# deliberately avoid constructing wrapper objects.
# ---------------------------------------------------------------------------


def _signed_area(pts) -> float:
    n = len(pts)
    if n < 3:
        return 0.0
    total = 0.0
    x0, y0 = pts[-1]
    for x1, y1 in pts:
        total += x0 * y1 - x1 * y0
        x0, y0 = x1, y1
    return 0.5 * total


def _coord_scale(pts) -> float:
    m = 0.0
    for x, y in pts:
        ax = abs(x)
        if ax > m:
            m = ax
        ay = abs(y)
        if ay > m:
            m = ay
    return m


def _clip(pts, nx: float, ny: float, off: float, eps: float):
    """Clip a convex CCW polygon against {p : n.p <= off}.

    Vertices within eps of the cut line are kept as-is and no intersection
    vertex is generated for their edges, which avoids sliver pairs.
    """
    if not pts:
        return []
    out = []
    sx, sy = pts[-1]
    ds = nx * sx + ny * sy - off
    for p in pts:
        ex, ey = p
        de = nx * ex + ny * ey - off
        if de <= eps:
            if ds > eps and de < -eps:
                t = ds / (ds - de)
                out.append((sx + t * (ex - sx), sy + t * (ey - sy)))
            out.append(p)
        elif ds < -eps:
            t = ds / (ds - de)
            out.append((sx + t * (ex - sx), sy + t * (ey - sy)))
        sx, sy = ex, ey
        ds = de
    return out


def _sector_ring(pts, normals, i: int, x: float, y: float, eps: float):
    """The unmerged part of a convex CCW polygon inside sector i of the fan
    at (x, y), the package's one sector clip.  `normals` holds each ray
    direction turned +90 degrees, and sector i lies between rays i and i+1:
    it is {p : n . p <= n . (x, y)} clipped first for n = normals[i+1],
    the inner side of ray i+1, then for n = -normals[i], that of ray i."""
    (ax, ay), (bx, by) = normals[(i + 1) % 3], normals[i]
    bx, by = -bx, -by
    return _clip(_clip(pts, ax, ay, ax * x + ay * y, eps), bx, by, bx * x + by * y, eps)


def _edge_terms(pts, normals) -> tuple:
    """The terms of `_sector_jacobian` that do not depend on the apex, once
    per solve: for each edge (s, e) of a convex CCW polygon, in order from
    the closing edge, (sx, sy, wx, wy, w . n_0, w . n_1, w . n_2) with
    w = e - s and n_j the fan's ray normals."""
    (n0x, n0y), (n1x, n1y), (n2x, n2y) = normals
    out = []
    sx, sy = pts[-1]
    for ex, ey in pts:
        wx, wy = ex - sx, ey - sy
        out.append((sx, sy, wx, wy, wx * n0x + wy * n0y, wx * n1x + wy * n1y, wx * n2x + wy * n2y))
        sx, sy = ex, ey
    return tuple(out)


def _sector_jacobian(edges, normals, x: float, y: float) -> tuple[float, float, float, float]:
    """Exact gradients of the areas of sectors 0 and 1 with respect to the
    apex (x, y), as (dA0/dx, dA0/dy, dA1/dx, dA1/dy), from the polygon's
    `_edge_terms` for the fan of ray normals `normals`.  Moving the apex
    slides each ray sideways, so by the Leibniz rule
    grad A_j = l_{j+1} n_{j+1} - l_j n_j, with l_j the chord of ray j in the
    polygon; the determinant l0 l1 sin g0 + l1 l2 sin g1 + l2 l0 sin g2 (g_i
    the fan's gaps) is positive exactly when at least two rays cross it.
    The chords come from one Cyrus-Beck pass: ray j runs along n_j turned
    -90 degrees, so its point at parameter t lies inside edge (s, e) while
    t * (w . n_j) <= cross(w, (x, y) - s) with w = e - s; only the cross
    product depends on the apex.  The rays are unrolled, and min/max
    spelled out, because this is the Newton step's inner loop."""
    lo0 = lo1 = lo2 = 0.0
    hi0 = hi1 = hi2 = math.inf
    for sx, sy, wx, wy, k0, k1, k2 in edges:
        c = wx * (y - sy) - wy * (x - sx)
        if k0 > 0.0:
            t = c / k0
            if t < hi0:
                hi0 = t
        elif k0 < 0.0:
            t = c / k0
            if t > lo0:
                lo0 = t
        elif c < 0.0:
            hi0 = -math.inf
        if k1 > 0.0:
            t = c / k1
            if t < hi1:
                hi1 = t
        elif k1 < 0.0:
            t = c / k1
            if t > lo1:
                lo1 = t
        elif c < 0.0:
            hi1 = -math.inf
        if k2 > 0.0:
            t = c / k2
            if t < hi2:
                hi2 = t
        elif k2 < 0.0:
            t = c / k2
            if t > lo2:
                lo2 = t
        elif c < 0.0:
            hi2 = -math.inf
    l0, l1, l2 = max(0.0, hi0 - lo0), max(0.0, hi1 - lo1), max(0.0, hi2 - lo2)
    (n0x, n0y), (n1x, n1y), (n2x, n2y) = normals
    return (l1 * n1x - l0 * n0x, l1 * n1y - l0 * n0y, l2 * n2x - l1 * n1x, l2 * n2y - l1 * n1y)


def _unit(p: Vec, q: Vec) -> Vec:
    """Unit vector from p toward q."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    h = math.hypot(dx, dy)
    return (dx / h, dy / h)


def _triangle_angles(pts) -> tuple[float, float, float]:
    """Interior angles, in (0, pi), at the three points of a triangle; the
    one expression behind `Triangle.angles` (the sweep's `_obtuse_cells`
    gives its bits): at p, atan2(|u x w|, u . w) for u and w from p to the
    next two points."""
    (ax, ay), (bx, by), (cx, cy) = pts
    ux, uy, wx, wy = bx - ax, by - ay, cx - ax, cy - ay
    at_a = math.atan2(abs(ux * wy - uy * wx), ux * wx + uy * wy)
    ux, uy, wx, wy = cx - bx, cy - by, ax - bx, ay - by
    at_b = math.atan2(abs(ux * wy - uy * wx), ux * wx + uy * wy)
    ux, uy, wx, wy = ax - cx, ay - cy, bx - cx, by - cy
    return at_a, at_b, math.atan2(abs(ux * wy - uy * wx), ux * wx + uy * wy)


# The classification: where a triangle's equal-area point lies.
ACUTE = "acute"
RIGHT = "right"
OBTUSE_INTERIOR = "obtuse-interior"
OBTUSE_BOUNDARY = "obtuse-boundary"
OBTUSE_EXTERIOR = "obtuse-exterior"
KINDS = (ACUTE, RIGHT, OBTUSE_INTERIOR, OBTUSE_BOUNDARY, OBTUSE_EXTERIOR)
INTERIOR_KINDS = (ACUTE, RIGHT, OBTUSE_INTERIOR)

CLASSIFY_TOL = 1e-9  # band for right angles (rad) and criterion margin
_HALF_PI = 0.5 * math.pi
_RIGHT_MAX = 0.5 * math.pi + CLASSIFY_TOL  # the widest angle of an acute or right triangle


class Classification(namedtuple("Classification", "kind obtuse_vertex criterion_margin", defaults=(None, None))):
    """Where the equal-area point lies relative to the triangle.

    `obtuse_vertex` names the widest-angle vertex for the obtuse kinds and
    is None otherwise; `criterion_margin` is the signed slack of the
    interior criterion (positive inside, zero on the boundary case),
    None when the triangle is not obtuse.
    """

    __slots__ = ()


def _widest(angles) -> int:
    """Index of the widest of three interior angles (the first one on a
    tie).  The vertices after it, in cyclic order, are the acute vertices
    A and B of the criterion and the closed form."""
    a0, a1, a2 = angles
    if a0 >= a1:
        return 0 if a0 >= a2 else 2
    return 1 if a1 >= a2 else 2


def _obtuse_kind(ta: float, tb: float) -> tuple[str, float]:
    """An obtuse triangle's kind and criterion margin, from the tangents of
    its acute angles A and B after the widest: the signed slack of the
    interior criterion, positive when the equal-area point is interior,
    zero (within CLASSIFY_TOL) on side AB and negative outside."""
    margin = math.sqrt((1.0 + ta * ta) * tb) + math.sqrt((1.0 + tb * tb) * ta) - math.sqrt(3.0 * (ta + tb))
    if margin > CLASSIFY_TOL:
        return OBTUSE_INTERIOR, margin
    if margin < -CLASSIFY_TOL:
        return OBTUSE_EXTERIOR, margin
    return OBTUSE_BOUNDARY, margin


def _classify_angles(angles) -> tuple[str, int, float | None]:
    """The classification from the interior angles at a, b, c, all it
    depends on, as plain values: the kind, the index of the widest angle
    and the criterion margin (None unless the triangle is obtuse, when
    `_obtuse_kind` gives both).  CLASSIFY_TOL is the half-width of the right-angle band."""
    i = _widest(angles)
    widest = angles[i]
    if widest <= _RIGHT_MAX:
        return (RIGHT if abs(widest - _HALF_PI) <= CLASSIFY_TOL else ACUTE), i, None
    kind, margin = _obtuse_kind(math.tan(angles[(i + 1) % 3]), math.tan(angles[(i + 2) % 3]))
    return kind, i, margin


def _check_range(area: float, diam_sq: float) -> None:
    """Reject a shape whose area or squared diameter is zero or over- or
    underflows: the solvers multiply and divide coordinates, so such a
    shape has no usable arithmetic even when its points are finite."""
    if not (_FLOAT_MIN <= abs(area) < math.inf and _FLOAT_MIN <= diam_sq < math.inf):
        raise GeometryError(f"area {area!r} or squared diameter {diam_sq!r} is zero, subnormal or not finite")


def _sum_lr(values) -> float:
    """Float sum strictly left to right.  `sum()` compensates its rounding
    from Python 3.12 on, which would move the trailing digits of outputs
    from one Python version to the next."""
    total = 0.0
    for v in values:
        total += v
    return total


def _dedupe(pts, tol: float):
    """Drop consecutive vertices (cyclically) closer than tol."""
    out = []
    for p in pts:
        if out:
            qx, qy = out[-1]
            if abs(p[0] - qx) <= tol and abs(p[1] - qy) <= tol:
                continue
        out.append(p)
    while len(out) > 1:
        px, py = out[0]
        qx, qy = out[-1]
        if abs(px - qx) <= tol and abs(py - qy) <= tol:
            out.pop()
        else:
            break
    return out


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


class _Value:
    """Base of the validated value types.  `_fields` names the constructor
    arguments; equality, hashing and repr read those alone, so what a value
    derives from them takes no part.  Each `__init__` validates its
    arguments and stores them, normalized where the type says so, together
    with what it derives from them; assignment is refused."""

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Point(_Value):
    """A point in the plane; its coordinates are stored as floats by `_float`."""

    _fields = ("x", "y")

    def __init__(self, x: float, y: float):
        self.__dict__.update(x=_float(x), y=_float(y))

    def as_tuple(self) -> Vec:
        return (self.x, self.y)


class ConvexPolygon(_Value):
    """Convex polygon of positive area with CCW vertices.

    Consecutive near-duplicate vertices are merged at construction.  Input
    given clockwise is reversed.  Empty input, a ring that merges below 3
    vertices, a reflex turn and an area of at most DEGENERACY_REL times
    the squared diameter raise GeometryError.  `coords` holds the
    vertices as (x, y) tuples.  Construction stores the `area` and
    `diameter` (the bounding-box diagonal, an upper bound on the diameter)
    its checks compute, the coordinate scale `_scale`, the clipping band
    `_snap` made from it and the vertex mean `_centroid`, summed left to right.
    """

    _fields = ("coords",)

    def __init__(self, coords: tuple[Vec, ...]):
        try:
            pairs = [(x, y) for x, y in coords]
        except (TypeError, ValueError):  # not a sequence of pairs
            raise GeometryError(f"polygon vertices must be (x, y) points, got {_shown(coords)}") from None
        pts = [(_float(x), _float(y)) for x, y in pairs]
        scale = _coord_scale(pts)
        given = len(pts)
        pts = _dedupe(pts, CLIP_SNAP_REL * scale)
        if len(pts) < 3:
            if 0 < len(pts) == given:
                raise GeometryError("polygon needs at least 3 distinct vertices")
            raise GeometryError("polygon collapses to nothing after deduplication")
        # the orientation from the first vertex, where no large coordinate cancels
        x0, y0 = pts[0]
        if _signed_area([(x - x0, y - y0) for x, y in pts]) < 0.0:
            pts.reverse()
        coords = tuple(pts)
        xs, ys = zip(*coords)
        diam = math.hypot(max(xs) - min(xs), max(ys) - min(ys))
        # a turn is reflex past the rounding of its cross product, about
        # diam * ulp(scale), plus a margin relative to the polygon's own size
        cross_tol = -(1e-9 * diam + 8.0 * math.ulp(scale)) * diam
        n = len(pts)
        for i in range(n):
            ax, ay = pts[i - 1]
            bx, by = pts[i]
            cx, cy = pts[(i + 1) % n]
            cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            if cross < cross_tol:
                raise GeometryError(f"polygon is not convex (cross product {cross:.3e} at vertex {i})")
        area = abs(_signed_area(coords))
        _check_range(area, diam * diam)
        if area <= DEGENERACY_REL * diam * diam:
            raise GeometryError("polygon vertices are collinear")
        if n < given:  # dedupe dropped a vertex, which may have set the scale
            scale = _coord_scale(coords)
        self.__dict__.update(coords=coords, area=area, diameter=diam, _scale=scale, _snap=CLIP_SNAP_REL * scale,
                             _centroid=(_sum_lr(xs) / n, _sum_lr(ys) / n))

    @classmethod
    def from_coords(cls, coords) -> "ConvexPolygon":
        """The same as `ConvexPolygon(coords)`, named like `Triangle.from_coords`."""
        return cls(coords)


class Triangle(_Value):
    """Non-degenerate triangle, normalized to CCW vertex order.
    `swapped_bc` is True when the input was clockwise and b and c were
    swapped.  Construction stores the `points`, as (x, y) tuples in that
    order, the `diameter`, the longest side, that its checks use, and the
    facts every solver reads: the `area`, the `angles`, the
    classification, the fan's ray normals, the centroid, the coordinate
    scale (the largest |coordinate|) and the clipping band made from it."""

    _fields = ("a", "b", "c")

    def __init__(self, a: Point, b: Point, c: Point):
        pts = ((_need(a, Point, "triangle vertex a").x, a.y), (_need(b, Point, "triangle vertex b").x, b.y),
               (_need(c, Point, "triangle vertex c").x, c.y))
        signed = _signed_area(pts)
        swapped = signed < 0.0
        if swapped:
            pts = (pts[0], pts[2], pts[1])
            b, c = c, b
        p, q, r = pts
        diam = max(math.dist(p, q), math.dist(q, r), math.dist(r, p))
        _check_range(signed, diam * diam)
        if abs(signed) < DEGENERACY_REL * diam * diam:
            raise GeometryError(f"degenerate triangle: |signed area| = {abs(signed):.3e}")
        angles = _triangle_angles(pts)
        kind, i, margin = _classify_angles(angles)
        cls = Classification(kind) if margin is None else Classification(kind, VERTEX_IDS[i], margin)
        self.__dict__.update(
            a=a, b=b, c=c, swapped_bc=swapped, points=pts, diameter=diam,
            area=abs(signed),  # swapping b and c negates each shoelace term exactly
            _centroid=((p[0] + q[0] + r[0]) / 3.0, (p[1] + q[1] + r[1]) / 3.0),
            angles=angles,
            _classification=cls,  # where the equal-area point lies
            # the wedges' fan has the outward side normals for rays, so its ray
            # normals are the side unit vectors (see SECTOR_VERTEX_ORDER)
            _normals=(_unit(p, q), _unit(q, r), _unit(r, p)),
            _scale=(scale := _coord_scale(pts)), _snap=CLIP_SNAP_REL * scale,
        )

    @classmethod
    def from_coords(cls, coords) -> "Triangle":
        try:
            (ax, ay), (bx, by), (cx, cy) = coords
        except (TypeError, ValueError):  # not three pairs
            raise GeometryError(f"a triangle takes three (x, y) points, got {_shown(coords)}") from None
        return cls(Point(ax, ay), Point(bx, by), Point(cx, cy))

    def vertex(self, v: str) -> Point:
        return getattr(self, _vertex_id(v))

    def side(self, side: str) -> tuple[Point, Point]:
        """Directed side, e.g. 'ab' is a -> b and 'ba' is b -> a."""
        if not isinstance(side, str) or len(side) != 2 or side[0].lower() == side[1].lower():
            raise GeometryError(f"unknown side id {_shown(side)}")
        return self.vertex(side[0]), self.vertex(side[1])

    def side_unit(self, side: str) -> Vec:
        p, q = self.side(side)
        return _unit((p.x, p.y), (q.x, q.y))

    def signed_distance(self, p: Point) -> float:
        """Distance to the boundary, positive inside, negative outside."""
        return min(self._side_distances(_need(p, Point, "p").x, p.y))

    def _side_distances(self, x: float, y: float) -> tuple[float, float, float]:
        """Signed distances from (x, y) to the lines of sides ab, bc and ca,
        positive inside: each side's unit vector turned +90 degrees points in."""
        (ux, uy), (vx, vy), (wx, wy) = self._normals
        (ax, ay), (bx, by), (cx, cy) = self.points
        return (ux * (y - ay) - uy * (x - ax), vx * (y - by) - vy * (x - bx), wx * (y - cy) - wy * (x - cx))


RegionAreas = namedtuple("RegionAreas", "at_a at_b at_c")  # the three region areas at a point, by vertex


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _foot(x: float, y: float, p: Vec, q: Vec) -> Vec:
    """Orthogonal projection of (x, y) onto the line through p and q."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    den = dx * dx + dy * dy
    if den == 0.0:
        raise GeometryError("cannot project onto a degenerate segment")
    t = ((x - p[0]) * dx + (y - p[1]) * dy) / den
    return (p[0] + t * dx, p[1] + t * dy)


def region_area(tri: Triangle, v: str, x: Point) -> float:
    """Area of the triangle cut by the wedge at x opening toward vertex v.

    Defined and continuous for every x in the plane, not just inside the
    triangle.
    """
    tri, x = _need(tri, Triangle, "tri"), _need(x, Point, "x")
    return _signed_area(_sector_ring(tri.points, tri._normals, _SECTOR_OF[_vertex_id(v)], x.x, x.y, tri._snap))


def region_parts(tri: Triangle, x: Point, rings=()) -> tuple[RegionAreas, tuple[tuple[Vec, ...], ...]]:
    """The three region areas at x, which sum to the triangle area, and the
    three regions as CCW rings of (x, y) points, both in vertex order,
    from one `_sector_ring` per region: the one place a triangle's regions
    are built.  A ring is () if the wedge misses the triangle; consecutive
    vertices closer than 1e-12 * diameter are merged so degenerate slivers
    do not inflate the vertex count.  `rings` may hold the unmerged rings
    of all three regions, at b, c and a, in `_sector_ring`'s bits, as
    Newton gives them at its answer; then nothing is clipped here."""
    tri, x = _need(tri, Triangle, "tri"), _need(x, Point, "x")
    tol = 1e-12 * tri.diameter
    rings = rings or [_sector_ring(tri.points, tri._normals, i, x.x, x.y, tri._snap) for i in range(3)]
    areas, regions = [], []
    for ring in rings:
        areas.append(_signed_area(ring))
        ring = _dedupe(ring, tol)
        regions.append(tuple(ring) if len(ring) >= 3 else ())
    (b, c, a), (rb, rc, ra) = areas, regions
    return RegionAreas(a, b, c), (ra, rb, rc)


def region_areas(tri: Triangle, x: Point) -> RegionAreas:
    """The three region areas at x, as `region_parts` gives them."""
    return region_parts(tri, x)[0]


def region_polygon(tri: Triangle, v: str, x: Point) -> tuple[Vec, ...]:
    """The region at vertex v, as `region_parts` gives it."""
    return dict(zip(VERTEX_IDS, region_parts(tri, x)[1]))[_vertex_id(v)]


def _areas_at(tri: Triangle, xx: float, xy: float) -> tuple[float, float, float]:
    """The region areas at a, b and c for the point (xx, xy), from two
    clips: the region at c is what the other two leave of the triangle."""
    ra = _signed_area(_sector_ring(tri.points, tri._normals, 2, xx, xy, tri._snap))
    rb = _signed_area(_sector_ring(tri.points, tri._normals, 0, xx, xy, tri._snap))
    return ra, rb, tri.area - ra - rb


def min_area_f(tri: Triangle, x: Point) -> float:
    """Minimum of the three region areas at x.  Vanishes at the vertices
    and never exceeds a third of the triangle area."""
    return min(_areas_at(_need(tri, Triangle, "tri"), _need(x, Point, "x").x, x.y))
