"""Equal-area partition of a triangle by perpendiculars through one point.

For any triangle there is exactly one point X0 whose three perpendicular
wedges (see `tripart.geometry`) cut the triangle into equal areas.  X0 sits
inside the triangle when it is acute or right; for an obtuse triangle a
closed-form criterion on the two acute angles decides whether X0 is inside,
on the side opposite the widest angle, or outside entirely.

The classification by that criterion is a fact of the triangle: it is
computed once, from the angles, and kept on the `Triangle` (see
`tripart.geometry`); `classify` reads it, and so does every solver here.
This module locates X0 four ways, one public function each: a damped
Newton iteration on the area system (the wedges are the sectors of the
fan of outward side normals, so this is the fan placement front end that
`tripart.masspart` shares), a maximin pattern search (the minimum region
area peaks exactly at X0), a combinatorial zoom on a fully-labeled grid
cell of the argmin labeling, and, for the outside case, a direct
construction intersecting two area-splitting cut lines.  `equal_partition`
dispatches on the kind to the closed form, the construction or Newton.
The independent routes agree to high accuracy; a caller who wants a
cross-check runs a second one, such as `solve_maximin`, and compares.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .geometry import (  # the kinds, CLASSIFY_TOL and Classification are public here too
    ACUTE,
    CLASSIFY_TOL,
    INTERIOR_KINDS,
    KINDS,
    OBTUSE_BOUNDARY,
    OBTUSE_EXTERIOR,
    OBTUSE_INTERIOR,
    RIGHT,
    VERTEX_IDS,
    Classification,
    Point,
    Triangle,
    Vec,
    _Value,
    _areas_at,
    _clip,
    _coord_scale,
    _edge_terms,
    _real,
    _real_float,
    _sector_jacobian,
    _shown,
    _signed_area,
    _widest,
    region_areas,
    region_parts,
)
from .rootfind import newton2d

MAXIMIN_STEP_FRACTION = 0.25  # initial pattern-search step, fraction of diameter
MAXIMIN_STOP_REL = 1e-12      # stop once step < this fraction of diameter
MAXIMIN_AREA_TOL_REL = 1e-8   # acceptance band on area deviation at the optimum
KKM_EXPAND = 2.0              # cell blow-up factor between zoom levels
KKM_INITIAL_GRID = 64         # grid resolution of the first level
KKM_REFINE_GRID = 8           # grid resolution used after the first level
KKM_TARGET_DIAM_REL = 1e-10   # stop once the cell is below this fraction of diameter
KKM_GRID_RETRIES = 5          # resolution doublings tried before giving up
CUT_CERTIFY_REL = 2e-14       # closed-form cut area decides a bisection step this far from the target, x scale^2 (see cut_line_offset)


class PartitionError(ValueError):
    """A precondition of a solver or construction does not hold."""


class SolverError(RuntimeError):
    """An iterative solver failed to converge; carries its SolverReport."""

    def __init__(self, message: str, report: "SolverReport"):
        super().__init__(message)
        self.report = report


class SolverConfig(_Value):
    """Tunable knobs of the Newton solve; the defaults satisfy the
    acceptance grades."""

    _fields = ("area_tol_rel", "max_iters")

    def __init__(self, area_tol_rel: float = 1e-12, max_iters: int = 100):
        if not 0.0 < (area_tol_rel := _real_float(area_tol_rel)) < math.inf:
            raise PartitionError("area_tol_rel must be a positive finite number")
        if not (_real(max_iters) and 1 <= max_iters < math.inf and int(max_iters) == max_iters):
            raise PartitionError("max_iters must be a positive integer")
        self.__dict__.update(area_tol_rel=area_tol_rel, max_iters=max_iters)


class SolverReport(
    namedtuple(
        "SolverReport", "method iterations residual best_point residual_history converged message", defaults=("",)
    )
):
    """Progress record surfaced with failures and diagnostics."""

    __slots__ = ()


def _failure(method: str, iterations: int, residual: float, best_point: Vec, history, message: str) -> SolverError:
    """The SolverError of a solve that did not converge, with its report."""
    report = SolverReport(method, iterations, residual, best_point, tuple(history), False, message)
    return SolverError(message, report)


PartitionSolution = namedtuple("PartitionSolution", "point areas regions classification method residual")
VerifyReport = namedtuple("VerifyReport", "point areas max_deviation deviation_rel location region_vertex_counts ok")


class LabelSets:
    """The three argmin label sets of the region areas.

    label(x) names the vertex whose region at x has the smallest area;
    exact ties break to the earliest vertex id, so every point gets
    exactly one label and the three sets partition the plane.
    """

    def __init__(self, tri: Triangle):
        self.triangle = tri

    def _label(self, xx: float, xy: float) -> str:
        ra, rb, rc = _areas_at(self.triangle, xx, xy)
        if ra <= rb:
            return "a" if ra <= rc else "c"
        return "b" if rb <= rc else "c"

    def label(self, x: Point) -> str:
        return self._label(x.x, x.y)


def classify(tri: Triangle) -> Classification:
    """Where the equal-area point lies; computed once per triangle, from
    its angles, and kept on it."""
    return tri._classification


def boundary_point_closed_form(tri: Triangle) -> Point:
    """Equal-area point of an obtuse triangle in the boundary case, computed
    in closed form: the point lies on the side opposite the widest angle at
    distance |AB| * sqrt((1 + tan^2 A) tan B / (3 (tan A + tan B))) from A,
    where A and B are the acute vertices.  The formula is evaluated for any
    obtuse triangle; it equals the equal-area point exactly when the
    criterion margin vanishes."""
    angles = tri.angles
    i = _widest(angles)
    if angles[i] <= 0.5 * math.pi:
        raise PartitionError("closed form needs an obtuse widest angle")
    ta = math.tan(angles[(i + 1) % 3])
    tb = math.tan(angles[(i + 2) % 3])
    frac = math.sqrt((1.0 + ta * ta) * tb / (3.0 * (ta + tb)))
    (ax, ay), (bx, by) = tri.points[(i + 1) % 3], tri.points[(i + 2) % 3]
    length = math.hypot(bx - ax, by - ay)
    ux, uy = tri._normals[(i + 1) % 3]  # the unit vector from A to B
    return Point(ax + frac * length * ux, ay + frac * length * uy)


def cut_line_offset(tri: Triangle, side: str, target_area: float) -> float:
    """Offset d of the cut perpendicular to a directed side such that
    area(T intersect {p : u . p <= d}) == target_area, with u the unit
    vector along the side.  The retained piece lies at the first
    endpoint's end of the side.  Found by bisection, so d is accurate to
    floating-point adjacency.

    The bisection runs from the bracket [min u.p, max u.p] over the
    vertices, halving until the midpoint meets an end, and keeps the lower
    half exactly when the clipped piece below the midpoint is smaller than
    the target.  With the projections sorted, p0 <= p1 <= p2, the cut's
    chord grows linearly from p0 to p1 and shrinks to p2, so the piece of a
    triangle of area A is A ((d - p0) / (p1 - p0)) ((d - p0) / (p2 - p0))
    for d <= p1, A - A ((p2 - d) / (p2 - p1)) ((p2 - d) / (p2 - p0)) above.
    This estimate decides a step whose midpoint is more than 2 eps from each
    p_i (eps the clip's snap band) and whose estimate is more than
    CUT_CERTIFY_REL * s^2 from the target (s the coordinate scale); the rest
    clip.  It decides as the clip would, so the path and answer are those of
    clipping at every step: the clip takes u.p - d from the same rounded
    p_i, so both compute the area below d of the affine function with the
    values p_i at the vertices, and off the band no vertex snaps.  With u
    the unit roundoff, |x|, |y| <= s, chords at most 2.83 s and A <= 2 s^2,
    to first order the rounded offsets move each of the two crossings at
    most 2.83 u s off the cut (4 u s^2 of area), the rounding of its
    t = ds / (ds - de) at most 2 u |ds| (8 u s^2), and that of its
    coordinates 5 u s each way (10 u s^2); the shoelace of at most four
    vertices adds 17 u s^2, the estimate's 9 roundings relative to A
    18 u s^2 and A's own shoelace 11 u s^2.  So |clipped - estimate| <=
    K u s^2 with K = 2 (4 + 8 + 10) + 17 + 18 + 11 = 90: CUT_CERTIFY_REL =
    2e-14 is the smallest round value at least 2 K u = 1.998e-14, the factor
    2 covering second order terms and the gap's rounding, and the term
    5e-322 underflow.  In the band a snapped sliver moves the clipped area
    by up to 2.9e-14 s^2, so the clip decides there.  On 2,000 benchmark
    triangles, offsets included, `tools/cut_margin.py` measures off the band
    at most 1.9e-16 s^2, 104 times below the margin, and 16.4 clips in a
    cut's 50.6 steps.  In ratio form the estimate does not over- or
    underflow at any scale a Triangle admits."""
    if not 0.0 < (target := _real_float(target_area)) < tri.area:
        raise PartitionError(f"target_area must lie strictly between 0 and the triangle area, got {_shown(target_area)}")
    return _cut_offset(tri.points, tri.side_unit(side), tri._snap, target)


def _cut_offset(pts, u: Vec, eps: float, target: float) -> float:
    """`cut_line_offset` on the CCW point tuple `pts` with snap band `eps`,
    along the unit vector `u`; the clipped areas depend on the vertex
    order of `pts`."""
    ux, uy = u
    p0, p1, p2 = sorted([ux * px + uy * py for px, py in pts])
    area = _signed_area(pts)
    scale = _coord_scale(pts)
    margin = CUT_CERTIFY_REL * scale * scale + 5e-322
    band = 2.0 * eps  # mid is off the bands [p_i - band, p_i + band] when b0 < mid < b1 or b2 < mid < b3
    b0, b1, b2, b3 = p0 + band, p1 - band, p1 + band, p2 - band
    lo, hi = p0, p2
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if mid <= p1:
            gap = area * ((mid - p0) / (p1 - p0)) * ((mid - p0) / (p2 - p0)) - target
        else:
            gap = area - area * ((p2 - mid) / (p2 - p1)) * ((p2 - mid) / (p2 - p0)) - target
        if -margin <= gap <= margin or not (b0 < mid < b1 or b2 < mid < b3):
            gap = _signed_area(_clip(pts, ux, uy, mid, eps)) - target
        if gap < 0.0:
            lo = mid
        else:
            hi = mid


def _fan_newton(pts, total: float, eps: float, normals, targets, seed: Vec, pad: float, cfg: SolverConfig):
    """Place the apex of a three-ray fan so that its sectors cut the convex
    CCW polygon `pts` (area `total`, snap band `eps`) into the three
    `targets`; the fan is given by its ray normals, as in
    `tripart.geometry`.  Damped Newton on the areas of sectors 0 and 1
    from `seed`, with the exact Jacobian (its edge terms, which do not
    depend on the apex, computed once per solve), reseeding from a grid
    over the bounding box grown by `pad` if the iteration stalls.
    Returns the point's x and y, the iteration count, the areas of
    sectors 0 and 1 at the point and (their rings / 2**e, 2**e): on
    convergence newton2d stops right after evaluating the point it
    returns, so these are its last, clipped in `_sector_area`'s bits.
    Raises SolverError (with the best iterate in its report) when the
    residual cannot be driven below cfg.area_tol_rel * total.

    It iterates in coordinates scaled by k = 2**-e, e the binary exponent
    of the largest coordinate, so the Newton step's products neither
    overflow nor underflow at any scale a shape admits; a power of two
    scales exactly, so results keep the bits of an unscaled run."""
    e = math.frexp(_coord_scale(pts))[1]
    k, k2 = math.ldexp(1.0, -e), math.ldexp(1.0, -2 * e)
    pts = [(x * k, y * k) for x, y in pts]
    t1, t2, t3 = [t * k2 for t in targets]
    total, eps, pad = total * k2, eps * k, pad * k
    (n0x, n0y), (n1x, n1y), (n2x, n2y) = normals
    m0x, m0y, m1x, m1y = -n0x, -n0y, -n1x, -n1y
    last = None

    def fun(x: float, y: float):
        nonlocal last
        r1 = _clip(_clip(pts, n1x, n1y, n1x * x + n1y * y, eps), m0x, m0y, m0x * x + m0y * y, eps)
        r2 = _clip(_clip(pts, n2x, n2y, n2x * x + n2y * y, eps), m1x, m1y, m1x * x + m1y * y, eps)
        a1, a2 = _signed_area(r1), _signed_area(r2)
        last = a1, a2, r1, r2
        g1 = a1 - t1
        g2 = a2 - t2
        return g1, g2, max(abs(g1), abs(g2), abs(total - a1 - a2 - t3))

    edges = _edge_terms(pts, normals)
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    res = newton2d(
        fun,
        (seed[0] * k, seed[1] * k),
        jac=lambda x, y: _sector_jacobian(edges, normals, x, y),
        tol=cfg.area_tol_rel * total,
        max_iters=cfg.max_iters,
        restart_box=(min(xs) - pad, max(xs) + pad, min(ys) - pad, max(ys) + pad),
    )
    if not res.converged:
        raise _failure(
            "newton", res.iterations, res.residual / k2, (res.x / k, res.y / k),
            [r / k2 for r in res.residual_history], "newton iteration did not reach the area tolerance",
        )
    return res.x / k, res.y / k, res.iterations, last[0] / k2, last[1] / k2, (*last[2:], math.ldexp(1.0, e))


def _solution(tri: Triangle, point: Point, method: str, rings=()) -> PartitionSolution:
    areas, regions = region_parts(tri, point, rings)
    s = tri.area / 3.0
    residual = max(abs(areas.at_a - s), abs(areas.at_b - s), abs(areas.at_c - s))
    return PartitionSolution(
        point=point,
        areas=areas,
        regions=regions,
        classification=tri._classification,
        method=method,
        residual=residual,
    )


def solve_newton(tri: Triangle, cfg: SolverConfig | None = None, seed: Point | None = None) -> PartitionSolution:
    """Locate the equal-area point as the apex of the triangle's fan of
    outward side normals that cuts three equal areas (see `_fan_newton`),
    starting from `seed` or the centroid; the regions at b and c are its
    last evaluation's.  Raises SolverError (with the best iterate in its
    report) when the residual cannot be driven below tolerance."""
    start = seed.as_tuple() if seed is not None else tri._centroid
    s = tri.area / 3.0
    cfg = cfg or SolverConfig()
    x, y, *_, (r1, r2, unit) = _fan_newton(tri.points, tri.area, tri._snap, tri._normals, (s, s, s), start, tri.diameter, cfg)
    return _solution(tri, Point(x, y), "newton", [[(px * unit, py * unit) for px, py in r] for r in (r1, r2)])


def solve_maximin(tri: Triangle) -> PartitionSolution:
    """Locate the equal-area point by maximizing the smallest region area
    with a compass pattern search constrained to the closed triangle.

    The minimum region area never exceeds |T| / 3 and attains it only at
    the equal-area point, so the maximizer is the solution whenever the
    point is not outside the triangle; other kinds are rejected."""
    kind = tri._classification.kind
    if kind not in INTERIOR_KINDS:
        raise PartitionError(f"maximin search needs the solution inside the triangle, not {kind}")
    diam = tri.diameter
    edge_tol = 1e-15 * diam

    def f(xx: float, xy: float) -> float:
        return min(_areas_at(tri, xx, xy))

    # the objective is a pointwise min, so its improving cone at a ridge can
    # be narrow; probe 16 directions and a half-spacing rotation of them
    # before conceding a step size
    base = tuple(
        (math.cos(k * math.pi / 8.0), math.sin(k * math.pi / 8.0)) for k in range(16)
    )
    turned = tuple(
        (math.cos((k + 0.5) * math.pi / 8.0), math.sin((k + 0.5) * math.pi / 8.0))
        for k in range(16)
    )
    x, y = tri._centroid
    fx = f(x, y)
    step = MAXIMIN_STEP_FRACTION * diam
    floor = MAXIMIN_STOP_REL * diam
    rounds = 0
    while step >= floor and rounds < 100000:
        rounds += 1
        moved = False
        for dirs in (base, turned):
            bx = by = 0.0
            bf = fx
            for dx, dy in dirs:
                nx, ny = x + step * dx, y + step * dy
                if min(tri._side_distances(nx, ny)) < -edge_tol:
                    continue
                fn = f(nx, ny)
                if fn > bf:
                    bx, by, bf = nx, ny, fn
                    moved = True
            if moved:
                x, y, fx = bx, by, bf
                break
        if not moved:
            step *= 0.5
    point = Point(x, y)
    sol = _solution(tri, point, "maximin")
    if sol.residual > MAXIMIN_AREA_TOL_REL * tri.area:
        raise _failure(
            "maximin", rounds, sol.residual, (x, y), (sol.residual,),
            "pattern search stalled before equalizing the areas",
        )
    return sol


def _fully_labeled_cell(labeler: LabelSets, p1: Vec, p2: Vec, p3: Vec, n: int):
    """First fully-labeled small cell of the barycentric n-grid over the
    triangle (p1, p2, p3), scanning rows deterministically; None if the
    grid has no such cell."""
    e1x, e1y = (p2[0] - p1[0]) / n, (p2[1] - p1[1]) / n
    e2x, e2y = (p3[0] - p1[0]) / n, (p3[1] - p1[1]) / n

    def corner(i: int, j: int) -> Vec:
        return (p1[0] + i * e1x + j * e2x, p1[1] + i * e1y + j * e2y)

    rows = []
    for j in range(n + 1):
        row = []
        for i in range(n + 1 - j):
            x, y = corner(i, j)
            row.append(labeler._label(x, y))
        rows.append(row)
    for j in range(n):
        for i in range(n - j):
            up = {rows[j][i], rows[j][i + 1], rows[j + 1][i]}
            if len(up) == 3:
                return (corner(i, j), corner(i + 1, j), corner(i, j + 1))
            if i + 1 <= n - (j + 1):
                down = {rows[j][i + 1], rows[j + 1][i], rows[j + 1][i + 1]}
                if len(down) == 3:
                    return (corner(i + 1, j), corner(i, j + 1), corner(i + 1, j + 1))
    return None


def solve_kkm(tri: Triangle) -> PartitionSolution:
    """Locate the equal-area point combinatorially: grid the triangle, label
    every node by its argmin region, find a cell carrying all three labels
    (one exists because each side excludes the opposite label), then zoom by
    regridding a blown-up copy of that cell until its diameter is below
    KKM_TARGET_DIAM_REL * diameter.  Restricted to acute and right triangles,
    where the boundary labeling argument applies."""
    kind = tri._classification.kind
    if kind not in (ACUTE, RIGHT):
        raise PartitionError(f"grid labeling zoom needs an acute or right triangle, not {kind}")
    labeler = LabelSets(tri)
    target = KKM_TARGET_DIAM_REL * tri.diameter
    domain = tri.points
    n = KKM_INITIAL_GRID
    history = []
    for _ in range(200):
        cell = None
        nn = n
        for _ in range(KKM_GRID_RETRIES):
            cell = _fully_labeled_cell(labeler, *domain, nn)
            if cell is not None:
                break
            nn *= 2
        # With a labeled cell, zoom in on a blow-up of it.  Without one the
        # domain may have contracted past the point where the three label
        # sets meet (a labeled cell need not contain that point, it only has
        # to sit near it): grow the domain and rescan, giving up only once it
        # has ballooned well past the whole triangle.
        q1, q2, q3 = cell or domain
        cx = (q1[0] + q2[0] + q3[0]) / 3.0
        cy = (q1[1] + q2[1] + q3[1]) / 3.0
        diam = max(math.dist(q1, q2), math.dist(q2, q3), math.dist(q3, q1))
        if cell is None and diam > 8.0 * tri.diameter:
            raise _failure(
                "kkm", len(history), math.inf, (cx, cy), history,
                "no fully-labeled cell at any retry resolution",
            )
        history.append(diam)
        if cell is not None:
            if diam < target:
                return _solution(tri, Point(cx, cy), "kkm")
            n = KKM_REFINE_GRID
        domain = tuple((cx + KKM_EXPAND * (qx - cx), cy + KKM_EXPAND * (qy - cy)) for qx, qy in (q1, q2, q3))
    raise _failure(
        "kkm", len(history), math.inf, (cx, cy), history,
        "zoom failed to contract to the target diameter",
    )


def solve_exterior(tri: Triangle, cfg: SolverConfig | None = None) -> PartitionSolution:
    """Equal-area point of a triangle in the exterior case, by direct
    construction: one cut perpendicular to each of the two long sides
    splits off a third of the area toward the respective acute vertex,
    and the point is the intersection of the two cut lines.  Falls back
    to Newton seeded at the constructed point if the construction's
    residual misses the tolerance.  That serves inputs far from the origin
    until the solves run in a local frame: on the first 3,000 benchmark
    triangles it fires on 220 of 268 offset constructions (152 still
    raise) and on none of 1,157 core ones."""
    cls = tri._classification
    if cls.kind != OBTUSE_EXTERIOR:
        raise PartitionError(f"exterior construction applies only to {OBTUSE_EXTERIOR}, not {cls.kind}")
    cfg = cfg or SolverConfig()
    # bisect on the vertices rotated so the obtuse vertex i comes last: the
    # cuts are perpendicular to the sides from the other two to it, along
    # -_normals[i] and _normals[i - 1] (reversing a side negates its unit
    # vector exactly), and the clipped areas are summed in the vertex order
    # the golden outputs in tests/data were computed in (the unrotated
    # order moves trailing digits of some offsets)
    i = VERTEX_IDS.index(cls.obtuse_vertex)
    pts = tri.points
    rotated = (pts[(i + 1) % 3], pts[(i + 2) % 3], pts[i])
    uax, uay = -tri._normals[i][0], -tri._normals[i][1]
    ubx, uby = tri._normals[i - 1]
    s = tri.area / 3.0
    da = _cut_offset(rotated, (uax, uay), tri._snap, s)
    db = _cut_offset(rotated, (ubx, uby), tri._snap, s)
    det = uax * uby - uay * ubx
    x = (da * uby - uay * db) / det
    y = (uax * db - da * ubx) / det
    sol = _solution(tri, Point(x, y), "exterior-construction")
    if sol.residual > cfg.area_tol_rel * tri.area:
        return solve_newton(tri, cfg, sol.point)
    return sol


def equal_partition(tri: Triangle, cfg: SolverConfig | None = None) -> PartitionSolution:
    """Solve the equal-area partition, dispatching on the classification:
    closed form for the boundary case, cut-line construction for the
    exterior case, Newton otherwise."""
    kind = classify(tri).kind
    if kind == OBTUSE_BOUNDARY:
        return _solution(tri, boundary_point_closed_form(tri), "closed-form")
    if kind == OBTUSE_EXTERIOR:
        return solve_exterior(tri, cfg)
    return solve_newton(tri, cfg)


def verify_partition(tri: Triangle, x: Point, tol: float = 1e-9) -> VerifyReport:
    """Check a claimed equal-area point: deviations of the three region
    areas from |T| / 3, the point's location (tol * diameter boundary
    band), and the region vertex counts.  ok means the worst deviation is
    within tol * |T|; tol must be a positive finite number."""
    if not 0.0 < (tol := _real_float(tol)) < math.inf:
        raise PartitionError("tol must be a positive finite number")
    sol = _solution(tri, x, "verify")  # the residual is the worst deviation
    dev = sol.residual
    sd = tri.signed_distance(x)
    band = tol * tri.diameter
    if sd > band:
        location = "interior"
    elif sd < -band:
        location = "exterior"
    else:
        location = "boundary"
    return VerifyReport(
        point=x,
        areas=sol.areas,
        max_deviation=dev,
        deviation_rel=dev / tri.area,
        location=location,
        region_vertex_counts=tuple(len(r) for r in sol.regions),
        ok=dev <= tol * tri.area,
    )


def lemma_check(tri: Triangle, x: Point) -> bool:
    """For x on the triangle boundary, test the strict inequality that the
    region at the vertex opposite the containing side is larger than the
    smaller of the other two regions.  This is what keeps boundary grid
    nodes from ever taking the opposite label in the grid solver.

    x is on side s (the first of ab, bc, ca) when it is within band =
    1e-12 * diameter of the line of s and no more than band outside any
    side, else PartitionError: as on the clamped segment, except within
    band / sin(angle) of a vertex."""
    band = 1e-12 * tri.diameter
    dists = tri._side_distances(x.x, x.y)
    on = [j for j in range(3) if abs(dists[j]) <= band]
    if not on or min(dists) < -band:
        raise PartitionError("point is not on the triangle boundary")
    j = on[0]
    areas = region_areas(tri, x)  # at a, b and c: side j runs from vertex j to j + 1, opposite j - 1
    return areas[j - 1] > min(areas[j], areas[(j + 1) % 3])
