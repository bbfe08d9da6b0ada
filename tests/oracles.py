"""Independent engines and input generators for the test suite.

Nothing here shares code with the library: the clipper is a vectorized
Sutherland-Hodgman over padded numpy buffers, and the Monte Carlo
estimators avoid clipping entirely (pointwise sign tests only), giving
two independent routes to every area the library computes.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# Vectorized clipping engine
# ---------------------------------------------------------------------------


def pack(poly, count, cap):
    """Tile one CCW polygon into an (count, cap, 2) buffer with counts."""
    pts = np.asarray(poly, dtype=float)
    k = len(pts)
    if cap < k:
        raise ValueError("cap too small")
    V = np.zeros((count, cap, 2))
    V[:, :k] = pts[None, :, :]
    m = np.full(count, k, dtype=np.int64)
    return V, m


def clip(V, m, nx, ny, off):
    """Clip each row's polygon against {p : nx*x + ny*y <= off_row}.

    V: (M, cap, 2), m: (M,), off: scalar or (M,).  Returns the clipped
    buffers and new counts.  Rows keep CCW order.
    """
    M, cap, _ = V.shape
    idx = np.arange(cap)
    valid = idx[None, :] < m[:, None]
    off = np.broadcast_to(np.asarray(off, dtype=float), (M,))
    d = V[:, :, 0] * nx + V[:, :, 1] * ny - off[:, None]
    nxt = (idx[None, :] + 1) % np.maximum(m, 1)[:, None]
    dn = np.take_along_axis(d, nxt, axis=1)
    Vn = np.take_along_axis(V, nxt[:, :, None].repeat(2, axis=2), axis=1)
    keep = valid & (d <= 0.0)
    crossing = valid & ((d <= 0.0) != (dn <= 0.0))
    denom = d - dn
    t = np.where(crossing, d / np.where(denom == 0.0, 1.0, denom), 0.0)
    inter = V + t[:, :, None] * (Vn - V)
    outpts = np.zeros((M, 2 * cap, 2))
    outmask = np.zeros((M, 2 * cap), dtype=bool)
    outpts[:, 0::2] = V
    outpts[:, 1::2] = inter
    outmask[:, 0::2] = keep
    outmask[:, 1::2] = crossing
    order = np.argsort(~outmask, axis=1, kind="stable")
    sorted_pts = np.take_along_axis(outpts, order[:, :, None].repeat(2, axis=2), axis=1)
    counts = outmask.sum(axis=1)
    assert counts.max(initial=0) <= cap, "buffer capacity exceeded"
    return sorted_pts[:, :cap], counts


def areas(V, m):
    """Absolute shoelace area of each row's polygon (0 below 3 vertices)."""
    cap = V.shape[1]
    idx = np.arange(cap)
    valid = idx[None, :] < m[:, None]
    nxt = (idx[None, :] + 1) % np.maximum(m, 1)[:, None]
    xn = np.take_along_axis(V[:, :, 0], nxt, axis=1)
    yn = np.take_along_axis(V[:, :, 1], nxt, axis=1)
    contrib = np.where(valid, V[:, :, 0] * yn - xn * V[:, :, 1], 0.0)
    return np.abs(0.5 * contrib.sum(axis=1)) * (m >= 3)


def ccw(pts):
    """Normalize to CCW.  Triangles keep their first vertex and swap the
    other two (the library's labeling convention); longer polygons are
    reversed."""
    pts = np.asarray(pts, dtype=float)
    x = pts[:, 0]
    y = pts[:, 1]
    if 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) >= 0.0:
        return pts
    if len(pts) == 3:
        return pts[[0, 2, 1]].copy()
    return pts[::-1].copy()


def _wedge_units(tri_pts):
    """Unit side directions (ab, bc, ca) of a CCW triangle."""
    t = ccw(tri_pts)
    out = []
    for i in range(3):
        d = t[(i + 1) % 3] - t[i]
        out.append(d / np.hypot(*d))
    return t, out


def region_areas_np(tri_pts, X):
    """Region areas at many points: (M, 2) -> (M, 3) in vertex order a, b, c."""
    t, (u_ab, u_bc, u_ca) = _wedge_units(tri_pts)
    X = np.asarray(X, dtype=float)
    M = len(X)
    # constraints per region: (n1, n2) with n.(p - x) <= 0
    cons = {
        0: (u_ab, -u_ca),
        1: (u_bc, -u_ab),
        2: (u_ca, -u_bc),
    }
    out = np.empty((M, 3))
    for k in range(3):
        n1, n2 = cons[k]
        V, m = pack(t, M, cap=8)
        V, m = clip(V, m, n1[0], n1[1], X @ n1)
        V, m = clip(V, m, n2[0], n2[1], X @ n2)
        out[:, k] = areas(V, m)
    return out


def sector_areas_np(poly_pts, dirs, apexes):
    """Fan sector areas at many apex positions: (M, 2) -> (M, 3)."""
    poly = ccw(poly_pts)
    dirs = [np.asarray(d, dtype=float) / np.hypot(*d) for d in dirs]
    A = np.asarray(apexes, dtype=float)
    M = len(A)
    cap = len(poly) + 4
    out = np.empty((M, 3))
    for i in range(3):
        d1 = dirs[i]
        d2 = dirs[(i + 1) % 3]
        n1 = np.array([d1[1], -d1[0]])
        n2 = np.array([-d2[1], d2[0]])
        V, m = pack(poly, M, cap=cap)
        V, m = clip(V, m, n1[0], n1[1], A @ n1)
        V, m = clip(V, m, n2[0], n2[1], A @ n2)
        out[:, i] = areas(V, m)
    return out


def residual_grid(tri_pts, n=400, expand=None):
    """Max area deviation from |T|/3 on an n x n grid over the bounding box
    expanded by `expand` (default: one diameter).  Returns xs, ys, R."""
    t = ccw(tri_pts)
    diam = max(np.hypot(*(t[i] - t[(i + 1) % 3])) for i in range(3))
    if expand is None:
        expand = diam
    lo = t.min(axis=0) - expand
    hi = t.max(axis=0) + expand
    xs = np.linspace(lo[0], hi[0], n)
    ys = np.linspace(lo[1], hi[1], n)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    X = np.column_stack([gx.ravel(), gy.ravel()])
    target = areas(*pack(t, 1, 4))[0] / 3.0
    R = np.abs(region_areas_np(t, X) - target).max(axis=1)
    return xs, ys, R.reshape(n, n)


# ---------------------------------------------------------------------------
# Monte Carlo estimators (no clipping at all)
# ---------------------------------------------------------------------------


def mc_region_areas(tri_pts, x, n=10**7, seed=0):
    """Monte Carlo region areas via pointwise sign tests, chunked."""
    t, (u_ab, u_bc, u_ca) = _wedge_units(tri_pts)
    x = np.asarray(x, dtype=float)
    lo = t.min(axis=0)
    hi = t.max(axis=0)
    box = float(np.prod(hi - lo))
    rng = np.random.default_rng(seed)
    counts = np.zeros(3, dtype=np.int64)
    done = 0
    while done < n:
        chunk = min(2_000_000, n - done)
        P = rng.uniform(lo, hi, (chunk, 2))
        inside = np.ones(chunk, dtype=bool)
        for i in range(3):
            e = t[(i + 1) % 3] - t[i]
            w = P - t[i]
            inside &= e[0] * w[:, 1] - e[1] * w[:, 0] >= 0.0
        w = P - x
        s_ab = w @ u_ab
        s_bc = w @ u_bc
        s_ca = w @ u_ca
        counts[0] += np.count_nonzero(inside & (s_ab <= 0.0) & (s_ca >= 0.0))
        counts[1] += np.count_nonzero(inside & (s_bc <= 0.0) & (s_ab >= 0.0))
        counts[2] += np.count_nonzero(inside & (s_ca <= 0.0) & (s_bc >= 0.0))
        done += chunk
    return counts / n * box


def mc_sector_areas(poly_pts, dirs, apex, n=10**7, seed=0):
    """Monte Carlo fan sector areas via pointwise sign tests."""
    poly = ccw(poly_pts)
    dirs = [np.asarray(d, dtype=float) / np.hypot(*d) for d in dirs]
    apex = np.asarray(apex, dtype=float)
    lo = poly.min(axis=0)
    hi = poly.max(axis=0)
    box = float(np.prod(hi - lo))
    rng = np.random.default_rng(seed)
    counts = np.zeros(3, dtype=np.int64)
    k = len(poly)
    done = 0
    while done < n:
        chunk = min(2_000_000, n - done)
        P = rng.uniform(lo, hi, (chunk, 2))
        inside = np.ones(chunk, dtype=bool)
        for i in range(k):
            e = poly[(i + 1) % k] - poly[i]
            w = P - poly[i]
            inside &= e[0] * w[:, 1] - e[1] * w[:, 0] >= 0.0
        w = P - apex
        cr = [w[:, 1] * d[0] - w[:, 0] * d[1] for d in dirs]  # cross(d, w)
        for i in range(3):
            counts[i] += np.count_nonzero(inside & (cr[i] >= 0.0) & (cr[(i + 1) % 3] <= 0.0))
        done += chunk
    return counts / n * box


# ---------------------------------------------------------------------------
# Seeded input generators
# ---------------------------------------------------------------------------


def tri_angles(pts):
    pts = np.asarray(pts, dtype=float)
    out = []
    for i in range(3):
        u = pts[(i + 1) % 3] - pts[i]
        w = pts[(i + 2) % 3] - pts[i]
        out.append(math.atan2(abs(u[0] * w[1] - u[1] * w[0]), float(u @ w)))
    return out


def transform(rng, pts, reflect=False):
    """Random similarity: rotate, scale in [0.4, 2.5], translate in [-3, 3]."""
    th = rng.uniform(0.0, 2.0 * math.pi)
    s = rng.uniform(0.4, 2.5)
    R = s * np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    if reflect:
        R = R @ np.array([[1.0, 0.0], [0.0, -1.0]])
    t = rng.uniform(-3.0, 3.0, 2)
    return np.asarray(pts, dtype=float) @ R.T + t


def rand_triangle(rng, floor=1e-3):
    """Uniform random triangle, rejecting area below floor * diameter^2."""
    while True:
        pts = rng.uniform(-1.0, 1.0, (3, 2))
        diam = max(np.hypot(*(pts[i] - pts[(i + 1) % 3])) for i in range(3))
        u = pts[1] - pts[0]
        w = pts[2] - pts[0]
        area = 0.5 * abs(u[0] * w[1] - u[1] * w[0])
        if area >= floor * diam * diam:
            return pts


def rand_acute(rng, guard=1e-3):
    while True:
        pts = rand_triangle(rng)
        if max(tri_angles(pts)) < 0.5 * math.pi - guard:
            return pts


def rand_right(rng):
    a = rng.uniform(0.3, 1.5)
    b = rng.uniform(0.3, 1.5)
    return transform(rng, [(0.0, 0.0), (a, 0.0), (0.0, b)])


def boundary_triangle(rng):
    """Isoceles triangle whose equal-area point sits exactly on the base
    (apex half-angle with tan = 1/sqrt(2)), randomly placed."""
    base = [(0.0, 0.0), (1.0, 0.0), (0.5, 0.5 / math.sqrt(2.0))]
    return transform(rng, base, reflect=bool(rng.integers(0, 2)))


def rand_obtuse_of_kind(rng, want, tol=1e-6):
    """Random obtuse triangle whose criterion margin is beyond tol on the
    requested side ('interior' or 'exterior')."""
    while True:
        pts = rand_triangle(rng)
        ang = tri_angles(pts)
        if max(ang) <= 0.5 * math.pi + 1e-9:
            continue
        a, b = sorted(ang)[:2]
        ta, tb = math.tan(a), math.tan(b)
        margin = math.sqrt((1 + ta * ta) * tb) + math.sqrt((1 + tb * tb) * ta) - math.sqrt(3 * (ta + tb))
        if want == "interior" and margin > tol:
            return pts
        if want == "exterior" and margin < -tol:
            return pts


def kind_suite(rng, n=500):
    """n triangles: uniform random plus manufactured right and boundary
    members so every classification kind is represented."""
    out = [rand_triangle(rng) for _ in range(n - 20)]
    out.extend(rand_right(rng) for _ in range(10))
    out.extend(boundary_triangle(rng) for _ in range(10))
    return out


def rand_convex_polygon(rng, lo=8, hi=32):
    """Random convex polygon with a vertex count in [lo, hi] (hull of ring
    points with jittered radii)."""
    from scipy.spatial import ConvexHull

    while True:
        k = int(rng.integers(lo, hi + 9))
        th = np.sort(rng.uniform(0.0, 2.0 * math.pi, k))
        r = rng.uniform(0.85, 1.15, k)
        pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
        hull = ConvexHull(pts)
        verts = pts[hull.vertices]
        if lo <= len(verts) <= hi:
            return transform(rng, verts)


def rand_fan_angles_deg(rng):
    """Three CCW ray angles in degrees with every gap in (0.1, pi - 0.1)."""
    while True:
        gaps = rng.dirichlet((1.0, 1.0, 1.0)) * 2.0 * math.pi
        if gaps.min() > 0.1 and gaps.max() < math.pi - 0.1:
            break
    start = rng.uniform(0.0, 2.0 * math.pi)
    a = start + np.concatenate([[0.0], np.cumsum(gaps[:2])])
    return tuple(math.degrees(v % (2.0 * math.pi)) for v in a)


def rand_fractions(rng, floor=0.05):
    while True:
        f = rng.dirichlet((1.0, 1.0, 1.0))
        if f.min() >= floor:
            return tuple(f)


def squash(rng, pts, aspect):
    """Scale a polygon by `aspect` across a random direction through its
    vertex mean (an affine map, so convexity is kept)."""
    th = rng.uniform(0.0, 2.0 * math.pi)
    u = np.array([math.cos(th), math.sin(th)])
    pts = np.asarray(pts, dtype=float)
    d = pts - pts.mean(axis=0)
    return pts + (aspect - 1.0) * np.outer(d @ u, u)


def unit_scale(pts):
    """Center a polygon on its vertex mean and scale its bounding box
    diagonal to 1."""
    pts = np.asarray(pts, dtype=float)
    pts = pts - pts.mean(axis=0)
    return pts / np.hypot(*np.ptp(pts, axis=0))


def tiny_fractions(rng, small):
    """Three fractions summing to 1, one of them `small`, in random order."""
    split = rng.uniform(0.2, 0.8)
    f = [small, (1.0 - small) * split]
    f.append(1.0 - f[0] - f[1])
    rng.shuffle(f)
    return tuple(f)
