"""Independent answer checks, standard library only and sharing no code
with `tripart`.

Areas are recomputed from the returned point or apex with this module's
own half-plane clipper, in a frame centred on the first input vertex.
Differences of nearby floats are exact, so the frame change adds no
error and the check sees the answer exactly as returned.

The bar is acceptance 1 and 9: every area within 1e-10 * |area| of its
target.  It is widened only by what rounding the true answer to float64
can cost: each coordinate of a returned point may be off by half an ulp,
and an area moves by at most 2 * diameter per unit of point motion (two
cut chords, each no longer than the diameter), so a perfect solver is
never rejected far from the origin.
"""

from __future__ import annotations

import csv
import io
import json
import math

REL_TOL = 1e-10
KIND_BAND = 1e-9


def _clip(pts, nx, ny, off):
    """Part of a convex polygon with n . p <= off."""
    out = []
    n = len(pts)
    for i in range(n):
        px, py = pts[i - 1]
        qx, qy = pts[i]
        dp = nx * px + ny * py - off
        dq = nx * qx + ny * qy - off
        if dq <= 0.0:
            if dp > 0.0:
                t = dp / (dp - dq)
                out.append((px + t * (qx - px), py + t * (qy - py)))
            out.append((qx, qy))
        elif dp <= 0.0:
            t = dp / (dp - dq)
            out.append((px + t * (qx - px), py + t * (qy - py)))
    return out


def _area(pts) -> float:
    s = 0.0
    for i in range(len(pts)):
        x0, y0 = pts[i - 1]
        x1, y1 = pts[i]
        s += x0 * y1 - x1 * y0
    return 0.5 * s


def _ccw_local(pts, origin):
    ox, oy = origin
    loc = [(x - ox, y - oy) for x, y in pts]
    return loc if _area(loc) > 0.0 else loc[::-1]


def _diameter(pts) -> float:
    return max(math.dist(p, q) for p in pts for q in pts)


def _rounding_floor(diam: float, coords) -> float:
    big = max(max(abs(x), abs(y)) for x, y in coords)
    return 4.0 * diam * math.ulp(big)


def triangle_region_areas(tri, point):
    """Areas of the three regions cut by the perpendiculars from `point`
    to the sides: the region at vertex V is the part of the triangle on
    V's side of both lines through the point perpendicular to the sides
    at V, i.e. {p : (p - X) . (W - V) <= 0 for both other vertices W}."""
    origin = tri[0]
    loc = [(x - origin[0], y - origin[1]) for x, y in tri]
    poly = _ccw_local(tri, origin)
    px, py = point[0] - origin[0], point[1] - origin[1]
    out = []
    for i in range(3):
        vx, vy = loc[i]
        piece = poly
        for j in range(3):
            if j != i:
                nx, ny = loc[j][0] - vx, loc[j][1] - vy
                piece = _clip(piece, nx, ny, nx * px + ny * py)
        out.append(_area(piece) if len(piece) >= 3 else 0.0)
    return out


def fan_sector_areas(poly, rays_deg, apex):
    """Areas of the polygon parts in the three sectors of a fan at `apex`;
    sector i runs counter-clockwise from ray i to ray i + 1."""
    origin = poly[0]
    loc = _ccw_local(poly, origin)
    ax, ay = apex[0] - origin[0], apex[1] - origin[1]
    dirs = [(math.cos(math.radians(a)), math.sin(math.radians(a))) for a in rays_deg]
    out = []
    for i in range(3):
        d1x, d1y = dirs[i]
        d2x, d2y = dirs[(i + 1) % 3]
        # left of ray i: cross(d1, p - a) >= 0, i.e. (d1y, -d1x) . p <= ...
        piece = _clip(loc, d1y, -d1x, d1y * ax - d1x * ay)
        # right of ray i + 1: cross(d2, p - a) <= 0
        piece = _clip(piece, -d2y, d2x, -d2y * ax + d2x * ay)
        out.append(_area(piece) if len(piece) >= 3 else 0.0)
    return out


def _base_angles_kind(angles):
    """Expected classification from three interior angles (radians), or
    None when a decision value lies at the edge of the 1e-9 band, where
    rounding may legitimately go either way."""
    widest = max(angles)
    d = widest - 0.5 * math.pi
    if abs(abs(d) - KIND_BAND) < 0.5 * KIND_BAND:
        return None
    if abs(d) < KIND_BAND:
        return "right", None
    if d < 0.0:
        return "acute", None
    a, b = sorted(angles)[:2]
    ta, tb = math.tan(a), math.tan(b)
    margin = math.sqrt(tb) / math.cos(a) + math.sqrt(ta) / math.cos(b) - math.sqrt(3.0 * (ta + tb))
    if abs(abs(margin) - KIND_BAND) < 0.5 * KIND_BAND:
        return None
    if abs(margin) < KIND_BAND:
        return "obtuse-boundary", margin
    return ("obtuse-interior" if margin > 0.0 else "obtuse-exterior"), margin


def _triangle_angles(tri):
    out = []
    for i in range(3):
        p, q, r = tri[i], tri[(i + 1) % 3], tri[(i + 2) % 3]
        ux, uy = q[0] - p[0], q[1] - p[1]
        wx, wy = r[0] - p[0], r[1] - p[1]
        out.append(math.atan2(abs(ux * wy - uy * wx), ux * wx + uy * wy))
    return out


def check_triangle(data, report_text: str, svg_text: str) -> str | None:
    """None if the triangle answer passes, else the reason it fails."""
    tri = [tuple(p) for p in data["triangle"]]
    rep = json.loads(report_text)
    point = rep["point"]
    areas = triangle_region_areas(tri, point)
    total = abs(_area(_ccw_local(tri, tri[0])))
    tol = REL_TOL * total + _rounding_floor(_diameter(tri), tri + [tuple(point)])
    dev = max(abs(a - total / 3.0) for a in areas)
    if not dev <= tol:
        return f"region areas off by {dev / total:.3e}*|T|"
    expected = _base_angles_kind(_triangle_angles(tri))
    if expected is not None and rep["classification"]["kind"] != expected[0]:
        return f"kind {rep['classification']['kind']} but the angles say {expected[0]}"
    if not (svg_text.startswith("<?xml") and svg_text.endswith("</svg>\n") and "<polygon" in svg_text):
        return "SVG document is incomplete"
    return None


def check_fan(data, report_text: str) -> str | None:
    """None if the fan placement passes, else the reason it fails."""
    poly = [tuple(p) for p in data["polygon"]]
    rep = json.loads(report_text)
    apex = rep["apex"]
    areas = fan_sector_areas(poly, data["rays"], apex)
    total = abs(_area(_ccw_local(poly, poly[0])))
    tol = REL_TOL * total + _rounding_floor(_diameter(poly), poly + [tuple(apex)])
    dev = max(abs(a - f * total) for a, f in zip(areas, data["fractions"]))
    if not dev <= tol:
        return f"sector areas off by {dev / total:.3e}*|P|"
    return None


def check_sweep(data, csv_text: str) -> str | None:
    """None if every sweep row has the grid angles and the kind the
    angles imply, else the reason it fails."""
    n = data["resolution"]
    rows = list(csv.reader(io.StringIO(csv_text)))
    if rows[0] != ["angle_a_deg", "angle_b_deg", "kind", "margin"]:
        return "CSV header is wrong"
    body = rows[1:]
    if len(body) != (n - 1) * (n - 2) // 2:
        return f"{len(body)} rows for resolution {n}"
    k = 0
    for i in range(1, n):
        for j in range(1, n - i):
            a_deg, b_deg, kind, margin = body[k]
            k += 1
            a, b = 180.0 * i / n, 180.0 * j / n
            if float(a_deg) != a or float(b_deg) != b:
                return f"row {k} has angles {a_deg},{b_deg}, expected {a!r},{b!r}"
            ra, rb = math.radians(a), math.radians(b)
            expected = _base_angles_kind([ra, rb, math.pi - ra - rb])
            if expected is None:
                continue
            if kind != expected[0]:
                return f"row {k} ({a_deg},{b_deg}) is {kind}, the angles say {expected[0]}"
            if (margin == "") != (expected[1] is None):
                return f"row {k} ({a_deg},{b_deg}) has margin {margin!r}"
    return None
