"""SVG rendering of a solved triangle partition.

World coordinates are y-up; the emitter flips to SVG's y-down frame and
records the mapping in a header comment.  The document is one template
filled by one `%` call: each coordinate, size and line width is a `%.4f`
field and each area label a `%.6g` field.  Output is a pure function of
the report, so equal reports give byte-identical documents.
"""

from __future__ import annotations

import math

from .geometry import OBTUSE_EXTERIOR, _foot, _sum_lr
from .problem import Report

REGION_FILLS = ("#4477aa", "#ee7733", "#228833")
OUTLINE = "#1a1a1a"
GUIDE = "#666666"
CUT = "#aa3377"
FONT = "Helvetica, Arial, sans-serif"
PAD_PX = 30.0
MARKER_PX = 7.0
MIN_SEGMENT_REL = 1e-9  # skip perpendiculars shorter than this x diameter
DASH = ' stroke-dasharray="6 4"'


def emit_svg(report: Report, width: int = 640) -> str:
    """Render a solved triangle report as a standalone SVG document."""
    if report.mode != "triangle" or report.point is None or report.regions is None:
        raise ValueError("SVG rendering needs a triangle report carrying a solution")
    tri = report.spec.shape
    x0, y0 = report.point
    exterior = report.classification.kind == OBTUSE_EXTERIOR
    diam = tri.diameter
    pts = tri.points
    sides = tuple(zip(pts, pts[1:] + pts[:1]))  # ab, bc, ca
    units = tri._normals  # each side's unit vector, in the same order
    feet = [_foot(x0, y0, p, q) for p, q in sides]

    # the exterior construction's cut lines: the perpendiculars through X0
    # to the two sides at the obtuse vertex, that is, to all sides but the
    # longest side k, in the order the construction takes them
    cuts = []
    if exterior:
        reach = 1.6 * diam
        lengths = [math.dist(p, q) for p, q in sides]
        k = lengths.index(max(lengths))
        for ux, uy in (units[k - 1], units[k - 2]):
            cuts.append(((x0 + reach * uy, y0 - reach * ux), (x0 - reach * uy, y0 + reach * ux)))

    # world to screen: uniform scale, y flipped
    xs = [p[0] for p in pts] + [x0] + [f[0] for f in feet]
    ys = [p[1] for p in pts] + [y0] + [f[1] for f in feet]
    min_x, max_y = min(xs), max(ys)
    scale = (width - 2.0 * PAD_PX) / max(max(xs) - min_x, 1e-30)
    w, h = float(width), (max_y - min(ys)) * scale + 2.0 * PAD_PX

    def screen(p) -> tuple[float, float]:
        return (p[0] - min_x) * scale + PAD_PX, (max_y - p[1]) * scale + PAD_PX

    # the document's template lines, and the values of their fields in
    # order; each helper below appends the values of the template it returns
    vals = [min_x, scale, PAD_PX, max_y, scale, PAD_PX, w, h, w, h, w, h]

    def points(coords) -> str:
        for p in coords:
            vals.extend(screen(p))
        return " ".join(["%.4f,%.4f"] * len(coords))

    def line(start, end, stroke: str, width: float, dash: str) -> str:
        vals.extend((*start, *end, width))
        return f'<line x1="%.4f" y1="%.4f" x2="%.4f" y2="%.4f" stroke="{stroke}" stroke-width="%.4f"{dash}/>'

    def text(sx: float, sy: float, label: str, size: int = 13) -> str:
        vals.extend((sx, sy))
        return f'<text x="%.4f" y="%.4f" font-family="{FONT}" font-size="{size}" text-anchor="middle">{label}</text>'

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        "<!-- Coordinate convention: problem data is y-up; screen position is",
        "     X = (x - %.4f) * %.4f + %.4f,",
        "     Y = (%.4f - y) * %.4f + %.4f (y-down). -->",
        '<svg xmlns="http://www.w3.org/2000/svg" width="%.4f" height="%.4f" viewBox="0 0 %.4f %.4f">',
        '<rect width="%.4f" height="%.4f" fill="#ffffff"/>',
    ]

    for coords, fill in zip(report.regions, REGION_FILLS):
        if len(coords) >= 3:
            parts.append(f'<polygon points="{points(coords)}" fill="{fill}" fill-opacity="0.35"/>')

    parts.append(f'<polygon points="{points(pts)}" fill="none" stroke="{OUTLINE}" stroke-width="1.5"/>')

    for p, q in cuts:
        parts.append(line(screen(p), screen(q), CUT, 1.2, ""))

    sx0, sy0 = screen(report.point)
    m = MARKER_PX / scale
    for (fx, fy), (ax, ay) in zip(feet, units):
        gap = math.hypot(x0 - fx, y0 - fy)
        if gap < MIN_SEGMENT_REL * diam:
            continue
        parts.append(line((sx0, sy0), screen((fx, fy)), GUIDE, 1.0, DASH if exterior else ""))
        # right-angle glyph at the foot: along the side, toward X0
        tx, ty = (x0 - fx) / gap, (y0 - fy) / gap
        glyph = ((fx + m * ax, fy + m * ay), (fx + m * (ax + tx), fy + m * (ay + ty)), (fx + m * tx, fy + m * ty))
        parts.append(f'<polyline points="{points(glyph)}" fill="none" stroke="{GUIDE}" stroke-width="1"/>')

    vals += (sx0, sy0)
    parts.append('<circle cx="%.4f" cy="%.4f" r="3" fill="#000000"/>')

    cx, cy = tri._centroid
    # label in the order the vertices were given, not the normalized order
    for vid, vertex in zip("ABC", report.spec.triangle):
        dx, dy = vertex[0] - cx, vertex[1] - cy
        d = math.hypot(dx, dy)
        sx, sy = screen(vertex)
        parts.append(text(sx + 16.0 * dx / d, sy + (-16.0 * dy / d + 4.0), vid))
    parts.append(text(sx0 + 14.0, sy0 - 8.0, "X0"))

    for coords, area in zip(report.regions, report.areas):
        if len(coords) < 3:
            continue
        gx = _sum_lr(p[0] for p in coords) / len(coords)
        gy = _sum_lr(p[1] for p in coords) / len(coords)
        parts.append(text(*screen((gx, gy)), "%.6g", size=11))
        vals.append(area)

    parts.append("</svg>\n")
    # every "-0.0000" is a %.4f field of a value that rounds to zero from
    # below (no %.6g label can hold one); it is written 0.0000
    return ("\n".join(parts) % tuple(vals)).replace("-0.0000", "0.0000")
