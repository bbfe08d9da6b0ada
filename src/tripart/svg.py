"""SVG rendering of a solved triangle partition.

World coordinates are y-up; the emitter flips to SVG's y-down frame and
records the mapping in a header comment.  The document is one template
filled by one `%` call: each coordinate, size and line width is a `%.4f`
field and each area label a `%.6g` field.  Output is a pure function of
the report, so equal reports give byte-identical documents.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .geometry import OBTUSE_EXTERIOR, VERTEX_IDS, _foot
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

# the document's first lines, and the templates of the others
_HEAD = (
    '<?xml version="1.0" encoding="UTF-8"?>\n<!-- Coordinate convention: problem data is y-up; screen position is\n'
    "     X = (x - %.4f) * %.4f + %.4f,\n     Y = (%.4f - y) * %.4f + %.4f (y-down). -->\n"
    '<svg xmlns="http://www.w3.org/2000/svg" width="%.4f" height="%.4f" viewBox="0 0 %.4f %.4f">\n'
    '<rect width="%.4f" height="%.4f" fill="#ffffff"/>'
)
_LINE = '<line x1="%.4f" y1="%.4f" x2="%.4f" y2="%.4f" stroke="{}" stroke-width="%.4f"{}/>'
_CUT_LINE, _GUIDE_LINE, _DASHED_GUIDE_LINE = _LINE.format(CUT, ""), _LINE.format(GUIDE, ""), _LINE.format(GUIDE, DASH)
_OUTLINE = f'<polygon points="%.4f,%.4f %.4f,%.4f %.4f,%.4f" fill="none" stroke="{OUTLINE}" stroke-width="1.5"/>'
_GLYPH = f'<polyline points="%.4f,%.4f %.4f,%.4f %.4f,%.4f" fill="none" stroke="{GUIDE}" stroke-width="1"/>'
_TEXT = '<text x="%.4f" y="%.4f" font-family="' + FONT + '" font-size="{}" text-anchor="middle">{}</text>'
_DOT_AND_LABELS = ('<circle cx="%.4f" cy="%.4f" r="3" fill="#000000"/>', *(_TEXT.format(13, v) for v in ("A", "B", "C", "X0")))
_AREA_LABEL = _TEXT.format(11, "%.6g")


@lru_cache(maxsize=64)
def _ring_line(n: int, fill: str) -> str:
    """A region's template, built once per point count and fill while in use."""
    return f'<polygon points="{" ".join(["%.4f,%.4f"] * n)}" fill="{fill}" fill-opacity="0.35"/>'


def emit_svg(report: Report, width: int = 640) -> str:
    """Render a solved triangle report as a standalone SVG document."""
    if report.mode != "triangle" or report.point is None or report.regions is None:
        raise ValueError("SVG rendering needs a triangle report carrying a solution")
    tri = report.spec.shape
    x0, y0 = report.point
    exterior = report.classification.kind == OBTUSE_EXTERIOR
    diam = tri.diameter
    pts = tri.points
    units = tri._normals  # the unit vectors of sides ab, bc and ca
    feet = [_foot(x0, y0, p, q) for p, q in zip(pts, pts[1:] + pts[:1])]

    # world to screen, written out below: X = (x - min_x) * scale + PAD_PX, Y = (max_y - y) * scale + PAD_PX
    xs = [p[0] for p in pts] + [x0] + [f[0] for f in feet]
    ys = [p[1] for p in pts] + [y0] + [f[1] for f in feet]
    min_x, max_y = min(xs), max(ys)
    scale = (width - 2.0 * PAD_PX) / max(max(xs) - min_x, 1e-30)
    w, h = float(width), (max_y - min(ys)) * scale + 2.0 * PAD_PX

    # the template's lines, and the values of their fields in order
    parts, vals = [_HEAD], [min_x, scale, PAD_PX, max_y, scale, PAD_PX, w, h, w, h, w, h]
    rings = [(_ring_line(len(ring), fill), ring, area)
             for ring, fill, area in zip(report.regions, REGION_FILLS, report.areas) if len(ring) >= 3]
    for line, ring, _ in rings + [(_OUTLINE, pts, None)]:
        parts.append(line)
        for x, y in ring:
            vals += ((x - min_x) * scale + PAD_PX, (max_y - y) * scale + PAD_PX)

    if exterior:
        # the construction's cut lines: the perpendiculars through X0 to the two
        # sides at the obtuse vertex i, the one from it first, as the construction takes them
        reach = 1.6 * diam
        i = VERTEX_IDS.index(tri._classification.obtuse_vertex)
        for ux, uy in (units[i], units[i - 1]):
            parts.append(_CUT_LINE)
            vals += ((x0 + reach * uy - min_x) * scale + PAD_PX, (max_y - (y0 - reach * ux)) * scale + PAD_PX,
                     (x0 - reach * uy - min_x) * scale + PAD_PX, (max_y - (y0 + reach * ux)) * scale + PAD_PX, 1.2)

    sx0, sy0 = (x0 - min_x) * scale + PAD_PX, (max_y - y0) * scale + PAD_PX
    m = MARKER_PX / scale
    for (fx, fy), (ax, ay) in zip(feet, units):
        gap = math.hypot(x0 - fx, y0 - fy)
        if gap < MIN_SEGMENT_REL * diam:
            continue
        # the perpendicular, and a right-angle glyph at the foot: along the side, toward X0
        tx, ty = (x0 - fx) / gap, (y0 - fy) / gap
        parts += (_DASHED_GUIDE_LINE if exterior else _GUIDE_LINE, _GLYPH)
        vals += (sx0, sy0, (fx - min_x) * scale + PAD_PX, (max_y - fy) * scale + PAD_PX, 1.0)
        for x, y in ((fx + m * ax, fy + m * ay), (fx + m * (ax + tx), fy + m * (ay + ty)), (fx + m * tx, fy + m * ty)):
            vals += ((x - min_x) * scale + PAD_PX, (max_y - y) * scale + PAD_PX)

    parts += _DOT_AND_LABELS
    vals += (sx0, sy0)
    cx, cy = tri._centroid
    for x, y in report.spec.triangle:  # A, B and C as given, not in the normalized order
        dx, dy = x - cx, y - cy
        d = math.hypot(dx, dy)
        vals += ((x - min_x) * scale + PAD_PX + 16.0 * dx / d, (max_y - y) * scale + PAD_PX + (-16.0 * dy / d + 4.0))
    vals += (sx0 + 14.0, sy0 - 8.0)
    for _, ring, area in rings:  # each drawn region's area, at its vertex mean, summed left to right as _sum_lr does
        x = y = 0.0
        for px, py in ring:
            x, y = x + px, y + py
        parts.append(_AREA_LABEL)
        vals += ((x / len(ring) - min_x) * scale + PAD_PX, (max_y - y / len(ring)) * scale + PAD_PX, area)

    parts.append("</svg>\n")
    # every "-0.0000" is a %.4f field of a value that rounds to zero from
    # below (no %.6g label can hold one); it is written 0.0000
    return ("\n".join(parts) % tuple(vals)).replace("-0.0000", "0.0000")
