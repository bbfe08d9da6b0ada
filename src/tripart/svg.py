"""SVG rendering of a solved triangle partition.

World coordinates are y-up; the emitter flips to SVG's y-down frame and
records the mapping in a header comment.  Output is a pure function of
the report, so equal reports give byte-identical documents.
"""

from __future__ import annotations

import math

from .geometry import SIDE_IDS, Point, foot_of_perpendicular
from .partition import OBTUSE_EXTERIOR
from .problem import Report

REGION_FILLS = ("#4477aa", "#ee7733", "#228833")
OUTLINE = "#1a1a1a"
GUIDE = "#666666"
CUT = "#aa3377"
FONT = "Helvetica, Arial, sans-serif"
PAD_PX = 30.0
MARKER_PX = 7.0
MIN_SEGMENT_REL = 1e-9  # skip perpendiculars shorter than this x diameter


def _fmt(v: float) -> str:
    out = format(v, ".4f")
    return "0.0000" if out == "-0.0000" else out


class _Frame:
    """World-to-screen transform: uniform scale, y flipped."""

    def __init__(self, xs, ys, width):
        self.min_x = min(xs)
        self.max_y = max(ys)
        span_x = max(xs) - self.min_x
        span_y = self.max_y - min(ys)
        self.scale = (width - 2.0 * PAD_PX) / max(span_x, 1e-30)
        self.width = width
        self.height = span_y * self.scale + 2.0 * PAD_PX

    def to_screen(self, p) -> tuple[float, float]:
        x, y = p
        return (
            (x - self.min_x) * self.scale + PAD_PX,
            (self.max_y - y) * self.scale + PAD_PX,
        )

    def pt(self, p) -> str:
        sx, sy = self.to_screen(p)
        return f"{_fmt(sx)},{_fmt(sy)}"


def _polygon_tag(frame: _Frame, coords, fill: str, extra: str = "") -> str:
    pts = " ".join(frame.pt(p) for p in coords)
    return f'<polygon points="{pts}" fill="{fill}"{extra}/>'


def _line_tag(frame: _Frame, p, q, stroke: str, width: float, dashed: bool = False) -> str:
    x1, y1 = frame.to_screen(p)
    x2, y2 = frame.to_screen(q)
    dash = ' stroke-dasharray="6 4"' if dashed else ""
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'stroke="{stroke}" stroke-width="{_fmt(width)}"{dash}/>'
    )


def _text_tag(frame: _Frame, p, label: str, dx: float = 0.0, dy: float = 0.0, size: int = 13) -> str:
    x, y = frame.to_screen(p)
    return (
        f'<text x="{_fmt(x + dx)}" y="{_fmt(y + dy)}" font-family="{FONT}" '
        f'font-size="{size}" text-anchor="middle">{label}</text>'
    )


def _right_angle_marker(frame: _Frame, foot: Point, along, toward) -> str:
    """Small square glyph at a perpendicular foot: `along` the cut line,
    `toward` the dropped segment (both unit, world frame)."""
    m = MARKER_PX / frame.scale
    ax, ay = along
    tx, ty = toward
    p1 = (foot.x + m * ax, foot.y + m * ay)
    p2 = (foot.x + m * (ax + tx), foot.y + m * (ay + ty))
    p3 = (foot.x + m * tx, foot.y + m * ty)
    pts = " ".join(frame.pt(p) for p in (p1, p2, p3))
    return f'<polyline points="{pts}" fill="none" stroke="{GUIDE}" stroke-width="1"/>'


def emit_svg(report: Report, width: int = 640) -> str:
    """Render a solved triangle report as a standalone SVG document."""
    if report.mode != "triangle" or report.point is None or report.regions is None:
        raise ValueError("SVG rendering needs a triangle report carrying a solution")
    tri = report.spec.shape
    x0 = Point(*report.point)
    kind = report.classification.kind
    diam = tri.diameter

    feet = {side: foot_of_perpendicular(x0, tri.side(side)) for side in SIDE_IDS}

    # the exterior construction's cut lines: the perpendiculars through X0
    # to the two sides at the obtuse vertex, that is, to all sides but the
    # longest side k, in the order the construction takes them
    cut_segments = []
    if kind == OBTUSE_EXTERIOR:
        reach = 1.6 * diam
        k = max(range(3), key=lambda j: Point.distance_to(*tri.side(SIDE_IDS[j])))
        for side in (SIDE_IDS[k - 1], SIDE_IDS[k - 2]):
            ux, uy = tri.side_unit(side)
            cut_segments.append(((x0.x + reach * uy, x0.y - reach * ux), (x0.x - reach * uy, x0.y + reach * ux)))

    xs = [p[0] for p in tri.points] + [x0.x] + [f.x for f in feet.values()]
    ys = [p[1] for p in tri.points] + [x0.y] + [f.y for f in feet.values()]
    frame = _Frame(xs, ys, float(width))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        "<!-- Coordinate convention: problem data is y-up; screen position is",
        f"     X = (x - {_fmt(frame.min_x)}) * {_fmt(frame.scale)} + {_fmt(PAD_PX)},",
        f"     Y = ({_fmt(frame.max_y)} - y) * {_fmt(frame.scale)} + {_fmt(PAD_PX)} (y-down). -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(frame.width)}" '
        f'height="{_fmt(frame.height)}" viewBox="0 0 {_fmt(frame.width)} {_fmt(frame.height)}">',
        f'<rect width="{_fmt(frame.width)}" height="{_fmt(frame.height)}" fill="#ffffff"/>',
    ]

    for coords, fill in zip(report.regions, REGION_FILLS):
        if len(coords) >= 3:
            parts.append(_polygon_tag(frame, coords, fill, ' fill-opacity="0.35"'))

    parts.append(_polygon_tag(frame, tri.points, "none", f' stroke="{OUTLINE}" stroke-width="1.5"'))

    for seg in cut_segments:
        parts.append(_line_tag(frame, seg[0], seg[1], CUT, 1.2))

    for side in SIDE_IDS:
        foot = feet[side]
        gap = x0.distance_to(foot)
        if gap < MIN_SEGMENT_REL * diam:
            continue
        dashed = kind == OBTUSE_EXTERIOR
        parts.append(_line_tag(frame, (x0.x, x0.y), (foot.x, foot.y), GUIDE, 1.0, dashed=dashed))
        ux, uy = tri.side_unit(side)
        toward = ((x0.x - foot.x) / gap, (x0.y - foot.y) / gap)
        parts.append(_right_angle_marker(frame, foot, (ux, uy), toward))

    sx, sy = frame.to_screen((x0.x, x0.y))
    parts.append(f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="3" fill="#000000"/>')

    cx, cy = tri.centroid.x, tri.centroid.y
    # label in the order the vertices were given, not the normalized order
    for vid, vertex in zip("ABC", report.spec.triangle):
        dx, dy = vertex[0] - cx, vertex[1] - cy
        h = math.hypot(dx, dy)
        parts.append(_text_tag(frame, (vertex[0], vertex[1]), vid, dx=16.0 * dx / h, dy=-16.0 * dy / h + 4.0))
    parts.append(_text_tag(frame, (x0.x, x0.y), "X0", dx=14.0, dy=-8.0))

    for coords, area in zip(report.regions, report.areas):
        if len(coords) < 3:
            continue
        gx = sum(p[0] for p in coords) / len(coords)
        gy = sum(p[1] for p in coords) / len(coords)
        parts.append(_text_tag(frame, (gx, gy), format(area, ".6g"), size=11))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
