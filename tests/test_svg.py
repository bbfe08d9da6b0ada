"""SVG rendering: well-formedness, determinism and the per-kind extras."""

import json
import math
import xml.etree.ElementTree as ET

import pytest

from tripart.problem import parse_spec, run
from tripart.svg import emit_svg

KIND_SPECS = {
    "acute": '{"mode": "triangle", "triangle": [[0, 0], [1, 0], [0.5, 0.866]]}',
    "right": '{"mode": "triangle", "triangle": [[0, 0], [1, 0], [0, 1]]}',
    "obtuse-interior": '{"mode": "triangle", "triangle": [[0, 0], [1, 0], [0.5, 0.42]]}',
    "obtuse-boundary": '{"mode": "triangle", "triangle": [[0, 0], [1, 0], [0.5, 0.35355339059327379]]}',
    "obtuse-exterior": '{"mode": "triangle", "triangle": [[0, 0], [1, 0], [0.5, 0.05]]}',
}


@pytest.mark.parametrize("kind", sorted(KIND_SPECS))
def test_svg_well_formed_for_every_kind(kind):
    report = run(parse_spec(KIND_SPECS[kind]))
    assert report.classification.kind == kind
    doc = emit_svg(report)
    root = ET.fromstring(doc)
    assert root.tag.endswith("svg")
    ns = {"s": "http://www.w3.org/2000/svg"}
    texts = [t.text for t in root.findall(".//s:text", ns)]
    for label in ("A", "B", "C", "X0"):
        assert label in texts
    # on-side points drop their zero-length perpendicular
    min_lines = 2 if kind == "obtuse-boundary" else 3
    assert len(root.findall(".//s:line", ns)) >= min_lines
    assert root.find(".//s:circle", ns) is not None


def test_svg_deterministic():
    spec = parse_spec(KIND_SPECS["acute"])
    assert emit_svg(run(spec)) == emit_svg(run(spec))


def test_svg_exterior_gets_cut_lines_and_dashes():
    doc = emit_svg(run(parse_spec(KIND_SPECS["obtuse-exterior"])))
    assert 'stroke-dasharray="6 4"' in doc
    assert '#aa3377' in doc
    interior = emit_svg(run(parse_spec(KIND_SPECS["acute"])))
    assert "stroke-dasharray" not in interior
    assert '#aa3377' not in interior


def test_svg_region_fills_present_for_interior_kind():
    doc = emit_svg(run(parse_spec(KIND_SPECS["right"])))
    for fill in ("#4477aa", "#ee7733", "#228833"):
        assert fill in doc


def test_svg_numeric_attributes_are_finite():
    root = ET.fromstring(emit_svg(run(parse_spec(KIND_SPECS["obtuse-exterior"]))))
    ns = {"s": "http://www.w3.org/2000/svg"}
    for line in root.findall(".//s:line", ns):
        for attr in ("x1", "y1", "x2", "y2"):
            float(line.get(attr))
    for poly in root.findall(".//s:polygon", ns) + root.findall(".//s:polyline", ns):
        pts = poly.get("points").replace(",", " ").split()
        assert len(pts) >= 6 and len(pts) % 2 == 0
        for v in pts:
            float(v)


def test_svg_custom_width_scales_viewbox():
    report = run(parse_spec(KIND_SPECS["acute"]))
    doc = emit_svg(report)
    root = ET.fromstring(doc)
    assert root.get("width").startswith("640")


def test_svg_rejects_non_triangle_reports():
    mass = run(
        parse_spec(
            '{"mode": "mass-partition", "polygon": [[0, 0], [1, 0], [1, 1], [0, 1]],'
            ' "fractions": [0.3, 0.3, 0.4]}'
        )
    )
    with pytest.raises(ValueError):
        emit_svg(mass)
    sweep = run(parse_spec('{"mode": "sweep", "resolution": 4}'))
    with pytest.raises(ValueError):
        emit_svg(sweep)


def _cut_lines_and_x0(coords):
    doc = emit_svg(run(parse_spec(json.dumps({"mode": "triangle", "triangle": coords}))))
    root = ET.fromstring(doc)
    ns = {"s": "http://www.w3.org/2000/svg"}
    _, _, width, height = map(float, root.get("viewBox").split())
    circle = root.find(".//s:circle", ns)
    x0 = (float(circle.get("cx")), float(circle.get("cy")))
    cuts = [
        tuple(float(line.get(k)) for k in ("x1", "y1", "x2", "y2"))
        for line in root.findall(".//s:line", ns)
        if line.get("stroke") == "#aa3377"
    ]
    return cuts, x0, width, height


@pytest.mark.parametrize("clockwise", [False, True])
@pytest.mark.parametrize("shift", [(0.0, 0.0), (100.0, 100.0), (-3.0, 2.0)])
def test_svg_exterior_cut_lines_pass_through_x0(shift, clockwise):
    coords = [[x + shift[0], y + shift[1]] for x, y in ([0, 0], [1, 0], [0.5, 0.05])]
    if clockwise:
        coords.reverse()
    cuts, (cx, cy), width, height = _cut_lines_and_x0(coords)
    assert len(cuts) == 2
    assert 0.0 < cx < width and 0.0 < cy < height

    def outside(x, y):
        return not (0.0 <= x <= width and 0.0 <= y <= height)

    for x1, y1, x2, y2 in cuts:
        dx, dy = x2 - x1, y2 - y1
        assert abs(dx * (cy - y1) - dy * (cx - x1)) / math.hypot(dx, dy) <= 1e-3
        # X0 lies between the ends, and both ends are off the canvas
        assert (cx - x1) * dx + (cy - y1) * dy > 0.0
        assert (x2 - cx) * dx + (y2 - cy) * dy > 0.0
        assert outside(x1, y1) and outside(x2, y2)
