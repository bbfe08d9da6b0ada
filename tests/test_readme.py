"""The README's python examples run as written, in the order and the one
namespace a reader would type them in."""

import re
from pathlib import Path

from tripart import Point, region_polygon

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_one_namespace():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 3
    ns = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), ns)
    # what the README says of the regions: point rings, the ones region_polygon gives
    tri, point = ns["tri"], ns["check"].point
    rings = (ns["ring_a"], ns["ring_b"], ns["ring_c"])
    assert rings == tuple(region_polygon(tri, v, point) for v in "abc")
    for ring in rings:
        assert type(ring) is tuple and len(ring) == 4
        assert all(type(p) is tuple and len(p) == 2 for p in ring)
    assert region_polygon(tri, "a", Point(*tri.points[0])) == ()
