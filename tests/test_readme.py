"""The README's python examples run as written, in the order and the one
namespace a reader would type them in, and its library section names the
package's exports."""

import re
from pathlib import Path

import tripart
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


def test_readme_lists_exactly_the_exports():
    # each bullet of "The package exports:" names its exports before its first "." or ";"
    text = README.read_text(encoding="utf-8")
    section = text.split("The package exports:\n", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for bullet in re.split(r"^\* ", section, flags=re.M)[1:]:
        label, rest = bullet.split(":", 1)
        listed[label] = re.findall(r"`(\w+)`", re.split(r"[.;]", rest, maxsplit=1)[0])
    assert list(listed) == ["validated values", "results", "solvers and helpers", "errors"]
    names = [name for group in listed.values() for name in group]
    assert len(names) == len(set(names))
    assert set(names) == set(tripart.__all__) - {"__version__"}
