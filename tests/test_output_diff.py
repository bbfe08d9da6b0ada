"""The job-by-job comparison of `tools/output_diff.py`, on hand-made dump
records."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "output_diff.py"
_spec = importlib.util.spec_from_file_location("output_diff", _PATH)
output_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_diff)

# a right triangle of diameter 5 (its bounding-box diagonal) and area 6
REPORT = (
    '{"mode":"triangle","input":{"mode":"triangle","triangle":[[0,0],[4,0],[0,3]]},'
    '"classification":{"kind":"right","obtuse_vertex":null,"criterion_margin":null},'
    '"method":"newton","point":[1.25,0.75],'
    '"areas":{"at_a":2,"at_b":2,"at_c":2,"fractions":[0.33333333333333331,0.33333333333333331,0.33333333333333331],'
    '"total":6},"residual":0,'
    '"regions":{"at_a":[[0,0],[1.25,0],[1.25,0.75],[0,0.75]],"at_b":[],"at_c":[]}}'
)
SVG = '<svg width="640.0000"><circle cx="30.5000" cy="12.2500"/></svg>'


def _record(index, outputs, status="answer", workload="triangles", share="core"):
    return {"workload": workload, "index": index, "share": share, "status": status, "outputs": list(outputs)}


def test_a_moved_digit_is_a_numeric_move_in_units_of_the_diameter():
    moved = REPORT.replace('"point":[1.25,0.75]', '"point":[1.25,0.75000000000000011]')
    d = output_diff.compare_job(_record(0, (REPORT, SVG)), _record(0, (moved, SVG)))
    assert d.changed and d.status is None and not d.text
    assert d.moves == {"point": pytest.approx((0.75000000000000011 - 0.75) / 5.0)}


def test_a_changed_kind_is_a_text_change():
    acute = REPORT.replace('"kind":"right"', '"kind":"acute"')
    d = output_diff.compare_job(_record(0, (REPORT, SVG)), _record(0, (acute, SVG)))
    assert d.changed and d.status is None and d.text and d.moves == {}


def test_residuals_and_svg_numbers_have_their_own_scales():
    worse = REPORT.replace('"residual":0', '"residual":3e-12')
    shifted = SVG.replace('cx="30.5000"', 'cx="30.7500"')
    d = output_diff.compare_job(_record(0, (REPORT, SVG)), _record(0, (worse, shifted)))
    assert not d.text
    assert d.moves == {"residual": pytest.approx(3e-12 / 6.0), "svg": pytest.approx(0.25)}


def test_diff_tallies_each_share():
    error = "SolverError: newton iteration did not reach the area tolerance"
    moved = REPORT.replace('"at_a":2,', '"at_a":2.0000000000000004,')
    pairs = [
        (_record(0, (REPORT, SVG)), _record(0, (REPORT, SVG))),
        (_record(1, (REPORT, SVG)), _record(1, (moved, SVG))),
        (_record(2, (error,), "error", share="offset"), _record(2, (REPORT, SVG), share="offset")),
    ]
    groups = output_diff.diff(pairs)
    assert [(k, g["jobs"], g["changed"]) for k, g in groups.items()] == [
        (("triangles", "core"), 2, 1),
        (("triangles", "offset"), 1, 1),
    ]
    assert groups[("triangles", "offset")]["status"] == {"error->answer": 1}
    assert output_diff.format_report(groups) == [
        "triangles core: 2 jobs, 1 changed",
        "  areas.at_a: largest move 7.4e-17 area (jobs 1)",
        "triangles offset: 1 jobs, 1 changed",
        "  status error->answer: 1 jobs",
        "all: 3 jobs, 2 changed",
    ]
    with pytest.raises(ValueError, match="differ in their jobs"):
        output_diff.diff([(_record(0, (REPORT,)), _record(1, (REPORT,)))])


def test_main_exits_0_on_equal_dumps_and_1_on_a_change(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text(json.dumps(_record(0, (REPORT, SVG))) + "\n")
    b.write_text(json.dumps(_record(0, (REPORT.replace("newton", "kkm"), SVG))) + "\n")
    assert output_diff.main([str(a), str(a)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "all: 1 jobs, 0 changed"
    assert output_diff.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "triangles core: 1 jobs, 1 changed",
        "  text changed: 1 jobs (first 0)",
        "all: 1 jobs, 1 changed",
    ]
