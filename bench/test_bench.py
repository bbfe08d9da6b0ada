"""Tests of the benchmark itself:  python3 -m pytest bench

The checker tests feed hand-made answers to check.py only; the package
is imported just by the test that lists the metrics a run emits.
"""

import json
import math
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SVG = '<?xml version="1.0"?>\n<svg><polygon points=""/></svg>\n'


def _take(workload, seed, n):
    gen = workloads.GENERATORS[workload](seed)
    return [next(gen).text for _ in range(n)]


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_same_seed_gives_identical_job_text(workload):
    first = _take(workload, 7, 120)
    assert first == _take(workload, 7, 120)
    assert first != _take(workload, 8, 120)


def test_every_block_holds_the_same_offset_share():
    for workload in ("triangles", "fans"):
        gen = workloads.GENERATORS[workload](3)
        for _ in range(5):
            block = [next(gen).share for _ in range(workloads.BLOCK)]
            assert block.count("offset") == round(workloads.OFFSET_SHARE * workloads.BLOCK)


def _triangle_report(point, kind="acute"):
    return json.dumps({"point": list(point), "classification": {"kind": kind}})


EQUILATERAL = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)]
CENTROID = (0.5, math.sqrt(3.0) / 6.0)


@pytest.mark.parametrize("shift", [0.0, 1e6])
def test_checker_accepts_the_equal_area_point_and_rejects_a_perturbed_one(shift):
    tri = [(x + shift, y + shift) for x, y in EQUILATERAL]
    point = (CENTROID[0] + shift, CENTROID[1] + shift)
    assert check.check_triangle({"triangle": tri}, _triangle_report(point), SVG) is None
    moved = (point[0] + 1e-6, point[1])
    assert "region areas" in check.check_triangle({"triangle": tri}, _triangle_report(moved), SVG)


def test_checker_rejects_a_wrong_triangle_kind_and_a_truncated_svg():
    data = {"triangle": EQUILATERAL}
    assert "kind" in check.check_triangle(data, _triangle_report(CENTROID, "obtuse-interior"), SVG)
    assert "SVG" in check.check_triangle(data, _triangle_report(CENTROID), SVG[:-7])


def test_checker_rejects_a_perturbed_fan_apex():
    hexagon = [(math.cos(k * math.pi / 3.0), math.sin(k * math.pi / 3.0)) for k in range(6)]
    data = {"polygon": hexagon, "rays": [90.0, 210.0, 330.0], "fractions": [1 / 3, 1 / 3, 1 / 3]}
    assert check.check_fan(data, json.dumps({"apex": [0.0, 0.0]})) is None
    assert "sector areas" in check.check_fan(data, json.dumps({"apex": [1e-6, 0.0]}))


# resolution 6: base angles are multiples of 30 degrees
SWEEP_6 = [
    ("30", "30", "obtuse-exterior", "-0.1"),
    ("30", "60", "right", ""),
    ("30", "90", "right", ""),
    ("30", "120", "obtuse-exterior", "-0.1"),
    ("60", "30", "right", ""),
    ("60", "60", "acute", ""),
    ("60", "90", "right", ""),
    ("90", "30", "right", ""),
    ("90", "60", "right", ""),
    ("120", "30", "obtuse-exterior", "-0.1"),
]


def _sweep_csv(rows):
    return "angle_a_deg,angle_b_deg,kind,margin\n" + "".join(",".join(r) + "\n" for r in rows)


def test_checker_rejects_a_wrong_sweep_kind():
    assert check.check_sweep({"resolution": 6}, _sweep_csv(SWEEP_6)) is None
    wrong = list(SWEEP_6)
    wrong[5] = ("60", "60", "right", "")
    assert "the angles say acute" in check.check_sweep({"resolution": 6}, _sweep_csv(wrong))
    assert "rows" in check.check_sweep({"resolution": 6}, _sweep_csv(SWEEP_6[:-1]))


def test_metric_names_match_the_pattern_and_the_declaration(monkeypatch):
    import run

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in declared["end_to_end"]}
    layer = {m["name"] for m in declared["per_layer"]}
    cli = run.import_package()
    monkeypatch.setattr(run, "TRACE_JOBS", {"triangles": 20})
    monkeypatch.setattr(run, "SETUP_SPAWNS", 1)
    _, metrics, _ = run.end_to_end(cli, "triangles", 1, 0.2)
    assert set(metrics) == e2e
    _, metrics, _, identical = run.per_layer(cli, "triangles", 1, 0.01)
    assert identical
    assert set(metrics) == layer
    for name in e2e | layer:
        assert NAME.fullmatch(name), name
