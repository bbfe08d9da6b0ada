"""Golden bytes for the outputs that no Newton iteration touches: the
exterior construction (JSON and SVG), the boundary closed form and the
sweep CSV; SVG figures of two Newton solutions, whose 4 decimals the
trailing-digit drift of a Newton point does not reach; and one fan solve,
whose bytes must not depend on the Python version.  The files under
tests/data were written by the command line and must be reproduced byte
for byte; the larger sweeps, at 400 and at the cap of 1,000, are pinned by
their md5s."""

import hashlib
import json
import math
from pathlib import Path

import pytest

from tripart.cli import main

DATA = Path(__file__).parent / "data"

EXTERIOR_SPEC = '{"mode": "triangle", "triangle": [[0, 0], [1, 0], [0.5, 0.05]]}\n'
BOUNDARY_SPEC = '{"mode": "triangle", "triangle": [[0, 0], [1, 0], [0.5, 0.35355339059327379]]}\n'
NEWTON_SVGS = {
    # shifted away from the origin and given clockwise
    "interior_clockwise.svg": '{"mode": "triangle", "triangle": [[12.5, -3.25], [11.8, -1.9], [13.6, -2.4]]}\n',
    # the header's x offset -1e-9 rounds to -0.0000 and is written 0.0000
    "negative_zero_header.svg": '{"mode": "triangle", "triangle": [[-1e-9, 0], [1, 0], [0.45, 0.8]]}\n',
}
FAN_SPEC = (
    '{"mode": "mass-partition", "polygon": [[1.9, 0.5], [1.8, 0.8], [1.1, 0.6], [1.4, 0.1]],'
    ' "fractions": [0.2, 0.3, 0.5]}\n'
)


def _golden(name: str) -> bytes:
    return (DATA / name).read_bytes()


def _solve(tmp_path, capsys, spec: str, *extra: str) -> bytes:
    path = tmp_path / "spec.json"
    path.write_text(spec)
    assert main(["solve", "--input", str(path), *extra]) == 0
    return capsys.readouterr().out.encode()


def test_exterior_construction_json_and_svg(tmp_path, capsys):
    svg = tmp_path / "figure.svg"
    out = _solve(tmp_path, capsys, EXTERIOR_SPEC, "--svg", str(svg))
    assert b'"method":"exterior-construction"' in out
    assert out == _golden("exterior_solve.json")
    assert svg.read_bytes() == _golden("exterior.svg")


@pytest.mark.parametrize("name", sorted(NEWTON_SVGS))
def test_newton_svg(name, tmp_path, capsys):
    svg = tmp_path / "figure.svg"
    assert b'"method":"newton"' in _solve(tmp_path, capsys, NEWTON_SVGS[name], "--svg", str(svg))
    assert svg.read_bytes() == _golden(name)


def test_boundary_closed_form_json(tmp_path, capsys):
    out = _solve(tmp_path, capsys, BOUNDARY_SPEC)
    assert b'"method":"closed-form"' in out
    assert out == _golden("boundary_solve.json")


def test_fan_solve_json(tmp_path, capsys):
    # Newton starts from the vertex mean.  Its x sum is 6.200000000000001
    # added left to right but 6.2 when rounding is compensated, as sum()
    # does from Python 3.12 on, and the two seeds end in different apexes.
    xs = [x for x, _ in json.loads(FAN_SPEC)["polygon"]]
    assert (xs[0] + xs[1] + xs[2] + xs[3]) != math.fsum(xs)
    out = _solve(tmp_path, capsys, FAN_SPEC)
    assert b'"method":"newton"' in out
    assert out == _golden("fan_solve.json")


def test_sweep_csv(tmp_path):
    csv = tmp_path / "sweep.csv"
    assert main(["sweep", "--resolution", "40", "--output", str(csv)]) == 0
    assert csv.read_bytes() == _golden("sweep_40.csv")


def test_sweep_csv_resolution_400_md5(tmp_path):
    csv = tmp_path / "sweep.csv"
    assert main(["sweep", "--resolution", "400", "--output", str(csv)]) == 0
    assert hashlib.md5(csv.read_bytes()).hexdigest() == "41b0061f59bf116ff5e42daf5c63a286"


def test_sweep_csv_resolution_1000_md5(tmp_path):
    csv = tmp_path / "sweep.csv"
    assert main(["sweep", "--resolution", "1000", "--output", str(csv)]) == 0
    assert hashlib.md5(csv.read_bytes()).hexdigest() == "59052812a7552c891aaadb02ac471b5b"
