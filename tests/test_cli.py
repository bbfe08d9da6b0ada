"""End-to-end CLI checks through real subprocesses."""

import json
import subprocess
import sys

import pytest

from tripart.cli import main
from tripart.geometry import ConvexPolygon, Triangle
from tripart.problem import DEFAULT_SWEEP_RESOLUTION, ProblemSpec, run, sweep_csv

TRI_SPEC = '{"mode": "triangle", "triangle": [[0, 0], [1, 0], [0, 1]]}\n'
MASS_SPEC = (
    '{"mode": "mass-partition", "polygon": [[0, 0], [2, 0], [2, 1], [0, 1]],'
    ' "fractions": [0.5, 0.25, 0.25]}\n'
)


def tripart(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "tripart", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=120,
    )


def test_solve_triangle_stdout_and_files(tmp_path):
    spec = tmp_path / "job.json"
    spec.write_text(TRI_SPEC)
    out = tmp_path / "report.json"
    svg = tmp_path / "figure.svg"
    res = tripart("solve", "--input", str(spec), "--output", str(out), "--svg", str(svg))
    assert res.returncode == 0, res.stderr
    assert res.stdout == out.read_text()
    payload = json.loads(res.stdout)
    assert payload["classification"]["kind"] == "right"
    assert payload["areas"]["total"] == 0.5
    assert svg.read_text().startswith("<?xml")
    assert "via newton" in res.stderr


def test_solve_is_byte_deterministic(tmp_path):
    spec = tmp_path / "job.json"
    spec.write_text(MASS_SPEC)
    first = tripart("solve", "--input", str(spec))
    second = tripart("solve", "--input", str(spec))
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_solve_tol_flag(tmp_path):
    spec = tmp_path / "job.json"
    spec.write_text(TRI_SPEC)
    res = tripart("solve", "--input", str(spec), "--tol", "1e-8")
    assert res.returncode == 0
    assert json.loads(res.stdout)["residual"] <= 1e-8 * 0.5


@pytest.mark.parametrize(
    "text, solver",
    [
        (TRI_SPEC, '"solver":{"area_tol_rel":0.001}'),
        (MASS_SPEC.replace("}\n", ', "solver": {"max_iters": 50}}'), '"solver":{"area_tol_rel":0.001,"max_iters":50}'),
    ],
    ids=["triangle", "fan-keeps-max-iters"],
)
def test_solve_tol_is_echoed_and_reproduces_the_run(tmp_path, text, solver):
    spec = tmp_path / "job.json"
    spec.write_text(text)
    res = tripart("solve", "--input", str(spec), "--tol", "1e-3")
    assert res.returncode == 0, res.stderr
    assert solver + "}," in res.stdout  # the last field of the echoed input
    spec.write_text(json.dumps(json.loads(res.stdout)["input"]))
    assert tripart("solve", "--input", str(spec)).stdout == res.stdout


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_solve_rejects_bad_tol(tmp_path, tol):
    spec = tmp_path / "job.json"
    spec.write_text(TRI_SPEC)
    res = tripart("solve", "--input", str(spec), "--tol", tol)
    assert res.returncode == 2
    assert res.stdout == ""
    assert json.loads(res.stderr)["error"]["code"] == "invalid-value"


@pytest.mark.parametrize("tol", [[], ["--tol", "1e-3"]], ids=["no-tol", "tol"])
@pytest.mark.parametrize("text, shape", [(TRI_SPEC, Triangle), (MASS_SPEC, ConvexPolygon)], ids=["triangle", "fan"])
def test_solve_builds_the_shape_once(tmp_path, monkeypatch, capsys, text, shape, tol):
    spec = tmp_path / "job.json"
    spec.write_text(text)
    built = []
    init = shape.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(shape, "__init__", counting)
    assert main(["solve", "--input", str(spec), *tol]) == 0
    assert len(built) == 1
    assert json.loads(capsys.readouterr().out)["residual"] >= 0.0


@pytest.mark.parametrize(
    "text, args, message",
    [
        ('{"mode": "sweep"}', ["--tol", "1e-3"], "sweep specs run with the 'sweep' command"),
        ('{"mode": "sweep"}', ["--tol", "-1"], "sweep specs run with the 'sweep' command"),
        (MASS_SPEC, ["--svg", "x.svg", "--tol", "-1"], "--svg applies only to triangle mode"),
        ('{"mode": "sweep", "resolution": 1}', ["--tol", "-1"], "'resolution' must be from 2 to 1000"),
        (TRI_SPEC.replace("[0, 1]", "[2, 0]"), ["--tol", "-1"], None),  # the degenerate-geometry error
    ],
)
def test_solve_checks_the_spec_then_the_command_then_the_tol(tmp_path, text, args, message):
    spec = tmp_path / "job.json"
    spec.write_text(text)
    svg = tmp_path / "x.svg"
    res = tripart("solve", "--input", str(spec), *[str(svg) if a == "x.svg" else a for a in args])
    assert res.returncode == 2
    error = json.loads(res.stderr)["error"]
    if message is None:
        assert error["code"] == "degenerate-geometry"
    else:
        assert (error["code"], error["message"]) == ("invalid-value", message)
    assert not svg.exists()


def test_solve_rejects_bad_input(tmp_path):
    spec = tmp_path / "job.json"
    spec.write_text('{"mode": "triangle", "triangle": [[0, 0], [1, 0], [2, 0]]}')
    res = tripart("solve", "--input", str(spec))
    assert res.returncode == 2
    assert res.stdout == ""
    err = json.loads(res.stderr)
    assert err["error"]["code"] == "degenerate-geometry"


def test_solve_rejects_sweep_spec(tmp_path):
    spec = tmp_path / "job.json"
    spec.write_text('{"mode": "sweep"}')
    res = tripart("solve", "--input", str(spec))
    assert res.returncode == 2
    assert json.loads(res.stderr)["error"]["code"] == "invalid-value"


def test_solve_missing_file_is_io_error(tmp_path):
    res = tripart("solve", "--input", str(tmp_path / "absent.json"))
    assert res.returncode == 4
    assert "i/o error" in res.stderr


# the report is every SolverReport field but the message, which the error carries
SOLVER_FAILURE_STDERR = (
    '{"error":{"code":"solver-failure","message":"newton iteration did not reach the area tolerance",'
    '"report":{"method":"newton","iterations":1,"residual":0.006944444444444503,'
    '"best_point":[0.41666666666666674,0.41666666666666674],'
    '"residual_history":[0.055555555555555552,0.006944444444444503],"converged":false}}}\n'
)


def test_solve_solver_failure_exit_code(tmp_path):
    spec = tmp_path / "job.json"
    spec.write_text(
        '{"mode": "triangle", "triangle": [[0, 0], [1, 0], [0, 1]],'
        ' "solver": {"max_iters": 1}}'
    )
    res = tripart("solve", "--input", str(spec))
    assert res.returncode == 3
    assert res.stderr == SOLVER_FAILURE_STDERR
    err = json.loads(res.stderr)["error"]
    assert err["code"] == "solver-failure"
    assert err["report"]["method"] == "newton"
    assert err["report"]["converged"] is False
    assert len(err["report"]["best_point"]) == 2


def test_solve_svg_rejected_for_mass_partition(tmp_path):
    spec = tmp_path / "job.json"
    spec.write_text(MASS_SPEC)
    res = tripart("solve", "--input", str(spec), "--svg", str(tmp_path / "x.svg"))
    assert res.returncode == 2


def test_solve_svg_for_mass_partition_writes_nothing(tmp_path):
    spec = tmp_path / "job.json"
    spec.write_text(MASS_SPEC)
    out, svg = tmp_path / "report.json", tmp_path / "x.svg"
    res = tripart("solve", "--input", str(spec), "--output", str(out), "--svg", str(svg))
    assert res.returncode == 2
    assert res.stdout == ""
    assert json.loads(res.stderr)["error"]["code"] == "invalid-value"
    assert not out.exists() and not svg.exists()


@pytest.mark.parametrize("command", [("solve",), ("verify", "--point", "0.3,0.3")])
def test_non_utf8_input_is_malformed_json(tmp_path, command):
    spec = tmp_path / "bad.json"
    spec.write_bytes(b"\xff\xfe{}")
    res = tripart(command[0], "--input", str(spec), *command[1:])
    assert res.returncode == 2
    assert res.stdout == ""
    assert json.loads(res.stderr)["error"]["code"] == "malformed-json"


def test_verify_accepts_true_point(tmp_path):
    spec = tmp_path / "job.json"
    spec.write_text(TRI_SPEC)
    res = tripart("verify", "--input", str(spec), "--point", "0.40824829046386302,0.40824829046386302")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["ok"] is True
    assert payload["location"] == "interior"
    assert payload["region_vertex_counts"] == [4, 4, 4]


def test_verify_flags_wrong_point_but_exits_zero(tmp_path):
    spec = tmp_path / "job.json"
    spec.write_text(TRI_SPEC)
    res = tripart("verify", "--input", str(spec), "--point", "0.25,0.25")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["ok"] is False
    assert payload["max_deviation"] > 0.01


def test_verify_maps_labels_for_clockwise_input(tmp_path):
    ccw = tmp_path / "ccw.json"
    cw = tmp_path / "cw.json"
    ccw.write_text('{"mode": "triangle", "triangle": [[0, 0], [4, 0], [0, 1]]}')
    cw.write_text('{"mode": "triangle", "triangle": [[0, 0], [0, 1], [4, 0]]}')
    pa = json.loads(tripart("verify", "--input", str(ccw), "--point", "1,0.3").stdout)
    pb = json.loads(tripart("verify", "--input", str(cw), "--point", "1,0.3").stdout)
    assert pa["areas"]["at_a"] == pytest.approx(pb["areas"]["at_a"], rel=1e-12)
    assert pa["areas"]["at_b"] == pytest.approx(pb["areas"]["at_c"], rel=1e-12)
    assert pa["areas"]["at_c"] == pytest.approx(pb["areas"]["at_b"], rel=1e-12)


def test_verify_rejects_bad_point_syntax(tmp_path):
    spec = tmp_path / "job.json"
    spec.write_text(TRI_SPEC)
    assert tripart("verify", "--input", str(spec), "--point", "1;2").returncode == 2
    assert tripart("verify", "--input", str(spec), "--point", "1,nope").returncode == 2
    assert tripart("verify", "--input", str(spec), "--point", "1,2", "--tol", "-1").returncode == 2


def test_verify_rejects_infinite_tol(tmp_path):
    spec = tmp_path / "job.json"
    spec.write_text('{"mode": "triangle", "triangle": [[0, 0], [1, 0], [0.5, 0.05]]}')
    res = tripart("verify", "--input", str(spec), "--point=0.48,0.04", "--tol", "inf")
    assert res.returncode == 2
    assert res.stdout == ""
    assert json.loads(res.stderr)["error"]["code"] == "invalid-value"


def test_verify_accepts_point_with_leading_minus(tmp_path):
    spec = tmp_path / "job.json"
    spec.write_text(TRI_SPEC)
    res = tripart("verify", "--input", str(spec), "--point", "-0.5,0.3")
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["point"] == [-0.5, 0.3]
    assert payload["location"] == "exterior"


def test_usage_errors_are_json_input_errors(tmp_path):
    spec = tmp_path / "job.json"
    spec.write_text(TRI_SPEC)
    for args in (
        ("verify", "--input", str(spec)),
        ("verify", "--input", str(spec), "--point", "1,2", "--tol", "abc"),
        ("sweep", "--resolution", "ten", "--output", str(tmp_path / "x.csv")),
        ("explode",),
    ):
        res = tripart(*args)
        assert res.returncode == 2, args
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1, res.stderr
        err = json.loads(lines[0])["error"]
        assert err["code"] == "invalid-value"
        assert err["message"].startswith("usage: tripart")


def test_verify_rejects_non_triangle_spec(tmp_path):
    spec = tmp_path / "job.json"
    spec.write_text(MASS_SPEC)
    res = tripart("verify", "--input", str(spec), "--point", "1,1")
    assert res.returncode == 2


def test_sweep_writes_deterministic_csv(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    r1 = tripart("sweep", "--resolution", "10", "--output", str(out1))
    r2 = tripart("sweep", "--resolution", "10", "--output", str(out2))
    assert r1.returncode == r2.returncode == 0
    text = out1.read_text()
    assert text == out2.read_text()
    lines = text.splitlines()
    assert lines[0] == "angle_a_deg,angle_b_deg,kind,margin"
    assert len(lines) == 1 + 36  # 8 * 9 / 2 interior lattice points
    assert "classified 36 shapes" in r1.stderr


@pytest.mark.parametrize("n", [2, 3, 17, 64, 150])
def test_streamed_sweep_csv_equals_the_library_csv(tmp_path, n):
    out = tmp_path / "s.csv"
    res = tripart("sweep", "--resolution", str(n), "--output", str(out))
    assert res.returncode == 0, res.stderr
    assert out.read_bytes() == sweep_csv(run(ProblemSpec(mode="sweep", resolution=n))).encode()
    assert f"classified {(n - 1) * (n - 2) // 2} shapes" in res.stderr


# Runs `tripart sweep` in this interpreter and prints its own peak RSS in KiB.
_SWEEP_RSS = """
import resource, sys
from tripart.cli import main
code = main(["sweep", "--resolution", sys.argv[1], "--output", sys.argv[2]])
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(code, rss // 1024 if sys.platform == "darwin" else rss)
"""


def test_sweep_peak_memory_does_not_grow_with_resolution(tmp_path):
    pytest.importorskip("resource")
    peaks = {}
    for n in (10, 1000):
        res = subprocess.run(
            [sys.executable, "-c", _SWEEP_RSS, str(n), str(tmp_path / f"{n}.csv")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        code, peaks[n] = map(int, res.stdout.split())
        assert code == 0, res.stderr
    assert abs(peaks[1000] - peaks[10]) <= 2 * 1024, peaks


def test_sweep_resolution_defaults_to_the_problem_default(tmp_path):
    n = DEFAULT_SWEEP_RESOLUTION
    res = tripart("sweep", "--output", str(tmp_path / "x.csv"))
    assert res.returncode == 0
    assert f"classified {(n - 1) * (n - 2) // 2} shapes" in res.stderr
    assert f"(default {n})" in tripart("sweep", "--help").stdout


def test_sweep_rejects_tiny_resolution(tmp_path):
    res = tripart("sweep", "--resolution", "1", "--output", str(tmp_path / "x.csv"))
    assert res.returncode == 2


def test_sweep_rejects_resolution_above_cap(tmp_path):
    out = tmp_path / "x.csv"
    for resolution in ("1001", "1000000"):
        res = tripart("sweep", "--resolution", resolution, "--output", str(out))
        assert res.returncode == 2
        assert json.loads(res.stderr)["error"]["code"] == "invalid-value"
        assert not out.exists()


def test_unknown_subcommand_usage_error():
    res = tripart("explode")
    assert res.returncode == 2
    assert "usage" in res.stderr.lower()
