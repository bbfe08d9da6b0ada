"""The exit-code contract of the command line, in process: every input
ends in 0 (solved), 2 (invalid input) or 3 (solver failure), never in an
escaped exception.  Inputs at the edges of the float64 range are checked
one by one, then a seeded fuzz of specs covers the rest."""

import json
import math
import random

import pytest

from tripart.cli import EXIT_INPUT, EXIT_OK, EXIT_SOLVER, main
from tripart.problem import InputError, ProblemSpec, parse_spec

EXTREME_SPECS = {
    "triangle-near-1e200": {
        "mode": "triangle",
        "triangle": [[1e200, 1e200], [1.0000000001e200, 1e200], [1e200, 1.0000000001e200]],
    },
    "triangle-sides-1e160": {"mode": "triangle", "triangle": [[0, 0], [1e160, 0], [0, 1e160]]},
    "triangle-near-1e-200": {"mode": "triangle", "triangle": [[0, 0], [1e-200, 0], [0, 1e-200]]},
    "fan-polygon-near-1e200": {
        "mode": "mass-partition",
        "polygon": [
            [1e200, 1e200],
            [1.0000000001e200, 1e200],
            [1.0000000001e200, 1.0000000001e200],
            [1e200, 1.0000000001e200],
        ],
        "fractions": [0.3, 0.3, 0.4],
    },
}


def _main(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("name", sorted(EXTREME_SPECS))
def test_extreme_magnitude_is_degenerate_geometry(name, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(EXTREME_SPECS[name]))
    code, out, err = _main(["solve", "--input", str(path)], capsys)
    assert code == EXIT_INPUT
    assert out == ""
    assert json.loads(err)["error"]["code"] == "degenerate-geometry"


def test_verify_tiny_triangle_is_degenerate_geometry(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(EXTREME_SPECS["triangle-near-1e-200"]))
    code, _, err = _main(["verify", "--input", str(path), "--point", "0,0"], capsys)
    assert code == EXIT_INPUT
    assert json.loads(err)["error"]["code"] == "degenerate-geometry"


@pytest.mark.parametrize("size", [1e-13, 1e-14, 1e-100])
def test_tiny_shapes_solve(size, tmp_path, capsys):
    """The clipping snap band scales with the shape, however small."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"mode": "triangle", "triangle": [[0, 0], [size, 0], [0.5 * size, 0.3 * size]]}))
    code, out, _ = _main(["solve", "--input", str(path)], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["areas"]["fractions"] == pytest.approx([1.0 / 3.0] * 3, abs=1e-12)
    rect = [[0, 0], [2 * size, 0], [2 * size, size], [0, size]]
    path.write_text(json.dumps({"mode": "mass-partition", "polygon": rect, "fractions": [0.2, 0.3, 0.5]}))
    code, out, _ = _main(["solve", "--input", str(path)], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["residual"] <= 1e-12 * 2 * size * size


# An integer literal of 401 digits parses to a Python int that no float
# can hold; one of more than 4,300 digits is past the int conversion limit
# and fails inside the JSON parser.
OVER_RANGE = "1" + "0" * 400
OVER_RANGE_SPECS = {
    "triangle": '{"mode": "triangle", "triangle": [[0, 0], [1, 0], [%s, 1]]}' % OVER_RANGE,
    "polygon": '{"mode": "mass-partition", "polygon": [[0, 0], [1, 0], [1, %s], [0, 1]],'
    ' "fractions": [0.3, 0.3, 0.4]}' % OVER_RANGE,
    "rays": '{"mode": "mass-partition", "polygon": [[0, 0], [1, 0], [0, 1]], "rays": [0, 120, %s],'
    ' "fractions": [0.3, 0.3, 0.4]}' % OVER_RANGE,
    "targets": '{"mode": "mass-partition", "polygon": [[0, 0], [1, 0], [0, 1]], "targets": [%s, 0.2, 0.2]}'
    % OVER_RANGE,
    "fractions": '{"mode": "mass-partition", "polygon": [[0, 0], [1, 0], [0, 1]], "fractions": [0.5, 0.5, %s]}'
    % OVER_RANGE,
    "solver": '{"mode": "triangle", "triangle": [[0, 0], [1, 0], [0, 1]], "solver": {"max_iters": %s}}'
    % OVER_RANGE,
}


@pytest.mark.parametrize("field", sorted(OVER_RANGE_SPECS))
def test_over_range_integer_is_invalid_value(field, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(OVER_RANGE_SPECS[field])
    code, out, err = _main(["solve", "--input", str(path)], capsys)
    assert code == EXIT_INPUT
    assert out == ""
    assert json.loads(err)["error"]["code"] == "invalid-value"


def test_over_range_sweep_resolution_is_invalid_value(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text('{"mode": "sweep", "resolution": %s}' % OVER_RANGE)
    code, _, err = _main(["solve", "--input", str(path)], capsys)
    assert code == EXIT_INPUT
    assert json.loads(err)["error"]["code"] == "invalid-value"


def test_integer_past_the_digit_limit_is_malformed_json(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text('{"mode": "triangle", "triangle": [[0, 0], [1, 0], [%s, 1]]}' % ("1" * 5000))
    code, _, err = _main(["solve", "--input", str(path)], capsys)
    assert code == EXIT_INPUT
    assert json.loads(err)["error"]["code"] == "malformed-json"


# JSON nested past a recursive reader or message printer: the bare text is
# past the JSON parser's own depth limit on Python 3.11, and `rays` parses
# but its message shows it.  Python versions differ in that limit, so the
# text may instead be a parsed value of the wrong type: exit 2 either way.
NESTED_TEXTS = {
    "text 1000 deep": "[" * 1000 + "]" * 1000,
    "rays 600 deep": '{"mode": "mass-partition", "polygon": [[0, 0], [1, 0], [0, 1]], "rays": %s,'
    ' "fractions": [0.3, 0.3, 0.4]}' % ("[" * 600 + "]" * 600),
}


@pytest.mark.parametrize("name", sorted(NESTED_TEXTS))
def test_deeply_nested_input_exits_2(name, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(NESTED_TEXTS[name])
    code, out, err = _main(["solve", "--input", str(path)], capsys)
    assert code == EXIT_INPUT
    assert out == ""
    assert json.loads(err)["error"]["code"] in ("malformed-json", "invalid-value")


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e5, 1e6, 1e8])
def test_dented_polygon_is_invalid_input_wherever_it_sits(offset, tmp_path, capsys):
    o = offset
    dent = [[o, o], [o + 1.0, o], [o + 0.2, o + 0.2], [o, o + 1.0]]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"mode": "mass-partition", "polygon": dent, "fractions": [0.3, 0.3, 0.4]}))
    code, out, err = _main(["solve", "--input", str(path)], capsys)
    assert code == EXIT_INPUT
    assert out == ""
    assert "not convex" in json.loads(err)["error"]["message"]


def test_offset_sliver_is_not_invalid_input(tmp_path, capsys):
    """A valid triangle 1e7 from the origin.  Its solve may fail (exit 3);
    it must not be rejected as invalid input because a region of the
    answer is a zero-area sliver."""
    tri = [
        [9999999.045057021, 9999999.923868023],
        [9999999.074420901, 10000000.831319472],
        [9999999.135555066, 10000000.55361635],
    ]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"mode": "triangle", "triangle": tri}))
    code, out, _ = _main(["solve", "--input", str(path)], capsys)
    assert code in (EXIT_OK, EXIT_SOLVER)
    if code == EXIT_OK:
        report = json.loads(out)
        assert report["residual"] <= 1e-12 * report["areas"]["total"]


# ---------------------------------------------------------------------------
# Seeded fuzz
# ---------------------------------------------------------------------------

FUZZ_SEED = 20061
FUZZ_CASES = 300
JUNK = ("x", None, True, [], {}, [1, 2], {"x": 1}, "1e5", float("nan"), float("inf"), -float("inf"))


def _shape(rng: random.Random, n: int):
    """n points in convex position, scaled by 1e-300..1e300 (half of the
    time by 1e-3..1e3, where most shapes solve) and shifted by up to 1e8."""
    scale = 10.0 ** (rng.uniform(-300.0, 300.0) if rng.random() < 0.5 else rng.uniform(-3.0, 3.0))
    shift = 10.0 ** rng.uniform(0.0, 8.0) if rng.random() < 0.5 else 0.0
    th = rng.uniform(0.0, 2.0 * math.pi)
    ox, oy = shift * math.cos(th), shift * math.sin(th)
    angles = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(n))
    aspect = 10.0 ** rng.uniform(-3.0, 0.0)
    return [[ox + scale * math.cos(a), oy + scale * aspect * math.sin(a)] for a in angles]


def _spoil(rng: random.Random, spec: dict) -> None:
    """Replace one value somewhere in the spec with junk, drop a field or
    add an unknown one."""
    roll = rng.random()
    keys = sorted(spec)
    if roll < 0.2:
        del spec[rng.choice(keys)]
    elif roll < 0.3:
        spec[rng.choice(("bogus", "resolution", "rays", "solver"))] = rng.choice(JUNK + (5,))
    else:
        key = rng.choice(keys)
        value = spec[key]
        if isinstance(value, list) and value:
            i = rng.randrange(len(value))
            if isinstance(value[i], list) and value[i] and rng.random() < 0.7:
                value[i][rng.randrange(len(value[i]))] = rng.choice(JUNK)
            else:
                value[i] = rng.choice(JUNK)
        else:
            spec[key] = rng.choice(JUNK)


def _spec(rng: random.Random) -> dict:
    mode = rng.choice(("triangle", "triangle", "mass-partition", "sweep"))
    if mode == "triangle":
        spec = {"mode": mode, "triangle": _shape(rng, 3)}
    elif mode == "mass-partition":
        spec = {"mode": mode, "polygon": _shape(rng, rng.randint(3, 8))}
        if rng.random() < 0.5:
            spec["rays"] = sorted(rng.uniform(0.0, 360.0) for _ in range(3))
        f = [rng.uniform(1e-3, 1.0) for _ in range(3)]
        spec["fractions"] = [v / sum(f) for v in f]
    else:
        spec = {"mode": mode, "resolution": rng.randint(-2, 50)}
    if mode != "sweep" and rng.random() < 0.2:
        spec["solver"] = {
            rng.choice(("area_tol_rel", "max_iters", "kkm_initial_grid", "bogus")): rng.choice(
                (1e-9, 50, 0, -1.0, 1e-300, 2.5) + JUNK
            )
        }
    return spec


def _text(rng: random.Random, spec: dict) -> str:
    """JSON text of the spec; NaN and Infinity go out as their JavaScript
    literals, which the parser accepts.  Some texts are cut short or
    garbled into malformed JSON."""
    text = json.dumps(spec)
    roll = rng.random()
    if roll < 0.08:
        return text[: rng.randrange(len(text))]
    if roll < 0.12:
        i = rng.randrange(len(text))
        return text[:i] + rng.choice("{}[],:\"x ") + text[i + 1 :]
    return text


def _argv(rng: random.Random, spec: dict, path, tmp_path):
    if spec.get("mode") == "sweep" and rng.random() < 0.5:
        return ["sweep", "--resolution", str(rng.randint(-2, 50)), "--output", str(tmp_path / "sweep.csv")]
    if spec.get("mode") == "triangle" and rng.random() < 0.3:
        px, py = (rng.choice((rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-300, 300), "nan", "1e400")) for _ in "xy")
        return ["verify", "--input", str(path), f"--point={px},{py}"]
    argv = ["solve", "--input", str(path)]
    if rng.random() < 0.5:
        argv += ["--svg", str(tmp_path / "figure.svg")]
    if rng.random() < 0.1:
        argv += ["--tol", rng.choice(("1e-8", "1e-300", "0", "nan"))]
    return argv


def test_cli_fuzz_exit_codes(tmp_path, capsys):
    rng = random.Random(FUZZ_SEED)
    path = tmp_path / "spec.json"
    seen = set()
    for case in range(FUZZ_CASES):
        spec = _spec(rng)
        if rng.random() < 0.5:
            _spoil(rng, spec)
        text = _text(rng, spec)
        path.write_text(text)
        argv = _argv(rng, spec, path, tmp_path)
        try:
            code, out, _ = _main(argv, capsys)
        except Exception as exc:  # the contract allows no escaped exception
            pytest.fail(f"case {case}: {argv[0]} raised {exc!r} on {text}")
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_SOLVER), (case, argv[0], text, code)
        if code == EXIT_OK and argv[0] != "sweep":
            json.loads(out)
        seen.add(code)
    # the fuzz reaches every outcome, not only the input errors
    assert seen == {EXIT_OK, EXIT_INPUT, EXIT_SOLVER}


def test_fuzz_specs_built_in_code_agree_with_parsed_ones():
    """The fuzz's payloads, built in code and parsed from their JSON, give
    equal specs or the same (code, message).  Skipped are the payloads
    that meet a rule only JSON has (a key that names no field, a null
    field, a solver that is no object) and those without a mode, which a
    constructor call cannot leave out."""
    rng = random.Random(FUZZ_SEED)
    compared = 0
    for case in range(FUZZ_CASES):
        spec = _spec(rng)
        if rng.random() < 0.5:
            _spoil(rng, spec)
        solver = spec.get("solver", {})
        if "bogus" in spec or "mode" not in spec or None in spec.values() or not isinstance(solver, dict):
            continue
        text = json.dumps(spec)
        try:
            parsed = parse_spec(text)
        except InputError as exc:
            parsed = (exc.code, str(exc))
        fields = dict(spec)
        if "solver" in spec:
            fields["solver"] = tuple(solver.items())  # the pairs a caller in code passes
        try:
            built = ProblemSpec(**fields)
        except InputError as exc:
            built = (exc.code, str(exc))
        assert built == parsed, (case, text)
        compared += 1
    assert compared >= FUZZ_CASES * 3 // 4
