"""Spec parsing, run orchestration and the byte-stable serializers."""

import json
import math

import numpy as np
import oracles as oc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripart import problem
from tripart.geometry import ConvexPolygon, GeometryError, Triangle
from tripart.masspart import MassPartitionError, SectorConfig, solve_translation
from tripart.partition import SolverConfig, classify
from tripart.problem import (
    DEFAULT_RAYS_DEG,
    DEFAULT_SWEEP_RESOLUTION,
    MAX_SWEEP_RESOLUTION,
    MODES,
    InputError,
    ProblemSpec,
    SweepRow,
    _fill,
    _FLOAT,
    _fmt_num,
    _sweep_lines,
    canonical_json,
    parse_spec,
    report_json,
    run,
    serialize_spec,
    sweep_csv,
    sweep_rows,
    triangle_from_angles,
)
from tripart.svg import emit_svg

TRI_SPEC = '{"mode": "triangle", "triangle": [[0, 0], [1, 0], [0, 1]]}'
MASS_SPEC = (
    '{"mode": "mass-partition", "polygon": [[0, 0], [1, 0], [1, 1], [0, 1]],'
    ' "fractions": [0.25, 0.35, 0.4]}'
)


def code_of(text: str) -> str:
    with pytest.raises(InputError) as err:
        parse_spec(text)
    return err.value.code


def test_parse_triangle_spec():
    spec = parse_spec(TRI_SPEC)
    assert spec.mode == "triangle"
    assert spec.triangle == ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    assert spec.solver == ()


def test_parse_fills_defaults():
    spec = parse_spec(MASS_SPEC)
    assert spec.rays == DEFAULT_RAYS_DEG
    assert spec.targets is None
    spec = parse_spec('{"mode": "sweep"}')
    assert spec.resolution == 100


def test_parse_solver_options():
    spec = parse_spec(
        '{"mode": "triangle", "triangle": [[0, 0], [1, 0], [0, 1]],'
        ' "solver": {"max_iters": 50, "area_tol_rel": 1e-10}}'
    )
    assert dict(spec.solver) == {"max_iters": 50.0, "area_tol_rel": 1e-10}


def test_serialize_round_trips():
    for text in (
        TRI_SPEC,
        MASS_SPEC,
        '{"mode": "mass-partition", "polygon": [[0, 0], [2, 0], [1, 2]],'
        ' "rays": [10, 100, 250], "targets": [1.0, 0.5, 0.5]}',
        '{"mode": "sweep", "resolution": 25}',
        '{"mode": "triangle", "triangle": [[0, 0], [1, 0], [0.3, 0.8]],'
        ' "solver": {"max_iters": 32}}',
    ):
        spec = parse_spec(text)
        assert parse_spec(serialize_spec(spec)) == spec


SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
DIRECT_SPECS = {
    "sweep": lambda: ProblemSpec(mode="sweep"),
    "fan-without-rays": lambda: ProblemSpec(mode="mass-partition", polygon=SQUARE, fractions=(0.25, 0.35, 0.4)),
    "triangle-with-solver": lambda: ProblemSpec(
        mode="triangle",
        triangle=((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)),
        solver=(("max_iters", 50.0), ("area_tol_rel", 1e-10)),
    ),
}


@pytest.mark.parametrize("name", sorted(DIRECT_SPECS))
def test_directly_built_spec_round_trips(name):
    spec = DIRECT_SPECS[name]()
    assert parse_spec(serialize_spec(spec)) == spec


# what each mode uses and a value for every field, ints where a spec built
# in code may hold them
USED_FIELDS = {
    "triangle": {"triangle", "solver"},
    "mass-partition": {"polygon", "rays", "targets", "fractions", "solver"},
    "sweep": {"resolution"},
}
FIELD_VALUES = {
    "triangle": ((0, 0), (1, 0), (0, 1)),
    "polygon": SQUARE,
    "rays": (80.0, 200.0, 320.0),
    "targets": (0.25, 0.35, 0.4),
    "fractions": (0.25, 0.35, 0.4),
    "resolution": 5,
    "solver": (("max_iters", 40),),
}
BASE_FIELDS = {"triangle": ("triangle",), "mass-partition": ("polygon", "fractions"), "sweep": ()}


@pytest.mark.parametrize("field", ProblemSpec._fields[1:])
@pytest.mark.parametrize("mode", MODES)
def test_every_spec_built_in_code_round_trips(mode, field):
    """A spec with the mode's required fields and one more either round-trips
    through serialize_spec or, for a field the mode does not use, raises
    the error parse_spec gives for that field in the JSON: for example
    ProblemSpec(mode="triangle", triangle=((0, 0), (1, 0), (0, 1)),
    resolution=5) raises invalid-value "field 'resolution' is not allowed
    in triangle mode"."""
    names = [k for k in BASE_FIELDS[mode] if not (field == "targets" and k == "fractions")]
    fields = {k: FIELD_VALUES[k] for k in names + [field]}
    if field in USED_FIELDS[mode]:
        spec = ProblemSpec(mode=mode, **fields)
        assert parse_spec(serialize_spec(spec)) == spec
        return
    with pytest.raises(InputError) as err:
        ProblemSpec(mode=mode, **fields)
    payload = {"mode": mode, **fields}
    if field == "solver":
        payload["solver"] = dict(payload["solver"])
    with pytest.raises(InputError) as parsed:
        parse_spec(json.dumps(payload))
    assert (err.value.code, str(err.value)) == (parsed.value.code, str(parsed.value))
    assert str(err.value) == f"field '{field}' is not allowed in {mode} mode"


def _fan_fields(**fields):
    return {"mode": "mass-partition", "polygon": SQUARE, "fractions": (0.25, 0.35, 0.4), **fields}


def _triangle_fields(**fields):
    return {"mode": "triangle", "triangle": ((0, 0), (1, 0), (0, 1)), **fields}


# specs built in code from values a JSON reader refuses
REFUSED_IN_CODE = {
    "fractional-resolution": {"mode": "sweep", "resolution": 5.5},
    "string-resolution": {"mode": "sweep", "resolution": "5"},
    "two-rays": _fan_fields(rays=(90.0, 210.0)),
    "four-rays": _fan_fields(rays=(90.0, 210.0, 300.0, 330.0)),
    "two-fractions": _fan_fields(fractions=(0.25, 0.75)),
    "four-targets": _fan_fields(fractions=None, targets=(0.25, 0.25, 0.25, 0.25)),
    "two-vertex-triangle": _triangle_fields(triangle=((0, 0), (1, 0))),
    "four-vertex-triangle": _triangle_fields(triangle=((0, 0), (1, 0), (0, 1), (1, 1))),
    "string-in-triangle": _triangle_fields(triangle=((0, 0), (1, 0), (0, "one"))),
    "three-number-vertex": _triangle_fields(triangle=((0, 0), (1, 0), (0, 1, 2))),
    "string-in-polygon": _fan_fields(polygon=((0, 0), (1, 0), ("one", 1), (0, 1))),
    "unknown-solver-option": _triangle_fields(solver=(("bogus", 5),)),
    "infinite-max-iters": _triangle_fields(solver=(("max_iters", math.inf),)),
    "nan-max-iters": _triangle_fields(solver=(("max_iters", math.nan),)),
    "string-solver-value": _triangle_fields(solver=(("area_tol_rel", "1e-9"),)),
    "empty-polygon": _fan_fields(polygon=()),
    "two-vertex-polygon": _fan_fields(polygon=((0, 0), (1, 0))),
    "string-in-fractions": _fan_fields(fractions=(0.25, 0.35, "0.4")),
    "string-in-rays": _fan_fields(rays=(90.0, "210", 330.0)),
    "string-in-targets": _fan_fields(fractions=None, targets=(0.25, "0.35", 0.4)),
    "bool-coordinate": _triangle_fields(triangle=((0, 0), (1, 0), (0, True))),
    "bool-in-polygon": _fan_fields(polygon=((0, 0), (1, 0), (1, 1), (False, 1))),
    "infinite-coordinate": _triangle_fields(triangle=((0, 0), (1, 0), (0, math.inf))),
    "nan-in-polygon": _fan_fields(polygon=((0, 0), (1, 0), (1, math.nan), (0, 1))),
    "bool-solver-value": _triangle_fields(solver=(("max_iters", True),)),
    "zero-max-iters": _triangle_fields(solver=(("max_iters", 0),)),
    "solver-in-sweep": {"mode": "sweep", "solver": ()},
    "unknown-mode": {"mode": "nope"},
}


@pytest.mark.parametrize("name", sorted(REFUSED_IN_CODE))
def test_spec_built_in_code_raises_the_parsed_error(name):
    """A spec built in code from a value JSON could not hold, a wrong arity
    or a string for a number say, raises the (code, message) that
    parse_spec gives for the same payload, not a TypeError, IndexError or
    bare ValueError, and is never accepted."""
    fields = {k: v for k, v in REFUSED_IN_CODE[name].items() if v is not None}
    payload = dict(fields, **({"solver": dict(fields["solver"])} if "solver" in fields else {}))
    with pytest.raises(InputError) as parsed:
        parse_spec(json.dumps(payload))
    with pytest.raises(InputError) as err:
        ProblemSpec(**fields)
    assert (err.value.code, str(err.value)) == (parsed.value.code, str(parsed.value))


def _seq(elem, n: int):
    """n elements as a tuple or a list, or a list of another length."""
    return st.one_of(st.tuples(*[elem] * n), st.lists(elem, min_size=n, max_size=n), st.lists(elem, max_size=n + 1))


_NUMBER = st.one_of(st.integers(-3, 3), st.floats(-3.0, 3.0), st.integers(-(2**70), 2**70))
_JUNK = st.one_of(
    st.booleans(),
    st.text(max_size=2),
    st.none(),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.lists(_NUMBER, max_size=2),
)
_VALUE = st.integers(0, 3).flatmap(lambda i: _NUMBER if i else _JUNK)  # mostly a number
# values of any type, arity and nesting for each field, None (unset) included
FIELD_DRAWS = {
    "triangle": st.one_of(st.none(), _seq(_seq(_VALUE, 2), 3), _VALUE),
    "polygon": st.one_of(st.none(), _seq(_seq(_VALUE, 2), 4), _VALUE),
    "rays": st.one_of(st.none(), _seq(_VALUE, 3)),
    "targets": st.one_of(st.none(), _seq(_VALUE, 3)),
    "fractions": st.one_of(st.none(), _seq(_VALUE, 3)),
    "resolution": st.one_of(st.none(), st.integers(-2, MAX_SWEEP_RESOLUTION + 2), _VALUE),
    # pairs that dict() takes, or a value that is no mapping in code or JSON;
    # a list of pairs is left out of the second kind, because only code takes it
    "solver": st.one_of(
        st.none(),
        _seq(st.tuples(st.sampled_from(("area_tol_rel", "max_iters", "bogus")), _VALUE), 1),
        st.sampled_from((0, "", True, [1, 2])),
    ),
}


@st.composite
def _drawn_fields(draw):
    """A spec's fields in code: a mode with fields that build, up to two
    fields then replaced by drawn values."""
    mode = draw(st.sampled_from(MODES))
    fields = {"mode": mode, **{k: FIELD_VALUES[k] for k in BASE_FIELDS[mode]}}
    for key in draw(st.lists(st.sampled_from(ProblemSpec._fields[1:]), max_size=2, unique=True)):
        fields[key] = draw(FIELD_DRAWS[key])
    return fields


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=400, deadline=None)
@given(_drawn_fields())
def test_code_built_and_parsed_specs_agree(fields):
    """ProblemSpec(**fields) and parse_spec of the same fields as JSON (an
    unset field left out, solver pairs as an object) give equal specs or
    the same (code, message); a spec that builds serializes to strict JSON
    that parses back to it."""
    payload = {k: v for k, v in fields.items() if v is not None}
    solver = payload.get("solver")
    if isinstance(solver, (tuple, list)) and all(type(p) is tuple for p in solver):  # drawn pairs
        payload["solver"] = dict(solver)
    try:
        spec = ProblemSpec(**fields)
    except InputError as exc:
        with pytest.raises(InputError) as parsed:
            parse_spec(json.dumps(payload))
        assert (exc.code, str(exc)) == (parsed.value.code, str(parsed.value))
        return
    assert parse_spec(json.dumps(payload)) == spec
    text = serialize_spec(spec)
    json.loads(text, parse_constant=_refuse_constant)
    assert parse_spec(text) == spec


SOLVER_NO_MAPPING = {
    "number": 5, "string": "x", "empty-string": "", "bool": True, "three-item-pair": (("max_iters", 40, 1),)
}


@pytest.mark.parametrize("name", sorted(SOLVER_NO_MAPPING))
def test_solver_that_is_no_mapping_is_refused_as_in_json(name):
    # beside a second fault, an empty triangle, the solver is still the one
    # named, in code as in JSON, because parse_spec checks the solver first
    solver = SOLVER_NO_MAPPING[name]
    for fields in (_triangle_fields(solver=solver), _triangle_fields(triangle=[], solver=solver)):
        with pytest.raises(InputError) as parsed:
            parse_spec(json.dumps(fields))
        with pytest.raises(InputError) as err:
            ProblemSpec(**fields)
        assert (err.value.code, str(err.value)) == (parsed.value.code, str(parsed.value))
        assert str(err.value) == "'solver' must be an object of option values"


def test_spec_built_in_code_keeps_an_integral_resolution_as_an_int():
    spec = ProblemSpec(mode="sweep", resolution=5.0)
    parsed = parse_spec('{"mode": "sweep", "resolution": 5.0}')
    assert spec == parsed and type(spec.resolution) is int
    assert sweep_csv(run(spec)) == sweep_csv(run(parsed))


def test_spec_fills_its_defaults():
    assert ProblemSpec(mode="sweep").resolution == DEFAULT_SWEEP_RESOLUTION
    assert DIRECT_SPECS["fan-without-rays"]().rays == DEFAULT_RAYS_DEG


@pytest.mark.parametrize(
    "mode, field", [("triangle", "triangle"), ("mass-partition", "polygon")], ids=["triangle", "mass-partition"]
)
def test_spec_without_its_shape_is_missing_field(mode, field):
    with pytest.raises(InputError, match=f"field '{field}'") as err:
        ProblemSpec(mode=mode, fractions=(0.25, 0.35, 0.4) if field == "polygon" else None)
    assert err.value.code == "missing-field"


@pytest.mark.parametrize(
    "polygon",
    [((1.0, 1.0), (1.0, 1.0), (1.0 + 1e-15, 1.0)), ((0.0, 0.0), (1.0, 0.0), (2.0, 1e-13))],
    ids=["collapsed", "near-collinear"],
)
def test_fan_spec_reports_the_polygon_rule(polygon):
    """The spec's degenerate-geometry message is the library's own."""
    with pytest.raises(GeometryError) as lib:
        ConvexPolygon(polygon)
    with pytest.raises(InputError) as err:
        ProblemSpec(mode="mass-partition", polygon=polygon, fractions=(0.25, 0.35, 0.4))
    assert err.value.code == "degenerate-geometry"
    assert str(err.value) == str(lib.value)


def test_spec_built_in_code_equals_the_parsed_spec():
    """Values JSON holds too are taken as parse_spec takes them: a repeated
    solver option keeps its last value, a null solver (None in code) is no
    options and an int stays an int."""
    tri = '"triangle": [[0, 0], [1, 0], [0, 1]]'
    cases = [
        (
            _triangle_fields(solver=(("max_iters", 40), ("max_iters", 50))),
            '"solver": {"max_iters": 40, "max_iters": 50}',
        ),
        (_triangle_fields(solver=None), '"solver": null'),
        (_triangle_fields(solver={"max_iters": 50}), '"solver": {"max_iters": 50}'),
    ]
    for fields, solver in cases:
        spec = ProblemSpec(**fields)
        assert spec == parse_spec('{"mode": "triangle", %s, %s}' % (tri, solver))
        assert parse_spec(serialize_spec(spec)) == spec
    assert ProblemSpec(**cases[0][0]).solver == (("max_iters", 50),)
    assert ProblemSpec(**cases[1][0]).solver == ()
    assert type(parse_spec('{"mode": "triangle", %s}' % tri).triangle[1][0]) is int


@pytest.mark.parametrize(
    "fields, message",
    [
        (_fan_fields(polygon=np.array(SQUARE)), "'polygon' must list at least three vertices"),
        ({"mode": "sweep", "resolution": np.int64(5)}, "'resolution' must be an integer, got "),
    ],
    ids=["numpy-array", "numpy-int"],
)
def test_numpy_values_are_refused_as_json_would_refuse_them(fields, message):
    with pytest.raises(InputError) as err:
        ProblemSpec(**fields)
    assert err.value.code == "invalid-value" and str(err.value).startswith(message)


def test_null_fields_stay_invalid_values():
    base = '{"mode": "mass-partition", "polygon": [[0, 0], [1, 0], [1, 1]], "fractions": [0.25, 0.35, 0.4]'
    for key in ("rays", "targets"):
        assert code_of(base + ', "%s": null}' % key) == "invalid-value"
    assert code_of('{"mode": "triangle", "triangle": null}') == "invalid-value"
    assert code_of('{"mode": "mass-partition", "polygon": null, "fractions": [0.25, 0.35, 0.4]}') == "invalid-value"
    assert code_of('{"mode": "sweep", "resolution": null}') == "invalid-value"


def test_error_codes():
    assert code_of("{not json") == "malformed-json"
    assert code_of("[1, 2]") == "invalid-value"
    assert code_of('{"triangle": [[0, 0], [1, 0], [0, 1]]}') == "missing-field"
    assert code_of('{"mode": "nope"}') == "invalid-value"
    assert code_of('{"mode": "triangle"}') == "missing-field"
    assert code_of('{"mode": "triangle", "triangle": [[0, 0], [1, 0]]}') == "invalid-value"
    assert code_of('{"mode": "triangle", "triangle": [[0, 0], [1, 0], [2, 0]]}') == "degenerate-geometry"
    assert code_of('{"mode": "triangle", "triangle": [[0, 0], [1, 0], [0, "x"]]}') == "invalid-value"
    assert code_of('{"mode": "triangle", "triangle": [[0, 0], [1, 0], [0, 1]], "rays": [0, 1, 2]}') == "invalid-value"
    assert code_of('{"mode": "sweep", "resolution": 1}') == "invalid-value"
    assert code_of('{"mode": "sweep", "resolution": 2.5}') == "invalid-value"
    assert code_of('{"mode": "mass-partition", "polygon": [[0, 0], [1, 0], [1, 1]]}') == "missing-field"
    assert code_of('{"mode": "mass-partition", "polygon": [[0, 0], [1, 0], [2, 0]], "fractions": [0.3, 0.3, 0.4]}') == "degenerate-geometry"


def test_mass_partition_target_validation():
    base = '{"mode": "mass-partition", "polygon": [[0, 0], [1, 0], [1, 1], [0, 1]], %s}'
    assert code_of(base % '"fractions": [0.3, 0.3, 0.3]') == "invalid-value"
    assert code_of(base % '"fractions": [0.5, 0.6, -0.1]') == "invalid-value"
    assert code_of(base % '"targets": [0.5, 0.5, 0.5]') == "invalid-value"
    assert code_of(base % '"targets": [0.5, 0.5, 0.0]') == "invalid-value"
    assert code_of(base % '"targets": [0.2, 0.3, 0.5], "fractions": [0.2, 0.3, 0.5]') == "invalid-value"
    assert code_of(base % '"rays": [0, 0, 120], "fractions": [0.3, 0.3, 0.4]') == "invalid-value"


def test_fractions_obey_the_target_rule_of_the_run():
    # fractions 1e-10 off a sum of 1 scale to targets 1e-10 off the area,
    # which the run rejects; the spec says so, naming the field given
    text = (
        '{"mode":"mass-partition","polygon":[[0,0],[2,0],[2,1],[0,1]],"rays":[90,200,340],'
        '"fractions":[0.2,0.45,0.3500000001]}'
    )
    with pytest.raises(InputError, match="fractions") as err:
        parse_spec(text)
    assert err.value.code == "invalid-value"
    poly = ConvexPolygon.from_coords(((0, 0), (2, 0), (2, 1), (0, 1)))
    fan = SectorConfig.from_angles_deg((90.0, 200.0, 340.0))
    with pytest.raises(MassPartitionError, match="polygon area"):
        solve_translation(poly, fan, tuple(f * poly.area for f in (0.2, 0.45, 0.3500000001)))
    spec = parse_spec(text.replace("0.3500000001", "0.35"))
    assert run(spec).residual <= 1e-12 * poly.area


def test_solver_option_validation():
    base = '{"mode": "triangle", "triangle": [[0, 0], [1, 0], [0, 1]], "solver": %s}'
    assert code_of(base % '{"bogus": 1}') == "invalid-value"
    # the Newton Jacobian is exact, so there is no finite-difference step
    assert code_of(base % '{"fd_step_rel": 1e-7}') == "invalid-value"
    # the grid labeling zoom runs at fixed resolution and target
    assert code_of(base % '{"kkm_initial_grid": 32}') == "invalid-value"
    assert code_of(base % '{"kkm_target_diam_rel": 1e-6}') == "invalid-value"
    assert code_of(base % '{"max_iters": 0}') == "invalid-value"
    assert code_of(base % '{"area_tol_rel": "tight"}') == "invalid-value"
    assert code_of(base % "[1]") == "invalid-value"


def test_sweep_resolution_overflow_is_invalid_value():
    assert code_of('{"mode": "sweep", "resolution": 1e400}') == "invalid-value"


def test_sweep_resolution_is_capped():
    # a sweep of resolution n has (n - 1)(n - 2) / 2 rows
    assert parse_spec('{"mode": "sweep", "resolution": %d}' % MAX_SWEEP_RESOLUTION).resolution == 1000
    assert code_of('{"mode": "sweep", "resolution": %d}' % (MAX_SWEEP_RESOLUTION + 1)) == "invalid-value"
    assert code_of('{"mode": "sweep", "resolution": 1e300}') == "invalid-value"
    with pytest.raises(InputError) as err:
        ProblemSpec(mode="sweep", resolution=10**6)
    assert err.value.code == "invalid-value"


def test_sweep_resolution_nan_is_invalid_value():
    assert code_of('{"mode": "sweep", "resolution": NaN}') == "invalid-value"


def test_unknown_keys_rejected_per_mode():
    assert code_of('{"mode": "sweep", "triangle": [[0, 0], [1, 0], [0, 1]]}') == "invalid-value"
    assert code_of('{"mode": "triangle", "triangle": [[0, 0], [1, 0], [0, 1]], "resolution": 5}') == "invalid-value"


def test_run_triangle_report():
    report = run(parse_spec(TRI_SPEC))
    assert report.mode == "triangle"
    assert report.method == "newton"
    assert report.classification.kind == "right"
    r = 1.0 / math.sqrt(6.0)
    assert report.point[0] == pytest.approx(r, abs=5e-12)
    assert report.point[1] == pytest.approx(r, abs=5e-12)
    assert sum(report.areas) == pytest.approx(0.5, rel=1e-12)
    assert report.fractions[0] == pytest.approx(1 / 3, abs=1e-11)
    assert len(report.regions) == 3
    assert run(parse_spec(TRI_SPEC)) == report  # run is pure: no timing in the report


def test_run_is_label_consistent_for_clockwise_input():
    ccw = parse_spec('{"mode": "triangle", "triangle": [[0, 0], [1.1, 0], [0.2, 0.9]]}')
    cw = parse_spec('{"mode": "triangle", "triangle": [[0, 0], [0.2, 0.9], [1.1, 0]]}')
    ra, rb = run(ccw), run(cw)
    assert ra.point[0] == pytest.approx(rb.point[0], abs=1e-11)
    assert ra.point[1] == pytest.approx(rb.point[1], abs=1e-11)
    # vertex 0 is 'a' in both; the other two swap both input slot and label,
    # so the per-label areas land on the same geometric vertices
    assert ra.areas[0] == pytest.approx(rb.areas[0], abs=1e-12)
    assert ra.areas[1] == pytest.approx(rb.areas[2], abs=1e-12)
    assert ra.areas[2] == pytest.approx(rb.areas[1], abs=1e-12)


def test_run_maps_obtuse_vertex_to_input_labels():
    spec = parse_spec('{"mode": "triangle", "triangle": [[0, 0], [0.5, 0.05], [1, 0]]}')
    report = run(spec)
    assert report.classification.kind == "obtuse-exterior"
    assert report.classification.obtuse_vertex == "b"


def test_run_mass_partition_report():
    report = run(parse_spec(MASS_SPEC))
    assert report.mode == "mass-partition"
    assert report.residual <= 1e-12
    assert report.translation == (-report.apex[0], -report.apex[1])
    for got, frac in zip(report.achieved, (0.25, 0.35, 0.4)):
        assert got == pytest.approx(frac, abs=1e-12)
    assert report.iterations >= 1


def test_run_tol_override():
    spec = parse_spec(TRI_SPEC)
    report = run(ProblemSpec(mode="triangle", triangle=spec.triangle, solver=(("area_tol_rel", 1e-6),)))
    assert report.residual <= 1e-6 * 0.5


def test_run_sweep_rows():
    rows = list(sweep_rows(12))
    assert len(rows) == 55  # lattice points with i, j >= 1 and i + j <= 11
    assert {type(r) for r in rows} == {SweepRow}
    kinds = {r.kind for r in rows}
    assert {"acute", "right", "obtuse-interior", "obtuse-exterior"} <= kinds
    right = [r for r in rows if r.kind == "right"]
    assert right
    for r in right:
        widest = max(r.angle_a_deg, r.angle_b_deg, 180.0 - r.angle_a_deg - r.angle_b_deg)
        assert widest == pytest.approx(90.0, abs=1e-9)
    for r in rows:
        if r.kind in ("acute", "right"):
            assert r.margin is None
        else:
            assert math.isfinite(r.margin)


def _same_margin(x, y) -> bool:
    """Equal with the same sign, so 0.0 and -0.0 differ; or both None."""
    if x is None or y is None:
        return x is y
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


@pytest.mark.parametrize("n", [*range(2, 61), 400])
def test_sweep_rows_match_classify_of_built_triangles(n):
    rows = list(sweep_rows(n))
    grid = [(180.0 * i / n, 180.0 * j / n) for i in range(1, n) for j in range(1, n - i)]
    assert [(r.angle_a_deg, r.angle_b_deg) for r in rows] == grid
    for row in rows:
        cls = classify(triangle_from_angles(row.angle_a_deg, row.angle_b_deg))
        assert row.kind == cls.kind, row
        assert _same_margin(row.margin, cls.criterion_margin), row


@pytest.mark.parametrize("text", [MASS_SPEC, '{"mode": "sweep", "resolution": 12}'], ids=["fan", "sweep"])
def test_run_is_a_pure_function_of_the_spec(text):
    """The triangle case is in test_run_triangle_report."""
    spec = parse_spec(text)
    assert run(spec) == run(spec)


def test_report_json_deterministic():
    spec = parse_spec(TRI_SPEC)
    one, two = report_json(run(spec)), report_json(run(spec))
    assert one == two
    payload = json.loads(one)
    assert payload["mode"] == "triangle"
    assert payload["input"]["triangle"] == [[0, 0], [1, 0], [0, 1]]
    assert set(payload["areas"]) == {"at_a", "at_b", "at_c", "fractions", "total"}
    assert "timing" not in one and "timing_s" not in one


def test_report_json_mass_partition_shape():
    payload = json.loads(report_json(run(parse_spec(MASS_SPEC))))
    assert payload["input"]["rays"] == list(DEFAULT_RAYS_DEG)
    assert payload["areas"]["total"] == 1
    assert len(payload["translation"]) == 2


def test_sweep_csv_format():
    report = run(parse_spec('{"mode": "sweep", "resolution": 8}'))
    text = sweep_csv(report)
    lines = text.splitlines()
    assert lines[0] == "angle_a_deg,angle_b_deg,kind,margin"
    assert len(lines) == 1 + len(list(sweep_rows(8)))
    for line in lines[1:]:
        a, b, kind, margin = line.split(",")
        assert float(a) > 0 and float(b) > 0
        assert (margin == "") == (kind in ("acute", "right"))
    assert sweep_csv(run(parse_spec('{"mode": "sweep", "resolution": 8}'))) == text


def test_sweep_csv_is_the_rows_written_with_fmt_num():
    """The CSV and the rows read the same grid; each line is its row's
    fields as `_fmt_num` writes them, the margin blank when it is None."""
    for n in range(2, 151):
        lines = [
            f"{_fmt_num(a)},{_fmt_num(b)},{kind},{'' if m is None else _fmt_num(m)}\n"
            for a, b, kind, m in sweep_rows(n)
        ]
        want = "angle_a_deg,angle_b_deg,kind,margin\n" + "".join(lines)
        assert sweep_csv(run(ProblemSpec(mode="sweep", resolution=n))) == want, n


def _obtuse_cells_to(monkeypatch, margin):
    """Make every obtuse sweep cell obtuse-interior with `margin`."""
    monkeypatch.setattr(problem, "_obtuse_kind", lambda ta, tb: ("obtuse-interior", margin))


@pytest.mark.parametrize("margin", [0.0, -0.0, 5e-324, -5e-324, -1e300, 0.1, 1e-9, -2.5])
def test_sweep_lines_format_margins_as_fmt_num(monkeypatch, margin):
    _obtuse_cells_to(monkeypatch, margin)
    lines = list(_sweep_lines(6))  # base angles 30, 60, 90 and 120 degrees
    m = _fmt_num(margin)
    # the third angle is 120, 90, 60 and 30 degrees along the first base angle's cells
    assert lines[1] == f"30,30,obtuse-interior,{m}\n30,60,right,\n30,90,right,\n30,120,obtuse-interior,{m}\n"
    assert lines[4] == f"120,30,obtuse-interior,{m}\n"


@pytest.mark.parametrize("margin", [math.nan, math.inf, -math.inf])
def test_sweep_lines_reject_non_finite_margins(monkeypatch, margin):
    _obtuse_cells_to(monkeypatch, margin)
    with pytest.raises(ValueError):
        list(_sweep_lines(6))


def test_sweep_csv_rejects_other_modes():
    with pytest.raises(ValueError):
        sweep_csv(run(parse_spec(TRI_SPEC)))
    with pytest.raises(ValueError):
        report_json(run(parse_spec('{"mode": "sweep", "resolution": 4}')))


def test_canonical_json_scalars():
    assert canonical_json({"a": 0.0, "b": -0.0, "c": 1, "d": True, "e": None}) == (
        '{"a":0,"b":0,"c":1,"d":true,"e":null}'
    )
    assert canonical_json([0.1]) == "[0.10000000000000001]"
    assert canonical_json("x\"y") == '"x\\"y"'
    with pytest.raises(ValueError):
        canonical_json(math.inf)
    with pytest.raises(TypeError):
        canonical_json({"x": object()})


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_canonical_floats_round_trip(x):
    assert json.loads(canonical_json(x)) == x


def test_triangle_from_angles():
    t = triangle_from_angles(45.0, 45.0)
    assert t.c.x == pytest.approx(0.5, abs=1e-15)
    assert t.c.y == pytest.approx(0.5, abs=1e-15)
    t = triangle_from_angles(30.0, 90.0)
    assert t.c.as_tuple() == (1.0, math.tan(math.radians(30.0)))
    t = triangle_from_angles(90.0, 30.0)
    assert t.c.as_tuple() == (0.0, math.tan(math.radians(30.0)))
    assert math.degrees(triangle_from_angles(70.0, 60.0).angles[2]) == pytest.approx(50.0, abs=1e-9)
    from tripart.partition import PartitionError

    with pytest.raises(PartitionError):
        triangle_from_angles(120.0, 60.0)
    with pytest.raises(PartitionError):
        triangle_from_angles(-5.0, 60.0)


def _count_builds(monkeypatch, *classes):
    counts = dict.fromkeys(classes, 0)
    for cls in classes:
        def counting(self, *args, _cls=cls, _real=cls.__init__, **kwargs):
            counts[_cls] += 1
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


BUILD_ONCE_TRIANGLES = {
    "acute": "[[0, 0], [1, 0], [0.5, 0.866]]",
    "right": "[[0, 0], [1, 0], [0, 1]]",
    "obtuse-interior": "[[0, 0], [1, 0], [0.5, 0.42]]",
    "obtuse-interior-clockwise": "[[0, 0], [0.5, 0.42], [1, 0]]",
    "obtuse-boundary": "[[0, 0], [1, 0], [0.5, 0.35355339059327379]]",
}


@pytest.mark.parametrize("name", sorted(BUILD_ONCE_TRIANGLES))
def test_triangle_job_builds_its_triangle_once(monkeypatch, name):
    """parse_spec -> run -> report_json -> emit_svg builds one Triangle (the
    exterior kind also builds the construction's rotated copy)."""
    counts = _count_builds(monkeypatch, Triangle)
    report = run(parse_spec('{"mode": "triangle", "triangle": %s}' % BUILD_ONCE_TRIANGLES[name]))
    assert report.classification.kind == name.removesuffix("-clockwise")
    report_json(report)
    emit_svg(report)
    assert counts[Triangle] == 1


def test_fan_job_builds_its_polygon_and_fan_once(monkeypatch):
    counts = _count_builds(monkeypatch, ConvexPolygon, SectorConfig)
    report_json(run(parse_spec(MASS_SPEC)))
    assert counts == {ConvexPolygon: 1, SectorConfig: 1}


@pytest.mark.parametrize("spec", [TRI_SPEC, MASS_SPEC], ids=["triangle", "mass-partition"])
def test_job_builds_its_solver_config_once(monkeypatch, spec):
    counts = _count_builds(monkeypatch, SolverConfig)
    report = run(parse_spec(spec))
    report_json(report)
    if report.mode == "triangle":
        emit_svg(report)
    assert counts[SolverConfig] == 1


# ---------------------------------------------------------------------------
# report_json against the documented payload
# ---------------------------------------------------------------------------


def _documented_payload(report) -> dict:
    """The report layout the README documents, as a dict whose
    canonical_json is the expected report_json."""
    spec = report.spec
    echo = {"mode": spec.mode}
    for key in ("triangle", "polygon"):
        if getattr(spec, key) is not None:
            echo[key] = [list(p) for p in getattr(spec, key)]
    for key in ("rays", "targets", "fractions"):
        if getattr(spec, key) is not None:
            echo[key] = list(getattr(spec, key))
    if spec.solver:
        echo["solver"] = dict(spec.solver)
    if report.mode == "triangle":
        cls = report.classification
        return {
            "mode": "triangle",
            "input": echo,
            "classification": {
                "kind": cls.kind,
                "obtuse_vertex": cls.obtuse_vertex,
                "criterion_margin": cls.criterion_margin,
            },
            "method": report.method,
            "point": list(report.point),
            "areas": {
                "at_a": report.areas[0],
                "at_b": report.areas[1],
                "at_c": report.areas[2],
                "fractions": list(report.fractions),
                "total": report.total_area,
            },
            "residual": report.residual,
            "regions": {f"at_{v}": [list(p) for p in r] for v, r in zip("abc", report.regions)},
        }
    return {
        "mode": "mass-partition",
        "input": echo,
        "method": report.method,
        "apex": list(report.apex),
        "translation": list(report.translation),
        "areas": {"achieved": list(report.achieved), "targets": list(report.targets), "total": report.total_area},
        "residual": report.residual,
        "iterations": report.iterations,
    }


def _writer_specs() -> list[str]:
    """Seeded triangles of all five kinds (some clockwise), fans with
    targets and with fractions, and hand-picked inputs: integer and -0.0
    coordinates and a solver object."""
    rng = np.random.default_rng(611)
    shapes = []
    for _ in range(4):
        shapes += [
            oc.transform(rng, oc.rand_acute(rng)),
            oc.rand_right(rng),
            oc.boundary_triangle(rng),
            oc.transform(rng, oc.rand_obtuse_of_kind(rng, "interior")),
            oc.transform(rng, oc.rand_obtuse_of_kind(rng, "exterior")),
        ]
    specs = [
        json.dumps({"mode": "triangle", "triangle": (pts if i % 2 else pts[::-1]).tolist()})
        for i, pts in enumerate(shapes)
    ]
    for i in range(6):
        poly = oc.rand_convex_polygon(rng, 3, 12)
        fracs = oc.rand_fractions(rng)
        spec = {"mode": "mass-partition", "polygon": poly.tolist(), "rays": list(oc.rand_fan_angles_deg(rng))}
        if i % 2:
            spec["targets"] = [f * ConvexPolygon.from_coords(poly.tolist()).area for f in fracs]
        else:
            spec["fractions"] = list(fracs)
        specs.append(json.dumps(spec))
    return specs + [
        '{"mode": "triangle", "triangle": [[0, 0], [3, 0], [1, 2]]}',
        '{"mode": "triangle", "triangle": [[-0.0, 0.0], [1, -0.0], [0.3, 0.8]]}',
        '{"mode": "triangle", "triangle": [[0, 0], [1, 0], [0.5, 0.05]], "solver": {"max_iters": 40}}',
        '{"mode": "triangle", "triangle": [[0, 0], [1, 0], [0.4, 0.7]],'
        ' "solver": {"area_tol_rel": 1e-11, "max_iters": 60}}',
        '{"mode": "mass-partition", "polygon": [[0, 0], [2, 0], [2, 1], [0, 1]], "targets": [1, 0.5, 0.5],'
        ' "solver": {"max_iters": 50}}',
    ]


def test_fan_spec_keeps_the_areas_it_solves_for():
    """The target areas a fan spec keeps are the run's targets and those of
    a solve given them as a plain triple, bit for bit and type for type,
    for specs given as fractions and as targets."""
    given = set()
    for text in _writer_specs():
        spec = parse_spec(text)
        if spec.mode != "mass-partition":
            continue
        areas = spec.target_areas
        if spec.fractions is None:
            given.add("targets")
            assert areas == spec.targets
        else:
            given.add("fractions")
            assert areas == tuple(f * spec.shape.area for f in spec.fractions)
        report = run(spec)
        sol = solve_translation(spec.shape, spec.fan, tuple(areas), spec.config)
        assert list(map(repr, areas)) == list(map(repr, report.targets)) == list(map(repr, sol.targets))
        assert list(map(repr, report.achieved)) == list(map(repr, sol.achieved))
        assert report.apex == sol.apex.as_tuple()
    assert given == {"fractions", "targets"}


def test_report_json_matches_documented_payload():
    kinds = set()
    for text in _writer_specs():
        report = run(parse_spec(text))
        assert report_json(report) == canonical_json(_documented_payload(report)), text
        if report.mode == "triangle":
            kinds.add(report.classification.kind)
    assert kinds == {"acute", "right", "obtuse-interior", "obtuse-boundary", "obtuse-exterior"}


@pytest.mark.parametrize("field", ["residual", "point", "total_area"])
def test_report_json_rejects_non_finite_fields(field):
    report = run(parse_spec(MASS_SPEC if field == "total_area" else TRI_SPEC))
    bad = math.inf if field == "point" else math.nan
    value = (report.point[0], bad) if field == "point" else bad
    with pytest.raises(ValueError):
        report_json(report._replace(**{field: value}))


# the edges of the float range and the values whose 17 digits are easy to get wrong
WRITER_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
    0.1, -0.1, 1 / 3, 1e16, 1e17,
)


def test_one_call_writer_gives_the_bytes_of_fmt_num():
    for v in WRITER_FLOATS:
        assert _fill(_FLOAT, [v]) == _fmt_num(v)
    template = ",".join([_FLOAT] * len(WRITER_FLOATS))
    assert _fill(template, list(WRITER_FLOATS)) == ",".join(map(_fmt_num, WRITER_FLOATS))
    # finite values whose sum overflows
    big = 1.7976931348623157e308
    assert _fill("%s,%s" % (_FLOAT, _FLOAT), [big, big]) == "1.7976931348623157e+308,1.7976931348623157e+308"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_one_call_writer_raises_the_error_of_fmt_num(bad):
    with pytest.raises(ValueError) as want:
        _fmt_num(bad)
    with pytest.raises(ValueError) as got:
        _fill("[%s,%s,%s]" % ((_FLOAT,) * 3), [0.5, bad, 1.0])
    assert str(got.value) == str(want.value)


def test_one_call_writer_writes_ints_as_written():
    assert _fill(_FLOAT, [10**17]) == "100000000000000000" == _fmt_num(10**17)
    assert _fill("[%s,%s,%s]" % ((_FLOAT,) * 3), [10**17, -0.0, 0.5]) == "[100000000000000000,0,0.5]"
    tri = ((0, 0), (10**17, 0), (0, 10**17))
    spec = ProblemSpec(mode="triangle", triangle=tri, solver=(("max_iters", 40),))
    assert serialize_spec(spec) == (
        '{"mode":"triangle","triangle":[[0,0],[100000000000000000,0],[0,100000000000000000]],'
        '"solver":{"max_iters":40}}'
    )
    report = run(spec)
    assert report_json(report) == canonical_json(_documented_payload(report))
