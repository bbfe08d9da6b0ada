"""The public types: value semantics of the validated types and the
records, the package's own errors at every door, and an import of the
command line that stays cheap."""

import json
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from tripart.geometry import (
    ConvexPolygon,
    GeometryError,
    Point,
    RegionAreas,
    Triangle,
    _shown,
    min_area_f,
    region_area,
    region_areas,
    region_polygon,
)
from tripart.masspart import MassPartitionError, SectorConfig, TranslationSolution, sector_areas, solve_translation
from tripart.partition import (
    Classification,
    LabelSets,
    PartitionError,
    PartitionSolution,
    SolverConfig,
    SolverReport,
    VerifyReport,
    boundary_point_closed_form,
    classify,
    cut_line_offset,
    equal_partition,
    lemma_check,
    solve_exterior,
    solve_kkm,
    solve_maximin,
    solve_newton,
    verify_partition,
)
from tripart.problem import (
    InputError,
    ProblemSpec,
    Report,
    parse_spec,
    report_json,
    run,
    sweep_csv,
)
from tripart.rootfind import RootResult
from tripart.svg import emit_svg

SRC = Path(__file__).resolve().parent.parent / "src"
TRI = ((0.0, 0.0), (1.0, 0.0), (0.3, 0.8))
SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))

# name: (build, build of a different value); build() twice gives equal values
VALUES = {
    "Point": (lambda: Point(1.0, 2.0), lambda: Point(1.0, 2.5)),
    "ConvexPolygon": (lambda: ConvexPolygon.from_coords(SQUARE), lambda: ConvexPolygon.from_coords(TRI)),
    "Triangle": (lambda: Triangle.from_coords(TRI), lambda: Triangle.from_coords(SQUARE[:3])),
    "SectorConfig": (
        lambda: SectorConfig.from_angles_deg((90.0, 210.0, 330.0)),
        lambda: SectorConfig.from_angles_deg((90.0, 200.0, 330.0)),
    ),
    "SolverConfig": (lambda: SolverConfig(), lambda: SolverConfig(max_iters=7)),
    "ProblemSpec": (
        lambda: ProblemSpec(mode="triangle", triangle=TRI),
        lambda: ProblemSpec(mode="triangle", triangle=TRI, solver=(("max_iters", 7.0),)),
    ),
    "RegionAreas": (lambda: RegionAreas(1.0, 2.0, 3.0), lambda: RegionAreas(1.0, 2.0, 4.0)),
    "RootResult": (
        lambda: RootResult(1.0, 2.0, 0.0, 3, 0, True, (1.0, 0.0)),
        lambda: RootResult(1.0, 2.0, 0.0, 4, 0, True, (1.0, 0.0)),
    ),
    "SolverReport": (
        lambda: SolverReport("newton", 3, 0.5, (1.0, 2.0), (1.0, 0.5), False),
        lambda: SolverReport("newton", 3, 0.5, (1.0, 2.0), (1.0, 0.5), False, "stalled"),
    ),
    "Classification": (lambda: Classification("acute"), lambda: Classification("right")),
    "PartitionSolution": (
        lambda: PartitionSolution(Point(0.0, 0.0), RegionAreas(1.0, 1.0, 1.0), (), Classification("acute"), "kkm", 0.0),
        lambda: PartitionSolution(Point(0.0, 0.0), RegionAreas(1.0, 1.0, 1.0), (), Classification("right"), "kkm", 0.0),
    ),
    "VerifyReport": (
        lambda: VerifyReport(Point(0.0, 0.0), RegionAreas(1.0, 1.0, 1.0), 0.0, 0.0, "interior", (4, 4, 4), True),
        lambda: VerifyReport(Point(0.0, 0.0), RegionAreas(1.0, 1.0, 1.0), 0.0, 0.0, "boundary", (4, 4, 4), True),
    ),
    "TranslationSolution": (
        lambda: TranslationSolution(Point(0.0, 0.0), (0.0, 0.0), (1.0, 1.0, 1.0), (1.0, 1.0, 1.0), 0.0, 3),
        lambda: TranslationSolution(Point(0.0, 0.0), (0.0, 0.0), (1.0, 1.0, 1.0), (1.0, 1.0, 1.0), 0.0, 4),
    ),
    "Report": (
        lambda: Report("sweep", None, "classify", 0.0, 0.0),
        lambda: Report("sweep", None, "classify", 0.0, 0.5),
    ),
}
RECORDS = (
    RegionAreas, RootResult, SolverReport, Classification, PartitionSolution,
    VerifyReport, TranslationSolution, Report,
)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equality_and_hashing(name):
    build, other = VALUES[name]
    a, b = build(), build()
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other()
    assert len({a, b, other()}) == 2


@pytest.mark.parametrize("name", sorted(VALUES))
def test_assignment_is_refused(name):
    value = VALUES[name][0]()
    field = type(value)._fields[0]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) == before


def test_records_are_named_tuples():
    for record in RECORDS:
        assert issubclass(record, tuple)
    c = Classification("obtuse-interior", "c", 0.25)
    assert c == ("obtuse-interior", "c", 0.25)
    assert c[1] == c.obtuse_vertex == "c"
    assert Classification("acute") == ("acute", None, None)
    assert SolverReport("kkm", 1, 0.0, (0.0, 0.0), (), True).message == ""
    assert TranslationSolution(None, None, None, None, 0.0, 1).method == "newton"
    report = Report("sweep", None, "classify", 0.0, 0.0)
    assert report.point is None
    assert report._replace(residual=1.0).residual == 1.0


def test_solver_report_repr():
    # the error digests of the benchmark tooling print this text
    report = SolverReport("newton", 3, 0.5, (1.0, 2.0), (1.0, 0.5), False, "stalled")
    assert repr(report) == (
        "SolverReport(method='newton', iterations=3, residual=0.5, best_point=(1.0, 2.0),"
        " residual_history=(1.0, 0.5), converged=False, message='stalled')"
    )


def test_value_repr_lists_fields_only():
    assert repr(Point(1.0, -2.0)) == "Point(x=1.0, y=-2.0)"
    assert repr(SolverConfig()) == "SolverConfig(area_tol_rel=1e-12, max_iters=100)"
    tri = Triangle.from_coords(TRI)
    assert repr(tri) == f"Triangle(a={tri.a!r}, b={tri.b!r}, c={tri.c!r})"
    spec = ProblemSpec(mode="sweep", resolution=4)
    assert repr(spec) == (
        "ProblemSpec(mode='sweep', triangle=None, polygon=None, rays=None, targets=None,"
        " fractions=None, resolution=4, solver=())"
    )


HUGE = 10**400  # a real number that no float holds: math.isfinite and float() raise OverflowError on it
LONG = 10**5000  # an int whose repr raises ValueError: it has more than 4,300 digits


def _nested(depth: int, leaf=0):
    """`leaf` inside `depth` lists."""
    for _ in range(depth):
        leaf = [leaf]
    return leaf


DEEP = _nested(600)  # past the depth where a message printer that recursed without bound raised RecursionError
DEEP_SHOWN = r"\[{100}\.\.\.\]{100}"  # how a message shows DEEP: cut off 100 lists deep
FAN = ((0.0, 1.0), (-1.0, -1.0), (1.0, -1.0))  # a fan's directions, not a SectorConfig


def _wrong(name: str, kind: str, value) -> str:
    """The message of a door given `value` for its parameter `name` of type `kind`."""
    return "^" + re.escape(f"{name} must be a {kind}, got {value!r}") + "$"


def _tri():
    return Triangle.from_coords(TRI)


def _fan():
    return SectorConfig.from_angles_deg((90, 210, 330))

# one bad argument at each door: (build, the package error, its message)
DOORS = {
    "Point, huge": (lambda: Point(HUGE, 0.0), GeometryError, "^non-finite coordinate"),
    "Triangle.from_coords, huge": (lambda: Triangle.from_coords(((HUGE, 0), TRI[1], TRI[2])), GeometryError,
                                   "^non-finite coordinate"),
    "Triangle.from_coords, two points": (lambda: Triangle.from_coords(TRI[:2]), GeometryError, "^a triangle takes"),
    "Triangle.from_coords, three coordinates": (lambda: Triangle.from_coords(((0, 0, 0), TRI[1], TRI[2])),
                                                GeometryError, "^a triangle takes"),
    "Triangle.from_coords, None": (lambda: Triangle.from_coords(None), GeometryError, "^a triangle takes"),
    "ConvexPolygon, huge": (lambda: ConvexPolygon(((0, 0), (HUGE, 0), (1, 1))), GeometryError,
                            "^non-finite coordinate"),
    "ConvexPolygon, None": (lambda: ConvexPolygon(None), GeometryError, "^polygon vertices must be"),
    "ConvexPolygon, three coordinates": (lambda: ConvexPolygon(((0, 0, 0), (1, 0), (1, 1))), GeometryError,
                                         "^polygon vertices must be"),
    "ConvexPolygon, string": (lambda: ConvexPolygon("abc"), GeometryError, "^polygon vertices must be"),
    "SolverConfig, huge": (lambda: SolverConfig(area_tol_rel=HUGE), PartitionError, "^area_tol_rel must be a positive"),
    "SectorConfig, huge": (lambda: SectorConfig(((HUGE, 0), (0, 1), (-1, -1))), MassPartitionError, "not usable$"),
    "from_angles_deg, huge": (lambda: SectorConfig.from_angles_deg((HUGE, 120, 240)), MassPartitionError,
                              "^angles must be finite"),
    "verify_partition, huge": (lambda: verify_partition(Triangle.from_coords(TRI), Point(0.4, 0.3), tol=HUGE),
                               PartitionError, "^tol must be a positive finite number"),
    "verify_partition, nan": (lambda: verify_partition(Triangle.from_coords(TRI), Point(0.4, 0.3), tol=float("nan")),
                              PartitionError, "^tol must be a positive finite number"),
    "Point, long": (lambda: Point(LONG, 0.0), GeometryError, "^non-finite coordinate"),
    "Point, long Fraction": (lambda: Point(Fraction(LONG), 0.0), GeometryError, "^non-finite coordinate"),
    "ConvexPolygon, long Fraction": (lambda: ConvexPolygon(((0, 0), (Fraction(LONG), 0), (1, 1))), GeometryError,
                                     "^non-finite coordinate"),
    "Triangle, tuple vertex": (lambda: Triangle((0, 0), (1, 0), (0, 1)), GeometryError,
                               r"^triangle vertex a must be a Point, got \(0, 0\)$"),
    "Triangle.from_coords, long": (lambda: Triangle.from_coords(((LONG, 0), TRI[1], TRI[2])), GeometryError,
                                   "^non-finite coordinate"),
    "ConvexPolygon, long": (lambda: ConvexPolygon(((0, 0), (LONG, 0), (1, 1))), GeometryError,
                            "^non-finite coordinate"),
    "SectorConfig, long": (lambda: SectorConfig(((LONG, 0), (0, 1), (-1, -1))), MassPartitionError, "not usable$"),
    "from_angles_deg, long": (lambda: SectorConfig.from_angles_deg((LONG, 120, 240)), MassPartitionError,
                              "^angles must be finite"),
    "solve_translation targets, long": (
        lambda: solve_translation(ConvexPolygon(SQUARE), SectorConfig.from_angles_deg((90, 210, 330)), (LONG, 0.5, 0.5)),
        MassPartitionError, "^targets must be three positive areas"),
    "cut_line_offset, long": (lambda: cut_line_offset(Triangle.from_coords(TRI), "ab", LONG), PartitionError,
                              "^target_area must lie strictly between"),
    "ProblemSpec, long": (lambda: ProblemSpec(mode="triangle", triangle=((LONG, 0), TRI[1], TRI[2])), InputError,
                          "must be a finite number"),
    "verify_partition, negative": (lambda: verify_partition(Triangle.from_coords(TRI), Point(0.4, 0.3), tol=-1.0),
                                   PartitionError, "^tol must be a positive finite number"),
    "Triangle.vertex, int": (lambda: Triangle.from_coords(TRI).vertex(1), GeometryError, "^unknown vertex id 1$"),
    "Triangle.side, None": (lambda: Triangle.from_coords(TRI).side(None), GeometryError, "^unknown side id None$"),
    "Triangle.side_unit, int": (lambda: Triangle.from_coords(TRI).side_unit(12), GeometryError, "^unknown side id 12$"),
    "region_area, int": (lambda: region_area(Triangle.from_coords(TRI), 1, Point(0.4, 0.3)), GeometryError,
                         "^unknown vertex id 1$"),
    "region_polygon, None": (lambda: region_polygon(Triangle.from_coords(TRI), None, Point(0.4, 0.3)), GeometryError,
                             "^unknown vertex id None$"),
    "cut_line_offset, int side": (lambda: cut_line_offset(Triangle.from_coords(TRI), 1, 0.01), GeometryError,
                                  "^unknown side id 1$"),
    "cut_line_offset, bytes side": (lambda: cut_line_offset(Triangle.from_coords(TRI), b"ab", 0.01), GeometryError,
                                    "^unknown side id b'ab'$"),
    "Point, nested 600 deep": (lambda: Point(DEEP, 0.0), GeometryError, f"^coordinate {DEEP_SHOWN} is not a real number$"),
    "ConvexPolygon, nested 600 deep": (lambda: ConvexPolygon(DEEP), GeometryError,
                                       f"^polygon vertices must be \\(x, y\\) points, got {DEEP_SHOWN}$"),
    "from_angles_deg, nested 600 deep": (lambda: SectorConfig.from_angles_deg(DEEP), MassPartitionError,
                                         f"^angles must be three real numbers, got {DEEP_SHOWN}$"),
    "solve_newton, tuple seed": (lambda: solve_newton(Triangle.from_coords(TRI), seed=(0.3, 0.3)), PartitionError,
                                 r"^seed must be a Point, got \(0\.3, 0\.3\)$"),
    "solve_newton, int cfg": (lambda: solve_newton(Triangle.from_coords(TRI), cfg=5), PartitionError,
                              "^cfg must be a SolverConfig, got 5$"),
    "equal_partition, string cfg": (lambda: equal_partition(Triangle.from_coords(TRI), cfg="x"), PartitionError,
                                    "^cfg must be a SolverConfig, got 'x'$"),
    "equal_partition closed form, string cfg": (  # the closed form reads no cfg, but its door checks it
        lambda: equal_partition(Triangle.from_coords(((0, 0), (1, 0), (0.5, 0.5 / 2**0.5))), cfg="x"), PartitionError,
        "^cfg must be a SolverConfig, got 'x'$"),
    "solve_translation, int solver_cfg": (
        lambda: solve_translation(ConvexPolygon(SQUARE), SectorConfig.from_angles_deg((90, 210, 330)), (0.2, 0.3, 0.5),
                                  solver_cfg=3),
        PartitionError, "^solver_cfg must be a SolverConfig, got 3$"),
    "solve_translation, tuple polygon": (
        lambda: solve_translation(SQUARE, SectorConfig.from_angles_deg((90, 210, 330)), (0.2, 0.3, 0.5)),
        MassPartitionError, "^poly must be a ConvexPolygon, got "),
    "solve_translation, tuple fan": (
        lambda: solve_translation(ConvexPolygon(SQUARE), ((0, 1), (-1, -1), (1, -1)), (0.2, 0.3, 0.5)),
        MassPartitionError, "^fan must be a SectorConfig, got "),
    # a tuple where a door reads a Triangle, a Point, a ConvexPolygon or a SectorConfig
    "equal_partition, tuple tri": (lambda: equal_partition(TRI), PartitionError, _wrong("tri", "Triangle", TRI)),
    "classify, tuple tri": (lambda: classify(TRI), PartitionError, _wrong("tri", "Triangle", TRI)),
    "solve_newton, tuple tri": (lambda: solve_newton(TRI), PartitionError, _wrong("tri", "Triangle", TRI)),
    "solve_exterior, tuple tri": (lambda: solve_exterior(TRI), PartitionError, _wrong("tri", "Triangle", TRI)),
    "solve_maximin, tuple tri": (lambda: solve_maximin(TRI), PartitionError, _wrong("tri", "Triangle", TRI)),
    "solve_kkm, tuple tri": (lambda: solve_kkm(TRI), PartitionError, _wrong("tri", "Triangle", TRI)),
    "boundary_point_closed_form, tuple tri": (lambda: boundary_point_closed_form(TRI), PartitionError,
                                              _wrong("tri", "Triangle", TRI)),
    "cut_line_offset, tuple tri": (lambda: cut_line_offset(TRI, "ab", 0.1), PartitionError,
                                   _wrong("tri", "Triangle", TRI)),
    "verify_partition, tuple tri": (lambda: verify_partition(TRI, Point(0.4, 0.3)), PartitionError,
                                    _wrong("tri", "Triangle", TRI)),
    "verify_partition, tuple x": (lambda: verify_partition(_tri(), (0.4, 0.3)), PartitionError,
                                  _wrong("x", "Point", (0.4, 0.3))),
    "lemma_check, tuple tri": (lambda: lemma_check(TRI, Point(0.5, 0.0)), PartitionError,
                               _wrong("tri", "Triangle", TRI)),
    "lemma_check, tuple x": (lambda: lemma_check(_tri(), (0.5, 0.0)), PartitionError, _wrong("x", "Point", (0.5, 0.0))),
    "LabelSets, tuple tri": (lambda: LabelSets(TRI), PartitionError, _wrong("tri", "Triangle", TRI)),
    "LabelSets.label, tuple x": (lambda: LabelSets(_tri()).label((0.4, 0.3)), PartitionError,
                                 _wrong("x", "Point", (0.4, 0.3))),
    "region_area, tuple x": (lambda: region_area(_tri(), "a", (0.4, 0.3)), GeometryError,
                             _wrong("x", "Point", (0.4, 0.3))),
    "region_areas, tuple tri": (lambda: region_areas(TRI, Point(0.4, 0.3)), GeometryError,
                                _wrong("tri", "Triangle", TRI)),
    "region_polygon, tuple x": (lambda: region_polygon(_tri(), "a", (0.4, 0.3)), GeometryError,
                                _wrong("x", "Point", (0.4, 0.3))),
    "min_area_f, tuple x": (lambda: min_area_f(_tri(), (0.4, 0.3)), GeometryError, _wrong("x", "Point", (0.4, 0.3))),
    "sector_areas, tuple poly": (lambda: sector_areas(SQUARE, _fan(), Point(0.5, 0.5)), MassPartitionError,
                                 _wrong("poly", "ConvexPolygon", SQUARE)),
    "sector_areas, tuple cfg": (lambda: sector_areas(ConvexPolygon(SQUARE), FAN, Point(0.5, 0.5)), MassPartitionError,
                                _wrong("cfg", "SectorConfig", FAN)),
    "sector_areas, tuple apex": (lambda: sector_areas(ConvexPolygon(SQUARE), _fan(), (0.5, 0.5)), MassPartitionError,
                                 _wrong("apex", "Point", (0.5, 0.5))),
    "SectorConfig.from_triangle, tuple tri": (lambda: SectorConfig.from_triangle(TRI), MassPartitionError,
                                              _wrong("tri", "Triangle", TRI)),
    "Triangle.signed_distance, tuple": (lambda: _tri().signed_distance((0.4, 0.3)), GeometryError,
                                        _wrong("p", "Point", (0.4, 0.3))),
    # the output doors take a spec or a report, the SVG a solved triangle's report and the CSV a sweep's
    "run, dict spec": (lambda: run({"mode": "sweep"}), InputError, _wrong("spec", "ProblemSpec", {"mode": "sweep"})),
    "report_json, tuple report": (lambda: report_json((1, 2)), InputError, _wrong("report", "Report", (1, 2))),
    "emit_svg, tuple report": (lambda: emit_svg((1, 2)), InputError, _wrong("report", "Report", (1, 2))),
    "sweep_csv, tuple report": (lambda: sweep_csv((1, 2)), InputError, _wrong("report", "Report", (1, 2))),
    "sweep_csv, triangle report": (lambda: sweep_csv(run(ProblemSpec(mode="triangle", triangle=TRI))), InputError,
                                   "^CSV rendering needs a sweep report, got mode 'triangle'$"),
    "emit_svg, fan report": (
        lambda: emit_svg(run(ProblemSpec(mode="mass-partition", polygon=SQUARE, fractions=(0.2, 0.3, 0.5)))),
        InputError, "^SVG rendering needs a triangle report carrying a solution$"),
    # parse_spec takes text
    "parse_spec, int": (lambda: parse_spec(5), InputError, "^input is not valid JSON: "),
    "parse_spec, None": (lambda: parse_spec(None), InputError, "^input is not valid JSON: "),
}


def test_messages_show_values_as_repr_but_ints_past_the_float_range():
    for v in (1, -2.5, 10**300, (1,), (), [], (0.0, [1, (2.0, 3)]), "abc", None, Fraction(1, 3)):
        assert _shown(v) == repr(v)
    assert _shown((LONG, [HUGE])) == f"(<int of {LONG.bit_length()} bits>, [<int of {HUGE.bit_length()} bits>])"
    try:
        expected = repr(Fraction(LONG))
    except ValueError:  # the 4,300-digit limit of int to str, from Python 3.11 and 3.10.7
        expected = "<Fraction too long to show>"
    assert _shown(Fraction(LONG)) == expected
    # a message shows a value nested up to 99 deep whole, and cuts off what sits 100 lists or tuples deep
    assert _shown(_nested(99)) == repr(_nested(99)) and _shown((_nested(98),)) == repr((_nested(98),))
    assert _shown(_nested(100)) == "[" * 100 + "..." + "]" * 100


@pytest.mark.parametrize("door", sorted(DOORS))
def test_every_door_raises_the_package_error(door):
    build, error, message = DOORS[door]
    with pytest.raises(error, match=message):
        build()


OUTPUT_DOORS = ("run,", "report_json,", "emit_svg,", "sweep_csv,")


@pytest.mark.parametrize("door", [door for door in sorted(DOORS) if door.startswith(OUTPUT_DOORS)])
def test_output_doors_reject_as_invalid_value(door):
    with pytest.raises(InputError) as exc:
        DOORS[door][0]()
    assert exc.value.code == "invalid-value"


_RANGE = "'resolution' must be from 2 to 1000"
BAD_RESOLUTIONS = [
    (0, _RANGE), (1, _RANGE), (-3, _RANGE), (5000, _RANGE), ("x", "'resolution' must be an integer, got 'x'"),
    (2.5, "'resolution' must be an integer, got 2.5"), (True, "'resolution' must be an integer, got True"),
    (None, "'resolution' must be an integer, got None"),
]


@pytest.mark.parametrize("n, message", BAD_RESOLUTIONS, ids=[str(n) for n, _ in BAD_RESOLUTIONS])
def test_a_sweep_spec_built_in_code_refuses_what_a_parsed_one_refuses(n, message):
    with pytest.raises(InputError) as parsed:
        parse_spec(json.dumps({"mode": "sweep", "resolution": n}))
    assert (parsed.value.code, str(parsed.value)) == ("invalid-value", message)
    if n is None:  # a spec built in code takes None for no resolution, so the default
        return
    with pytest.raises(InputError) as built:
        ProblemSpec(mode="sweep", resolution=n)
    assert (built.value.code, str(built.value)) == (parsed.value.code, str(parsed.value))


def test_parse_spec_reads_text_only():
    for value in (5, None, 2.5, ["{}"]):
        with pytest.raises(InputError) as exc:
            parse_spec(value)
        assert exc.value.code == "malformed-json"
    assert parse_spec(b'{"mode": "sweep", "resolution": 4}') == ProblemSpec(mode="sweep", resolution=4)


# integer-valued inputs, so that every number type below holds them exactly
_RNG = random.Random(2)
TYPED_TRIANGLES = [tuple((_RNG.randint(-40, 40), _RNG.randint(-40, 40)) for _ in range(3)) for _ in range(40)]
TYPED_POLYGONS = (((0, 0), (4, 0), (4, 3), (0, 3)), ((0, 0), (6, 0), (6, 2), (3, 6), (0, 2)))  # areas 12 and 24
TYPED_FANS = (((0, 1), (-1, -1), (1, -1)), ((1, 0), (-1, 3), (-2, -3)), ((3, 1), (-1, 2), (0, -1)))
TYPED_FRACTIONS = ((1, 1, 2), (1, 2, 1), (1, 1, 1))  # of sums 4 and 3, so whole targets
NUMBER_TYPES = {"int": int, "np.int64": np.int64, "np.float32": np.float32, "np.float64": np.float64,
                "Fraction": Fraction}


def _answers(of):
    """Each typed job's answer as text: repr shows a float's every bit and
    the type of any number that is not a float."""
    out = []
    for tri in TYPED_TRIANGLES:
        points = [Point(of(x), of(y)) for x, y in tri]
        try:
            triangle = Triangle(*points)
        except GeometryError:  # a degenerate draw is refused whatever the type
            continue
        sol = equal_partition(triangle)
        out += [repr(sol), repr(verify_partition(triangle, sol.point, tol=of(1)))]
        area = int(triangle.area)
        if area >= 2:
            out.append(repr(cut_line_offset(triangle, "ab", of(area // 2))))
    for poly in TYPED_POLYGONS:
        polygon = ConvexPolygon(tuple((of(x), of(y)) for x, y in poly))
        for fan in TYPED_FANS:
            config = SectorConfig(tuple((of(x), of(y)) for x, y in fan))
            for fractions in TYPED_FRACTIONS:
                whole = int(polygon.area) // sum(fractions)
                sol = solve_translation(polygon, config, tuple(of(whole * f) for f in fractions))
                out.append(repr(sol._replace(targets=None)))
    return out


@pytest.mark.parametrize("name", sorted(NUMBER_TYPES))
def test_a_number_type_never_changes_an_answer(name):
    # a door converts every number to a float once, so the kernels see the
    # same float64 values whatever type brought them
    assert type(Point(NUMBER_TYPES[name](1), 0).x) is float
    assert _answers(NUMBER_TYPES[name]) == _answers(float)


def test_triangle_equality_ignores_swapped_bc():
    clockwise = Triangle.from_coords((TRI[0], TRI[2], TRI[1]))
    ccw = Triangle.from_coords(TRI)
    assert clockwise.swapped_bc and not ccw.swapped_bc
    assert clockwise == ccw and hash(clockwise) == hash(ccw)


def test_problem_spec_equality_ignores_what_it_builds():
    for make in (
        lambda: ProblemSpec(mode="triangle", triangle=TRI),
        lambda: ProblemSpec(mode="mass-partition", polygon=SQUARE, fractions=(0.2, 0.3, 0.5)),
    ):
        a, b = make(), make()
        for derived in ("shape", "fan", "target_areas", "config"):
            object.__setattr__(b, derived, object())
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b)


def test_polygon_equality_ignores_what_it_derives():
    a, b = ConvexPolygon.from_coords(SQUARE), ConvexPolygon.from_coords(SQUARE)
    assert (a.area, a.diameter) == (b.area, b.diameter) == (1.0, 2.0**0.5)
    for derived in ("area", "diameter", "_scale", "_snap", "_centroid"):
        object.__setattr__(b, derived, -1.0)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == f"ConvexPolygon(coords={SQUARE!r})"


def test_cli_import_loads_no_introspection_modules():
    # -S keeps site hooks from preloading typing, which would hide an import
    # of it; -I keeps the environment and user site out
    code = "import sys; sys.path.insert(0, sys.argv[1]); import tripart.cli; print(*sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(SRC)], capture_output=True, text=True, check=True
    )
    loaded = set(proc.stdout.split())
    assert "tripart.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "typing", "ast", "dis"}), loaded
