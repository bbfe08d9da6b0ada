"""The public types: value semantics of the validated types and the
records, the package's own errors at every door, and an import of the
command line that stays cheap."""

import subprocess
import sys
from pathlib import Path

import pytest

from tripart.geometry import ConvexPolygon, GeometryError, Point, RegionAreas, Triangle
from tripart.masspart import MassPartitionError, SectorConfig, TranslationSolution
from tripart.partition import (
    Classification,
    PartitionError,
    PartitionSolution,
    SolverConfig,
    SolverReport,
    VerifyReport,
    verify_partition,
)
from tripart.problem import ProblemSpec, Report, SweepRow
from tripart.rootfind import RootResult

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
    "SweepRow": (lambda: SweepRow(10.0, 20.0, "acute", None), lambda: SweepRow(10.0, 30.0, "acute", None)),
}
RECORDS = (
    RegionAreas, RootResult, SolverReport, Classification, PartitionSolution,
    VerifyReport, TranslationSolution, Report, SweepRow,
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

# one bad argument at each door: (build, the package error, its message)
DOORS = {
    "Point, huge": (lambda: Point(HUGE, 0.0), GeometryError, "^non-finite point"),
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
    "verify_partition, negative": (lambda: verify_partition(Triangle.from_coords(TRI), Point(0.4, 0.3), tol=-1.0),
                                   PartitionError, "^tol must be a positive finite number"),
}


@pytest.mark.parametrize("door", sorted(DOORS))
def test_every_door_raises_the_package_error(door):
    build, error, message = DOORS[door]
    with pytest.raises(error, match=message):
        build()


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
    for derived in ("area", "diameter", "_snap"):
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
