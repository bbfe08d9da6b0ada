"""Problem specs, runs and reports.

JSON input describes one job (a triangle to partition, a polygon plus fan
to translate, or a classification sweep); `run` executes it and the
serializers below render byte-stable output: floats go through a 17
significant digit round-trip format and keys have a fixed order.  `run`
is a pure function of its spec, solver settings included, so identical
inputs always produce identical bytes and a report's echoed input
reproduces it.  A sweep is never held whole: it is classified and
written one base angle at a time.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from functools import lru_cache, partial
from itertools import chain

from .geometry import VERTEX_IDS, Classification, ConvexPolygon, GeometryError, Triangle, Vec, _need, _real_float, _shown, _Value
from .geometry import _SHOWN_DEPTH  # where `_shown` stops, and so does `_as_json`
from .geometry import ACUTE, KINDS, RIGHT, _obtuse_kind  # the sweep's kernel
from .masspart import MassPartitionError, SectorConfig, _check_targets, solve_translation
from .partition import PartitionError, SolverConfig, equal_partition

MODES = ("triangle", "mass-partition", "sweep")
DEFAULT_RAYS_DEG = (90.0, 210.0, 330.0)
DEFAULT_SWEEP_RESOLUTION = 100
MAX_SWEEP_RESOLUTION = 1000  # a sweep of resolution n has about n^2 / 2 rows: 498,501 at the cap
_MODE_FIELDS = {  # the fields each mode uses
    "triangle": {"mode", "triangle", "solver"},
    "mass-partition": {"mode", "polygon", "rays", "targets", "fractions", "solver"},
    "sweep": {"mode", "resolution"},
}
_SHAPES = {"triangle": ("triangle", Triangle.from_coords), "mass-partition": ("polygon", ConvexPolygon)}
_DEFAULTS = {"mass-partition": {"rays": DEFAULT_RAYS_DEG}, "sweep": {"resolution": DEFAULT_SWEEP_RESOLUTION}}


class InputError(ValueError):
    """Rejected problem input; `code` is one of malformed-json,
    missing-field, degenerate-geometry, invalid-value."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


_invalid = partial(InputError, "invalid-value")  # `_need`'s error at the output doors


def _check_fields(mode, keys) -> None:
    """The mode rule, then the per-mode field rule: InputError for the
    first of `keys` that `mode` does not use, a key that names no field
    included."""
    if mode not in MODES:
        raise InputError("invalid-value", f"mode must be one of {', '.join(MODES)}, got {_shown(_as_json(mode))}")
    for key in keys:
        if key not in _MODE_FIELDS[mode]:
            raise InputError("invalid-value", f"field '{key}' is not allowed in {mode} mode")


class ProblemSpec(_Value):
    """One runnable job.  Construction checks the mode and the fields it
    uses, then passes every field given (a value that is not None)
    through its reader, the type rule `parse_spec` applies, `solver`
    first, before it builds anything: so a spec built in code takes
    exactly the values a parsed one takes, or raises the same InputError.
    A reader keeps each number's type; `solver` takes a mapping or
    (name, value) pairs and keeps the options sorted by name.  A triangle
    job requires `triangle`, a fan job `polygon` (missing-field
    otherwise); _DEFAULTS fills a fan's `rays` and a sweep's
    `resolution`.  It keeps what it builds: `shape` (the Triangle or
    ConvexPolygon), `config` (the SolverConfig) and, for a fan job, `fan`
    and `target_areas`, the three areas it solves for; each is None where
    the mode has none.  Every later step reads these; they take no part in
    equality."""

    _fields = ("mode", "triangle", "polygon", "rays", "targets", "fractions", "resolution", "solver")

    def __init__(
        self,
        mode: str,
        triangle: tuple[Vec, Vec, Vec] | None = None,
        polygon: tuple[Vec, ...] | None = None,
        rays: tuple[float, float, float] | None = None,
        targets: tuple[float, float, float] | None = None,
        fractions: tuple[float, float, float] | None = None,
        resolution: int | None = None,
        solver: dict | tuple[tuple[str, float], ...] | None = None,
    ):
        given = zip(self._fields[1:], (triangle, polygon, rays, targets, fractions, resolution, solver))
        given = {k: v for k, v in given if v is not None}
        _check_fields(mode, sorted(given))  # in the order parse_spec checks the keys
        f = dict.fromkeys(self._fields) | {"mode": mode, "solver": ()} | _DEFAULTS.get(mode, {})
        f |= {k: read(given[k], k) for k, read in _READERS.items() if k in given}
        shape = fan = areas = config = None
        if mode != "sweep":
            field, build = _SHAPES[mode]
            if field not in given:
                raise InputError("missing-field", f"{mode} mode requires field '{field}'")
            try:
                shape = build(f[field])
            except GeometryError as exc:
                raise InputError("degenerate-geometry", str(exc)) from exc
            if mode == "mass-partition":
                fan, areas = _fan_job(f["rays"], f["targets"], f["fractions"], shape.area)
            try:
                config = SolverConfig(**dict(f["solver"]))
            except PartitionError as exc:  # a number out of an option's range
                raise InputError("invalid-value", str(exc)) from exc
        self.__dict__.update(f, shape=shape, fan=fan, target_areas=areas, config=config)


def _fan_job(rays, targets, fractions, area: float) -> tuple[SectorConfig, tuple]:
    """The fan of a fan job and the three areas it solves for, after
    checking that its rays make one and that exactly one of `targets` and
    `fractions` is given and obeys the rule `solve_translation` meets."""
    try:
        fan = SectorConfig.from_angles_deg(rays)
    except ValueError as exc:
        raise InputError("invalid-value", f"unusable fan: {exc}") from exc
    if (targets is None) == (fractions is None):
        raise InputError(
            "missing-field" if targets is None else "invalid-value",
            "give exactly one of 'targets' (absolute areas) or 'fractions'",
        )
    vals = targets if fractions is None else tuple([f * area for f in fractions])
    try:
        _check_targets(vals, area)
    except MassPartitionError as exc:
        msg = str(exc) if fractions is None else f"fractions must be positive and sum to 1, got {fractions!r}"
        raise InputError("invalid-value", msg) from exc
    return fan, vals


class Report(
    namedtuple(
        "Report",
        "mode spec method residual classification point areas fractions total_area regions apex"
        " translation achieved targets iterations",
        defaults=(None,) * 11,
    )
):
    """Result of one run.  Only the fields for the report's mode are set;
    the rest are None.  A sweep report holds no rows: `sweep_csv` writes
    them from its spec's resolution."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------


_FLOAT = "%.17g"  # a float's canonical format: 17 significant digits, an exact float64 round trip
_PAIR = f"[{_FLOAT},{_FLOAT}]"
_TRIPLE = f"[{_FLOAT},{_FLOAT},{_FLOAT}]"


def _fmt_num(v) -> str:
    """A number's canonical bytes: an int as written, a float with 17
    significant digits (exact float64 round-trip) and both zeros as 0."""
    if isinstance(v, int):
        return str(v)
    if math.isfinite(v):
        return _FLOAT % (v + 0.0)  # -0.0 + 0.0 is 0.0
    raise ValueError(f"cannot serialize non-finite number {v!r}")


def _fill(template: str, values: list) -> str:
    """`template` with its _FLOAT slots, in order, holding the
    canonical bytes of `values`, the same bytes `_fmt_num` gives each one.
    When every value is a float and their sum is finite, which a sum of
    floats is only when every term is, one `%` call writes them all, each
    as v + 0.0, which turns -0.0 into 0.0.  Otherwise each value goes
    through `_fmt_num`, which writes an int as written and raises
    ValueError on a non-finite number."""
    if set(map(type, values)) == {float} and math.isfinite(sum(values)):
        return template % tuple([v + 0.0 for v in values])
    return template.replace(_FLOAT, "%s") % tuple(map(_fmt_num, values))


@lru_cache(maxsize=64)
def _points_template(n: int) -> str:
    """The template of a list of n points, built once per n while in use."""
    return "[" + ",".join([_PAIR] * n) + "]"


def canonical_json(value) -> str:
    """Compact JSON with deterministic bytes: insertion-ordered keys and
    floats written with 17 significant digits (exact float64 round-trip)."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=True)
    if isinstance(value, (int, float)):
        return _fmt_num(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in value) + "]"
    if isinstance(value, dict):
        parts = (f"{json.dumps(str(k))}:{canonical_json(v)}" for k, v in value.items())
        return "{" + ",".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _as_json(v, depth: int = 0):
    """`v` with its tuples as lists, the form `parse_spec` reads, so that a
    reader's message shows a value built in code as its JSON would, as deep as `_shown` shows."""
    return [_as_json(x, depth + 1) for x in v] if isinstance(v, (list, tuple)) and depth < _SHOWN_DEPTH else v


def _require_number(v, name: str) -> int | float:
    if not isinstance(v, (int, float)) or not math.isfinite(_real_float(v)):
        raise InputError("invalid-value", f"field '{name}' must be a finite number, got {_shown(_as_json(v))}")
    return v


def _require_pair(v, name: str) -> Vec:
    if type(v) is list and len(v) == 2:
        x, y = v
        if type(x) is float and type(y) is float and math.isfinite(x) and math.isfinite(y):
            return (x, y)  # a pair of JSON floats needs no check but finiteness
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise InputError("invalid-value", f"'{name}' must be a pair [x, y], got {_shown(_as_json(v))}")
    return (_require_number(v[0], name), _require_number(v[1], name))


def _require_triple(v, name: str) -> tuple[float, float, float]:
    if not isinstance(v, (list, tuple)) or len(v) != 3:
        raise InputError("invalid-value", f"'{name}' must have exactly three numbers, got {_shown(_as_json(v))}")
    return tuple([_require_number(x, name) for x in v])


def _require_vertices(v, name: str) -> tuple[Vec, ...]:
    """A triangle's three vertices or a polygon's three or more."""
    exact = name == "triangle"
    if not isinstance(v, (list, tuple)) or (len(v) != 3 if exact else len(v) < 3):
        raise InputError("invalid-value", f"'{name}' must list {'exactly' if exact else 'at least'} three vertices")
    return tuple([_require_pair(p, name) for p in v])


def _require_resolution(v, name: str) -> int:
    if not isinstance(v, (int, float)) or not math.isfinite(_real_float(v)) or v != int(v):
        raise InputError("invalid-value", f"'{name}' must be an integer, got {_shown(_as_json(v))}")
    if not 2 <= int(v) <= MAX_SWEEP_RESOLUTION:
        raise InputError("invalid-value", f"'{name}' must be from 2 to {MAX_SWEEP_RESOLUTION}")
    return int(v)


def _require_solver(raw, name: str) -> tuple[tuple[str, float], ...]:
    """The options of a mapping (a JSON object, or (name, value) pairs),
    sorted by name; a repeated name keeps its last value, as in JSON."""
    try:
        raw = dict(None if isinstance(raw, str) else raw)  # dict("") would be {}
    except (TypeError, ValueError):
        raise InputError("invalid-value", f"'{name}' must be an object of option values") from None
    items = []
    for key in sorted(raw, key=str):  # names in code need not be strings
        if key not in SolverConfig._fields:
            raise InputError("invalid-value", f"unknown {name} option '{key}'")
        items.append((key, _require_number(raw[key], f"{name}.{key}")))
    return tuple(items)


_READERS = {  # in the order a spec reads them: `solver` first, as parse_spec checks it first
    "solver": _require_solver,
    "triangle": _require_vertices,
    "polygon": _require_vertices,
    "rays": _require_triple,
    "targets": _require_triple,
    "fractions": _require_triple,
    "resolution": _require_resolution,
}


def parse_spec(text: str) -> ProblemSpec:
    """Parse a JSON problem spec: the rules only JSON has, then the spec's
    own.  Raises InputError with a stable error code on any problem; a
    returned spec is runnable."""
    return ProblemSpec(**_spec_fields(text))


def _spec_fields(text: str) -> dict:
    """The JSON half of `parse_spec`: the spec's arguments, after the rules
    only JSON has: an object with a `mode`, no key that names no field, a
    `solver` that is an object or null (no options), and no other null."""
    try:
        data = json.loads(text)
    except (ValueError, TypeError, RecursionError) as exc:  # bad JSON or no text, an int past the digit limit, deep nesting
        raise InputError("malformed-json", f"input is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("invalid-value", "top-level JSON value must be an object")
    if "mode" not in data:
        raise InputError("missing-field", "field 'mode' is required")
    _check_fields(data["mode"], sorted(data))
    solver = data.get("solver")
    if solver is None:
        data.pop("solver", None)
    elif not isinstance(solver, dict):
        raise InputError("invalid-value", "'solver' must be an object of option values")
    for key, v in data.items():
        if v is None:
            _READERS[key](v, key)  # a null is no value of the field
    return data


def _spec_template(spec: ProblemSpec) -> tuple[str, list]:
    """A spec's canonical JSON, its set fields in declaration order, as a `_fill`
    template and its values: a report's "input" echo, which parse_spec reads back."""
    out = f'{{"mode":"{spec.mode}"'
    values = []
    for key in ("triangle", "polygon"):
        pts = getattr(spec, key)
        if pts is not None:
            out += f',"{key}":{_points_template(len(pts))}'
            values.extend(chain.from_iterable(pts))
    for key in ("rays", "targets", "fractions"):
        nums = getattr(spec, key)
        if nums is not None:
            out += f',"{key}":[{",".join([_FLOAT] * len(nums))}]'
            values.extend(nums)
    if spec.resolution is not None:
        out += f',"resolution":{_FLOAT}'
        values.append(spec.resolution)
    if spec.solver:
        out += ',"solver":{' + ",".join(f'"{k}":{_FLOAT}' for k, _ in spec.solver) + "}"
        values.extend(v for _, v in spec.solver)
    return out + "}", values


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def _tan_deg(deg: float) -> float:
    return math.tan(math.radians(deg))


def _apex(a_deg: float, b_deg: float, ta: float, tb: float) -> Vec:
    """Where the rays from (0,0) and (1,0) at base angles a_deg and b_deg,
    of tangents ta = _tan_deg(a_deg) and tb = _tan_deg(b_deg), meet above
    the base."""
    if a_deg == 90.0:
        return (0.0, tb)
    if b_deg == 90.0:
        return (1.0, ta)
    s = ta + tb
    return (tb / s, ta * tb / s)


def triangle_from_angles(a_deg: float, b_deg: float) -> Triangle:
    """Triangle with base vertices (0,0), (1,0) and the given base angles
    in degrees; the third vertex is wherever the two base rays meet."""
    if not (0.0 < a_deg and 0.0 < b_deg and a_deg + b_deg < 180.0):
        raise PartitionError(f"angles must be positive with sum below 180, got {a_deg}, {b_deg}")
    apex = _apex(a_deg, b_deg, _tan_deg(a_deg), _tan_deg(b_deg))
    return Triangle.from_coords(((0.0, 0.0), (1.0, 0.0), apex))


def input_order(tri: Triangle, abc: tuple) -> tuple:
    """Per-vertex values given for the internal labels a, b, c, in the
    order the vertices were input: Triangle normalizes to CCW, swapping b
    and c of a clockwise input."""
    return (abc[0], abc[2], abc[1]) if tri.swapped_bc else tuple(abc)


def _run_triangle(spec: ProblemSpec) -> Report:
    tri = spec.shape
    sol = equal_partition(tri, spec.config)
    cls = sol.classification
    if tri.swapped_bc and cls.obtuse_vertex:
        label = input_order(tri, VERTEX_IDS)[VERTEX_IDS.index(cls.obtuse_vertex)]
        cls = Classification(cls.kind, label, cls.criterion_margin)
    areas = input_order(tri, sol.areas)
    return Report(
        mode="triangle",
        spec=spec,
        method=sol.method,
        residual=sol.residual,
        classification=cls,
        point=sol.point.as_tuple(),
        areas=areas,
        fractions=tuple(a / tri.area for a in areas),
        total_area=tri.area,
        regions=input_order(tri, sol.regions),
    )


def _run_mass_partition(spec: ProblemSpec) -> Report:
    poly = spec.shape
    sol = solve_translation(poly, spec.fan, spec.target_areas, spec.config)
    return Report(
        mode="mass-partition",
        spec=spec,
        method=sol.method,
        residual=sol.residual,
        total_area=poly.area,
        apex=sol.apex.as_tuple(),
        translation=sol.translation,
        achieved=sol.achieved,
        targets=sol.targets,
        iterations=sol.iterations,
    )


def _grid_degs(n: int) -> list:
    """The sweep's angles 180 k / n degrees, k = 0 .. n - 1."""
    return [180.0 * k / n for k in range(n)]


def _obtuse_cells(ta: float, tbs, widest: int) -> tuple[list, list]:
    """The kinds and margins, as two lists, that the module name
    `_obtuse_kind` gives the cells of base angle tangents ta and each tb
    of `tbs` with the widest angle at index `widest` (0, 1, 2 for a, b, c).
    Only the two angles after the widest are computed, at _apex's general
    apex (x, y): `_triangle_angles` on (0,0), (1,0), (x, y) less products
    with an exact 1.0 or 0.0, so the same bits (cross products y at a and
    b, dot products x at a and 1.0 - x at b, and at c w's y is u's)."""
    atan2, tan, kind_of = math.atan2, math.tan, _obtuse_kind
    if widest == 2:  # the angles at a and b
        pairs = [
            kind_of(tan(atan2(y, x)), tan(atan2(y, 1.0 - x)))
            for tb in tbs for s in [ta + tb] for x in [tb / s] for y in [abs(ta * tb / s)]
        ]
    elif widest == 0:  # the angles at b and c
        pairs = [
            kind_of(tan(atan2(abs(y), wx)), tan(atan2(abs(ux * uy - uy * wx), ux * wx + uy * uy)))
            for tb in tbs for s in [ta + tb] for x in [tb / s] for y in [ta * tb / s]
            for ux in [0.0 - x] for uy in [0.0 - y] for wx in [1.0 - x]
        ]
    else:  # the angles at c and a
        pairs = [
            kind_of(tan(atan2(abs(ux * uy - uy * wx), ux * wx + uy * uy)), tan(atan2(abs(y), x)))
            for tb in tbs for s in [ta + tb] for x in [tb / s] for y in [ta * tb / s]
            for ux in [0.0 - x] for uy in [0.0 - y] for wx in [1.0 - x]
        ]
    return [k for k, _ in pairs], [m for _, m in pairs]


def _sweep_grid(n: int):
    """The sweep of resolution n, one base angle at a time: each index i
    into `_grid_degs(n)` with the kinds of its cells j = 1 .. n - i - 1
    and the margins of its obtuse cells, both lists in j order.  Cell
    (i, j) has the angles 180 / n times i, j and k = n - i - j, and no
    grid angle but 90 is within 90 / n degrees of a right one, so the
    integers give the kinds `_classify_angles` would: right if 2i, 2j or
    2k is n, acute if all are below n, else obtuse with the widest angle
    at the index whose double exceeds n.  Only obtuse cells take
    trigonometry, in `_obtuse_cells`."""
    tans = [_tan_deg(d) for d in _grid_degs(n)]
    m = n // 2 + 1  # the least index of an obtuse angle
    for i in range(1, n - 1):
        ta = tans[i]
        if 2 * i > n:
            yield (i, *_obtuse_cells(ta, tans[1 : n - i], 0))
        elif 2 * i == n:
            yield i, [RIGHT] * (n - i - 1), []
        else:  # obtuse at c while 2k > n, then acute or right, then obtuse at b once 2j > n
            c = n - i - m + 1
            kinds, margins = _obtuse_cells(ta, tans[1:c], 2)
            kinds += [RIGHT if n in (2 * j, 2 * (n - i - j)) else ACUTE for j in range(c, m)]
            at_b = _obtuse_cells(ta, tans[m : n - i], 1)
            yield i, kinds + at_b[0], margins + at_b[1]


def run(spec: ProblemSpec) -> Report:
    """Execute a spec with the solver settings it holds.  A sweep's report
    carries only the spec; `sweep_csv` produces its rows."""
    if _need(spec, ProblemSpec, "spec", _invalid).mode == "sweep":
        return Report(mode="sweep", spec=spec, method="classify", residual=0.0)
    if spec.mode == "triangle":
        return _run_triangle(spec)
    return _run_mass_partition(spec)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _triangle_template(spec: str, kind: str, vertex: str, margin: str, method: str, ra: int, rb: int, rc: int) -> str:
    """A triangle report's template, from its parts and ring sizes, built once per output shape while in use."""
    return (
        f'{{"mode":"triangle","input":{spec},'
        f'"classification":{{"kind":"{kind}","obtuse_vertex":{vertex},"criterion_margin":{margin}}},'
        f'"method":"{method}","point":{_PAIR},'
        f'"areas":{{"at_a":{_FLOAT},"at_b":{_FLOAT},"at_c":{_FLOAT},"fractions":{_TRIPLE},'
        f'"total":{_FLOAT}}},"residual":{_FLOAT},'
        f'"regions":{{"at_a":{_points_template(ra)},"at_b":{_points_template(rb)},"at_c":{_points_template(rc)}}}}}'
    )


def report_json(report: Report) -> str:
    """Canonical JSON for a solve report (triangle or mass-partition),
    from one template, spec echo included, built once per triangle output
    shape while in use and filled in one `_fill`; `canonical_json` of the
    same payload gives the same bytes.  The strings (kind, method, vertex
    id) are package constants that need no escaping."""
    spec, values = _spec_template(_need(report, Report, "report", _invalid).spec)
    if report.mode == "triangle":
        cls = report.classification
        vertex = "null" if cls.obtuse_vertex is None else f'"{cls.obtuse_vertex}"'
        margin = "null"
        if cls.criterion_margin is not None:
            margin = _FLOAT
            values.append(cls.criterion_margin)
        values += (*report.point, *report.areas, *report.fractions, report.total_area, report.residual)
        for ring in report.regions:
            values.extend(chain.from_iterable(ring))
        return _fill(_triangle_template(spec, cls.kind, vertex, margin, report.method, *map(len, report.regions)), values)
    if report.mode == "mass-partition":
        values += (*report.apex, *report.translation, *report.achieved, *report.targets)
        values += (report.total_area, report.residual)
        return _fill(
            f'{{"mode":"mass-partition","input":{spec},"method":"{report.method}",'
            f'"apex":{_PAIR},"translation":{_PAIR},'
            f'"areas":{{"achieved":{_TRIPLE},"targets":{_TRIPLE},'
            f'"total":{_FLOAT}}},"residual":{_FLOAT},'
            f'"iterations":{_fmt_num(report.iterations)}}}',  # an int, written into the template
            values,
        )
    raise ValueError(f"no JSON rendering for mode {report.mode!r}")


def sweep_csv(report: Report) -> str:
    """Deterministic CSV for a sweep report, one row per cell of its spec's
    resolution in `_sweep_grid` order; the margin is left blank for kinds
    where the criterion does not apply."""
    if _need(report, Report, "report", _invalid).mode != "sweep":
        raise _invalid(f"CSV rendering needs a sweep report, got mode {report.mode!r}")
    return "".join(_sweep_lines(report.spec.resolution))


def _sweep_lines(n: int):
    """`sweep_csv` of resolution n in pieces a writer can stream: the header,
    then each base angle's lines as one `_fill` of its angle string joined
    with its cells' row tails ",b,kind,margin\n", from a table built per call
    for each grid angle b and kind, with a _FLOAT slot for an obtuse margin
    (so margins have `_fmt_num`'s bytes and errors) and none for the rest."""
    angles = list(map(_fmt_num, _grid_degs(n)))
    heads = [f",{b}," for b in angles]
    tails = {k: [h + s for h in heads] for k in KINDS for s in [f"{k},{'' if k in (ACUTE, RIGHT) else _FLOAT}\n"]}
    yield "angle_a_deg,angle_b_deg,kind,margin\n"
    for i, kinds, margins in _sweep_grid(n):
        a = angles[i]
        yield _fill(a + a.join([tails[k][j] for j, k in enumerate(kinds, 1)]), margins)
