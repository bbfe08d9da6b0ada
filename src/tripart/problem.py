"""Problem specs, runs and reports.

JSON input describes one job (a triangle to partition, a polygon plus fan
to translate, or a classification sweep); `run` executes it and the
serializers below render byte-stable output: floats go through a 17
significant digit round-trip format, keys have a fixed order, and timing
is kept out of the canonical payload so identical inputs always produce
identical bytes.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields
from typing import NamedTuple

from .geometry import ConvexPolygon, GeometryError, Triangle, Vec, _triangle_angles
from .masspart import SectorConfig, Targets, solve_translation
from .partition import (
    VERTEX_IDS,
    Classification,
    PartitionError,
    SolverConfig,
    _classify_angles,
    equal_partition,
)

MODES = ("triangle", "mass-partition", "sweep")
DEFAULT_RAYS_DEG = (90.0, 210.0, 330.0)
DEFAULT_SWEEP_RESOLUTION = 100
_SOLVER_KEYS = tuple(f.name for f in fields(SolverConfig))
_ALLOWED_KEYS = {
    "triangle": {"mode", "triangle", "solver"},
    "mass-partition": {"mode", "polygon", "rays", "targets", "fractions", "solver"},
    "sweep": {"mode", "resolution"},
}


class InputError(ValueError):
    """Rejected problem input; `code` is one of malformed-json,
    missing-field, degenerate-geometry, invalid-value."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class ProblemSpec:
    mode: str
    triangle: tuple[Vec, Vec, Vec] | None = None
    polygon: tuple[Vec, ...] | None = None
    rays: tuple[float, float, float] | None = None
    targets: tuple[float, float, float] | None = None
    fractions: tuple[float, float, float] | None = None
    resolution: int | None = None
    solver: tuple[tuple[str, float], ...] = ()


class SweepRow(NamedTuple):
    angle_a_deg: float
    angle_b_deg: float
    kind: str
    margin: float | None


@dataclass(frozen=True)
class Report:
    """Result of one run.  Only the fields for the report's mode are set.
    `timing_s` is diagnostic and never serialized."""

    mode: str
    input_echo: dict
    method: str
    residual: float
    timing_s: float
    classification: Classification | None = None
    point: Vec | None = None
    areas: tuple[float, float, float] | None = None
    fractions: tuple[float, float, float] | None = None
    total_area: float | None = None
    regions: tuple[tuple[Vec, ...], ...] | None = None
    apex: Vec | None = None
    translation: Vec | None = None
    achieved: tuple[float, float, float] | None = None
    targets: tuple[float, float, float] | None = None
    iterations: int | None = None
    sweep_rows: tuple[SweepRow, ...] = field(default=(), compare=False)


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------


def _fmt_num(v) -> str:
    if isinstance(v, int):
        return str(v)
    if not math.isfinite(v):
        raise ValueError(f"cannot serialize non-finite number {v!r}")
    if v == 0.0:
        return "0"
    return format(v, ".17g")


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


def _require_number(v, name: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise InputError("invalid-value", f"field '{name}' must be a finite number, got {v!r}")
    return float(v)


def _require_pair(v, name: str) -> Vec:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise InputError("invalid-value", f"'{name}' must be a pair [x, y], got {v!r}")
    return (_require_number(v[0], name), _require_number(v[1], name))


def _require_triple(v, name: str) -> tuple[float, float, float]:
    if not isinstance(v, (list, tuple)) or len(v) != 3:
        raise InputError("invalid-value", f"'{name}' must have exactly three numbers, got {v!r}")
    return tuple(_require_number(x, name) for x in v)


def _check_keys(data: dict, mode: str) -> None:
    for key in sorted(data):
        if key not in _ALLOWED_KEYS[mode]:
            raise InputError("invalid-value", f"field '{key}' is not allowed in {mode} mode")


def _parse_solver(data: dict) -> tuple[tuple[str, float], ...]:
    raw = data.get("solver")
    if raw is None:
        return ()
    if not isinstance(raw, dict):
        raise InputError("invalid-value", "'solver' must be an object of option values")
    items = []
    for key in sorted(raw):
        if key not in _SOLVER_KEYS:
            raise InputError("invalid-value", f"unknown solver option '{key}'")
        items.append((key, _require_number(raw[key], f"solver.{key}")))
    try:
        SolverConfig(**dict(items))
    except PartitionError as exc:
        raise InputError("invalid-value", str(exc)) from exc
    return tuple(items)


def parse_spec(text: str) -> ProblemSpec:
    """Parse and validate a JSON problem spec, filling defaults (fan rays,
    sweep resolution).  Raises InputError with a stable error code on any
    problem; a returned spec is runnable."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("malformed-json", f"input is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("invalid-value", "top-level JSON value must be an object")
    if "mode" not in data:
        raise InputError("missing-field", "field 'mode' is required")
    mode = data["mode"]
    if mode not in MODES:
        raise InputError("invalid-value", f"mode must be one of {', '.join(MODES)}, got {mode!r}")
    _check_keys(data, mode)

    if mode == "triangle":
        if "triangle" not in data:
            raise InputError("missing-field", "triangle mode requires field 'triangle'")
        raw = data["triangle"]
        if not isinstance(raw, (list, tuple)) or len(raw) != 3:
            raise InputError("invalid-value", "'triangle' must list exactly three vertices")
        coords = tuple(_require_pair(p, "triangle") for p in raw)
        try:
            Triangle.from_coords(coords)
        except GeometryError as exc:
            raise InputError("degenerate-geometry", str(exc)) from exc
        return ProblemSpec(mode=mode, triangle=coords, solver=_parse_solver(data))

    if mode == "mass-partition":
        if "polygon" not in data:
            raise InputError("missing-field", "mass-partition mode requires field 'polygon'")
        raw = data["polygon"]
        if not isinstance(raw, (list, tuple)) or len(raw) < 3:
            raise InputError("invalid-value", "'polygon' must list at least three vertices")
        coords = tuple(_require_pair(p, "polygon") for p in raw)
        try:
            poly = ConvexPolygon.from_coords(coords)
        except GeometryError as exc:
            raise InputError("degenerate-geometry", str(exc)) from exc
        if poly.is_empty():
            raise InputError("degenerate-geometry", "polygon collapses to nothing after deduplication")
        area = poly.area
        if area <= 1e-12 * poly.diameter * poly.diameter:
            raise InputError("degenerate-geometry", "polygon vertices are collinear")
        rays = DEFAULT_RAYS_DEG
        if "rays" in data:
            rays = _require_triple(data["rays"], "rays")
            try:
                SectorConfig.from_angles_deg(rays)
            except ValueError as exc:
                raise InputError("invalid-value", f"unusable fan: {exc}") from exc
        has_targets = "targets" in data
        has_fractions = "fractions" in data
        if has_targets == has_fractions:
            raise InputError(
                "missing-field" if not has_targets else "invalid-value",
                "give exactly one of 'targets' (absolute areas) or 'fractions'",
            )
        targets = fractions = None
        if has_fractions:
            fractions = _require_triple(data["fractions"], "fractions")
            if any(f <= 0.0 for f in fractions):
                raise InputError("invalid-value", "fractions must all be positive")
            if abs(sum(fractions) - 1.0) > 1e-9:
                raise InputError("invalid-value", f"fractions must sum to 1, got {sum(fractions)!r}")
        else:
            targets = _require_triple(data["targets"], "targets")
            if any(t <= 0.0 for t in targets):
                raise InputError("invalid-value", "targets must all be positive")
            if abs(sum(targets) - area) > 1e-12 * area:
                raise InputError(
                    "invalid-value",
                    f"targets sum to {sum(targets)!r} but the polygon area is {area!r}",
                )
        return ProblemSpec(
            mode=mode,
            polygon=coords,
            rays=rays,
            targets=targets,
            fractions=fractions,
            solver=_parse_solver(data),
        )

    resolution = DEFAULT_SWEEP_RESOLUTION
    if "resolution" in data:
        v = data["resolution"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v) or v != int(v):
            raise InputError("invalid-value", f"'resolution' must be an integer, got {v!r}")
        resolution = int(v)
        if resolution < 2:
            raise InputError("invalid-value", "'resolution' must be at least 2")
    return ProblemSpec(mode=mode, resolution=resolution)


def spec_dict(spec: ProblemSpec) -> dict:
    """Spec as a plain dict in canonical key order (used for echo and
    serialization)."""
    out: dict = {"mode": spec.mode}
    if spec.triangle is not None:
        out["triangle"] = [list(p) for p in spec.triangle]
    if spec.polygon is not None:
        out["polygon"] = [list(p) for p in spec.polygon]
    if spec.rays is not None:
        out["rays"] = list(spec.rays)
    if spec.targets is not None:
        out["targets"] = list(spec.targets)
    if spec.fractions is not None:
        out["fractions"] = list(spec.fractions)
    if spec.resolution is not None:
        out["resolution"] = spec.resolution
    if spec.solver:
        out["solver"] = dict(spec.solver)
    return out


def serialize_spec(spec: ProblemSpec) -> str:
    """Canonical JSON for a spec; parse_spec(serialize_spec(s)) == s."""
    return canonical_json(spec_dict(spec))


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def _apex(a_deg: float, b_deg: float) -> Vec:
    """Where the rays from (0,0) and (1,0) at base angles a_deg and b_deg
    meet above the base."""
    ta, tb = math.tan(math.radians(a_deg)), math.tan(math.radians(b_deg))
    if a_deg == 90.0:
        return (0.0, tb)
    if b_deg == 90.0:
        return (1.0, ta)
    return (tb / (ta + tb), ta * tb / (ta + tb))


def triangle_from_angles(a_deg: float, b_deg: float) -> Triangle:
    """Triangle with base vertices (0,0), (1,0) and the given base angles
    in degrees; the third vertex is wherever the two base rays meet."""
    if not (0.0 < a_deg and 0.0 < b_deg and a_deg + b_deg < 180.0):
        raise PartitionError(f"angles must be positive with sum below 180, got {a_deg}, {b_deg}")
    return Triangle.from_coords(((0.0, 0.0), (1.0, 0.0), _apex(a_deg, b_deg)))


def _solver_config(spec: ProblemSpec, tol: float | None) -> SolverConfig:
    opts = dict(spec.solver)
    if tol is not None:
        opts["area_tol_rel"] = tol
    return SolverConfig(**opts)


def _run_triangle(spec: ProblemSpec, tol: float | None) -> Report:
    tri = Triangle.from_coords(spec.triangle)
    # Triangle normalizes to CCW; if the input was clockwise the internal
    # labels b and c are swapped relative to the user's, so map them back.
    order = ("a", "c", "b") if tri.swapped_bc else VERTEX_IDS
    cfg = _solver_config(spec, tol)
    start = time.perf_counter()
    sol = equal_partition(tri, cfg)
    elapsed = time.perf_counter() - start
    cls = sol.classification
    if tri.swapped_bc and cls.obtuse_vertex:
        cls = Classification(cls.kind, order[VERTEX_IDS.index(cls.obtuse_vertex)], cls.criterion_margin)
    areas = tuple(sol.areas.at(v) for v in order)
    regions = tuple(sol.regions[VERTEX_IDS.index(v)].coords for v in order)
    return Report(
        mode="triangle",
        input_echo=spec_dict(spec),
        method=sol.method,
        residual=sol.residual,
        timing_s=elapsed,
        classification=cls,
        point=sol.point.as_tuple(),
        areas=areas,
        fractions=tuple(a / tri.area for a in areas),
        total_area=tri.area,
        regions=regions,
    )


def _run_mass_partition(spec: ProblemSpec, tol: float | None) -> Report:
    poly = ConvexPolygon.from_coords(spec.polygon)
    fan = SectorConfig.from_angles_deg(spec.rays or DEFAULT_RAYS_DEG)
    total = poly.area
    targets = Targets(spec.targets) if spec.targets is not None else Targets.fractions(spec.fractions, total)
    cfg = _solver_config(spec, tol)
    start = time.perf_counter()
    sol = solve_translation(poly, fan, targets, cfg)
    elapsed = time.perf_counter() - start
    return Report(
        mode="mass-partition",
        input_echo=spec_dict(spec),
        method=sol.method,
        residual=sol.residual,
        timing_s=elapsed,
        total_area=total,
        apex=sol.apex.as_tuple(),
        translation=sol.translation,
        achieved=sol.achieved,
        targets=sol.targets,
        iterations=sol.iterations,
    )


def _run_sweep(spec: ProblemSpec) -> Report:
    n = spec.resolution or DEFAULT_SWEEP_RESOLUTION
    start = time.perf_counter()
    rows = []
    for i in range(1, n):
        a_deg = 180.0 * i / n
        for j in range(1, n - i):
            b_deg = 180.0 * j / n
            # classify from the angles alone: the same angles a Triangle
            # built by triangle_from_angles would cache, without building it
            cls = _classify_angles(_triangle_angles(((0.0, 0.0), (1.0, 0.0), _apex(a_deg, b_deg))))
            rows.append(SweepRow(a_deg, b_deg, cls.kind, cls.criterion_margin))
    elapsed = time.perf_counter() - start
    return Report(
        mode="sweep",
        input_echo=spec_dict(spec),
        method="classify",
        residual=0.0,
        timing_s=elapsed,
        sweep_rows=tuple(rows),
    )


def run(spec: ProblemSpec, tol: float | None = None) -> Report:
    """Execute a spec.  `tol` overrides the solver's relative area
    tolerance without touching the spec."""
    if spec.mode == "triangle":
        return _run_triangle(spec, tol)
    if spec.mode == "mass-partition":
        return _run_mass_partition(spec, tol)
    if spec.mode == "sweep":
        return _run_sweep(spec)
    raise InputError("invalid-value", f"unknown mode {spec.mode!r}")


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def report_json(report: Report) -> str:
    """Canonical JSON for a solve report (triangle or mass-partition)."""
    if report.mode == "triangle":
        cls = report.classification
        payload = {
            "mode": report.mode,
            "input": report.input_echo,
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
            "regions": {
                "at_a": [list(p) for p in report.regions[0]],
                "at_b": [list(p) for p in report.regions[1]],
                "at_c": [list(p) for p in report.regions[2]],
            },
        }
        return canonical_json(payload)
    if report.mode == "mass-partition":
        payload = {
            "mode": report.mode,
            "input": report.input_echo,
            "method": report.method,
            "apex": list(report.apex),
            "translation": list(report.translation),
            "areas": {
                "achieved": list(report.achieved),
                "targets": list(report.targets),
                "total": report.total_area,
            },
            "residual": report.residual,
            "iterations": report.iterations,
        }
        return canonical_json(payload)
    raise ValueError(f"no JSON rendering for mode {report.mode!r}")


def sweep_csv(report: Report) -> str:
    """Deterministic CSV for a sweep report; margin is empty for kinds
    where the criterion does not apply."""
    if report.mode != "sweep":
        raise ValueError(f"CSV rendering needs a sweep report, got mode {report.mode!r}")
    lines = ["angle_a_deg,angle_b_deg,kind,margin"]
    for row in report.sweep_rows:
        margin = "" if row.margin is None else _fmt_num(row.margin)
        lines.append(f"{_fmt_num(row.angle_a_deg)},{_fmt_num(row.angle_b_deg)},{row.kind},{margin}")
    return "\n".join(lines) + "\n"
