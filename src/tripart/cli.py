"""Command-line interface.

Exit codes: 0 success, 2 invalid input, 3 solver failure, 4 I/O error.
Canonical results go to stdout (or files); timing and errors go to
stderr so byte-level reproducibility of the outputs is preserved.
"""

from __future__ import annotations

import argparse
import re
import sys
import time

from .geometry import GeometryError, Point
from .masspart import MassPartitionError
from .partition import PartitionError, SolverError, verify_partition
from .problem import (
    DEFAULT_SWEEP_RESOLUTION,
    InputError,
    ProblemSpec,
    _spec_fields,
    _sweep_lines,
    canonical_json,
    input_order,
    parse_spec,
    report_json,
    run,
    sweep_csv,  # not called here: kept for callers that drive jobs through this module's bindings
)
from .svg import emit_svg

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_IO = 4


class _Parser(argparse.ArgumentParser):
    """Usage errors become InputError, so they exit 2 with the same JSON
    error line as other input errors; argparse's text is the message."""

    def error(self, message):
        raise InputError("invalid-value", f"{self.format_usage()}{self.prog}: error: {message}")


def _glue_values(argv) -> list:
    """Glue a value that starts with a minus and a digit or point onto the
    option before it (`--point -0.5,0.3` -> `--point=-0.5,0.3`): argparse
    would read it as an option."""
    out = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and re.match(r"-[\d.]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tripart",
        description="Equal-area triangle partition and convex mass partition solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve the problem described by a JSON spec")
    solve.add_argument("--input", required=True, help="path of the JSON problem spec")
    solve.add_argument("--output", help="also write the JSON report to this path")
    solve.add_argument("--svg", help="write an SVG figure of a triangle solution to this path")
    solve.add_argument("--tol", type=float, help="set the spec's relative area tolerance (echoed in the report)")

    sweep = sub.add_parser("sweep", help="classify a grid of triangle shapes to CSV")
    sweep.add_argument("--resolution", type=int, help=f"angle grid resolution (default {DEFAULT_SWEEP_RESOLUTION})")
    sweep.add_argument("--output", required=True, help="path of the CSV to write")

    verify = sub.add_parser("verify", help="check a claimed equal-area point")
    verify.add_argument("--input", required=True, help="path of a triangle-mode JSON spec")
    verify.add_argument("--point", required=True, help="claimed point as 'x,y'")
    verify.add_argument("--tol", type=float, default=1e-9, help="relative area tolerance (default 1e-9)")
    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InputError("malformed-json", f"input is not UTF-8 text: {exc}") from exc


def _write(path: str, chunks) -> None:
    """Write an iterable of strings to `path`, each as it is yielded."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(chunks)


def _parse_point(raw: str) -> Point:
    parts = raw.split(",")
    if len(parts) != 2:
        raise InputError("invalid-value", f"--point must be 'x,y', got {raw!r}")
    try:
        return Point(float(parts[0]), float(parts[1]))
    except (ValueError, GeometryError) as exc:
        raise InputError("invalid-value", f"--point must be two finite numbers: {exc}") from exc


def _cmd_solve(args) -> int:
    fields = _spec_fields(_read(args.input))
    mode = fields["mode"]
    if args.tol is not None and (mode == "triangle" or (mode == "mass-partition" and not args.svg)):
        # into the spec before its one build, so the report's echoed input
        # reproduces the run; a spec refused below is checked as written
        fields["solver"] = dict(fields.get("solver", {}), area_tol_rel=args.tol)
    spec = ProblemSpec(**fields)
    if mode == "sweep":
        raise InputError("invalid-value", "sweep specs run with the 'sweep' command")
    if args.svg and mode != "triangle":
        raise InputError("invalid-value", "--svg applies only to triangle mode")
    start = time.perf_counter()
    report = run(spec)
    elapsed = time.perf_counter() - start
    text = report_json(report) + "\n"
    sys.stdout.write(text)
    if args.output:
        _write(args.output, (text,))
    if args.svg:
        _write(args.svg, (emit_svg(report),))
    sys.stderr.write(f"solved in {elapsed:.3f}s via {report.method}\n")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = ProblemSpec(mode="sweep", resolution=args.resolution)
    n = spec.resolution
    start = time.perf_counter()
    _write(args.output, _sweep_lines(n))  # one base angle's rows at a time
    sys.stderr.write(f"classified {(n - 1) * (n - 2) // 2} shapes in {time.perf_counter() - start:.3f}s\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    spec = parse_spec(_read(args.input))
    if spec.mode != "triangle":
        raise InputError("invalid-value", "verify needs a triangle-mode spec")
    vr = verify_partition(spec.shape, _parse_point(args.point), tol=args.tol)  # which judges the tol
    areas = input_order(spec.shape, vr.areas)
    payload = {
        "mode": "verify",
        "point": [vr.point.x, vr.point.y],
        "areas": {"at_a": areas[0], "at_b": areas[1], "at_c": areas[2]},
        "max_deviation": vr.max_deviation,
        "deviation_rel": vr.deviation_rel,
        "location": vr.location,
        "region_vertex_counts": list(input_order(spec.shape, vr.region_vertex_counts)),
        "ok": vr.ok,
    }
    sys.stdout.write(canonical_json(payload) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(_glue_values(sys.argv[1:] if argv is None else argv))
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_verify(args)
    except (InputError, MassPartitionError, GeometryError, PartitionError) as exc:
        code = exc.code if isinstance(exc, InputError) else "invalid-value"
        sys.stderr.write(canonical_json({"error": {"code": code, "message": str(exc)}}) + "\n")
        return EXIT_INPUT
    except SolverError as exc:
        report = exc.report._asdict()
        del report["message"]  # the error's own message
        error = {"code": "solver-failure", "message": str(exc), "report": report}
        sys.stderr.write(canonical_json({"error": error}) + "\n")
        return EXIT_SOLVER
    except OSError as exc:
        sys.stderr.write(f"tripart: i/o error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
