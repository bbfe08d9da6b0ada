"""Count the sector rings, half-plane clips and scale scans of benchmark triangle and fan jobs.

Over the core jobs among the first N jobs of `workloads.triangles(4)`
(default 2,000), this tool prints the `_sector_ring` and `_clip` calls
per job by the method that solved it, and over the core and hard jobs
among the first N jobs of `workloads.fans(5)` the calls per job by
share: the deterministic count of the solve's main work, which unlike
seconds repeats exactly from run to run and machine to machine.  A ring
is one sector evaluation; it takes two clips, or fewer once a stalled
solve's span table decides a cut that keeps all or none of the polygon,
so the rings count the work the same way across a change to the clip.
Beside them it prints the `_coord_scale` calls per job, the scans of a
shape's points for its coordinate scale: a shape takes its scale once,
when it is built, so each reads 1.00.  Last come the offset jobs of both
workloads, one row each, answers and errors together: their rings are
mostly grid-restart scans, so these rows move with the restart rather
than with a method or a share, but they too repeat exactly at a fixed
commit.  Stdlib only; the benchmark modules are imported, never changed.

    python3 tools/clip_count.py [N]
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import tripart.geometry as geometry  # noqa: E402
import tripart.masspart as masspart  # noqa: E402
import tripart.partition as part  # noqa: E402
import workloads  # noqa: E402
from tripart.problem import parse_spec, run  # noqa: E402

COUNTED = ("_sector_ring", "_clip", "_coord_scale")


def _counts(jobs, solve) -> dict[str, tuple[int, int, int, int]]:
    """name -> (jobs, `_sector_ring`, `_clip` and `_coord_scale` calls) over `jobs`,
    where `solve(job)` runs a job and names its row; a job that raises
    SolverError counts under "error"."""
    calls = dict.fromkeys(COUNTED, 0)
    # a module that imports a name calls its own binding, so every binding is patched
    bound = [(module, name, getattr(module, name)) for module in (geometry, part, masspart) for name in COUNTED
             if hasattr(module, name)]

    def counting(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    out = {}
    for module, name, real in bound:
        setattr(module, name, counting(name, real))
    try:
        for job in jobs:
            before = dict(calls)
            try:
                name = solve(job)
            except part.SolverError:
                name = "error"
            row = out.setdefault(name, [0, 0, 0, 0])
            row[0] += 1
            for i, counted in enumerate(COUNTED, 1):
                row[i] += calls[counted] - before[counted]
    finally:
        for module, name, real in bound:
            setattr(module, name, real)
    return {name: tuple(row) for name, row in out.items()}


def clips_by_method(count: int) -> dict[str, tuple[int, int, int, int]]:
    """method -> (core jobs, ring, clip and scale-scan calls) over the first `count` triangle jobs."""
    jobs = (job for job in itertools.islice(workloads.triangles(4), count) if job.share == "core")
    return _counts(jobs, lambda job: run(parse_spec(job.text)).method)


def clips_by_fan_share(count: int) -> dict[str, tuple[int, int, int, int]]:
    """share -> (jobs, ring, clip and scale-scan calls) over the core and hard jobs among the first `count` fan jobs."""
    def solve(job) -> str:
        run(parse_spec(job.text))
        return job.share

    jobs = (job for job in itertools.islice(workloads.fans(5), count) if job.share != "offset")
    return _counts(jobs, solve)


def clips_of_offset_jobs(count: int) -> dict[str, tuple[int, int, int, int]]:
    """workload -> (offset jobs, ring, clip and scale-scan calls) over the offset jobs among the first
    `count` jobs of `triangles(4)` and of `fans(5)`, answers and errors together."""
    def answer(job) -> str:
        run(parse_spec(job.text))
        return "answer"

    out = {}
    for name, jobs in (("triangles", workloads.triangles(4)), ("fans", workloads.fans(5))):
        rows = _counts((job for job in itertools.islice(jobs, count) if job.share == "offset"), answer)
        out[name] = tuple(map(sum, zip(*rows.values()))) or (0, 0, 0, 0)
    return out


def _print_row(name: str, jobs: int, rings: int, clips: int, scans: int) -> None:
    n = max(jobs, 1)
    print(f"{name}: {jobs} jobs, {rings / n:.2f} rings per job, {clips / n:.2f} clips per job, "
          f"{scans / n:.2f} scale scans per job")


def _print_counts(counts: dict[str, tuple[int, int, int, int]]) -> None:
    total = tuple(map(sum, zip(*counts.values()))) if counts else (0, 0, 0, 0)
    for name, row in [*sorted(counts.items()), ("all", total)]:
        _print_row(name, *row)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Count the sector rings, clips and scale scans of benchmark triangle and fan jobs.")
    parser.add_argument("jobs", nargs="?", type=int, default=2000, help="jobs to take of each workload (default 2000)")
    args = parser.parse_args(argv)
    print(f"_sector_ring, _clip and _coord_scale calls per core job of the first {args.jobs} triangles(4) jobs, by method")
    _print_counts(clips_by_method(args.jobs))
    print(f"_sector_ring, _clip and _coord_scale calls per core and hard job of the first {args.jobs} fans(5) jobs, by share")
    _print_counts(clips_by_fan_share(args.jobs))
    print(f"_sector_ring, _clip and _coord_scale calls per offset job of the first {args.jobs} jobs of each, answers and errors together")
    for name, row in clips_of_offset_jobs(args.jobs).items():
        _print_row(name, *row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
