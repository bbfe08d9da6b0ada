"""Count the half-plane clips of benchmark triangle and fan jobs.

Over the core jobs among the first N jobs of `workloads.triangles(4)`
(default 2,000), this tool prints the `_clip` calls per job by the method
that solved it, and over the core and hard jobs among the first N jobs of
`workloads.fans(5)` the calls per job by share: the deterministic count
of the solve's main work, which unlike seconds repeats exactly from run
to run and machine to machine.  Offset jobs are left out, because their
grid restarts dominate and depend on where Newton stalls.  Stdlib only;
the benchmark modules are imported, never changed.

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
import tripart.partition as part  # noqa: E402
import workloads  # noqa: E402
from tripart.problem import parse_spec, run  # noqa: E402


def _clip_counts(jobs, solve) -> dict[str, tuple[int, int]]:
    """name -> (jobs, `_clip` calls) over `jobs`, where `solve(job)` runs
    a job and names its row; a job that raises SolverError counts under
    "error"."""
    clips = 0
    real = geometry._clip

    def counting(*args):
        nonlocal clips
        clips += 1
        return real(*args)

    out = {}
    geometry._clip = part._clip = counting  # partition imports the name, so both modules are patched
    try:
        for job in jobs:
            before = clips
            try:
                name = solve(job)
            except part.SolverError:
                name = "error"
            count, calls = out.get(name, (0, 0))
            out[name] = (count + 1, calls + clips - before)
    finally:
        geometry._clip = part._clip = real
    return out


def clips_by_method(count: int) -> dict[str, tuple[int, int]]:
    """method -> (core jobs, `_clip` calls) over the first `count` triangle jobs."""
    jobs = (job for job in itertools.islice(workloads.triangles(4), count) if job.share == "core")
    return _clip_counts(jobs, lambda job: run(parse_spec(job.text)).method)


def clips_by_fan_share(count: int) -> dict[str, tuple[int, int]]:
    """share -> (jobs, `_clip` calls) over the core and hard jobs among the first `count` fan jobs."""
    def solve(job) -> str:
        run(parse_spec(job.text))
        return job.share

    jobs = (job for job in itertools.islice(workloads.fans(5), count) if job.share != "offset")
    return _clip_counts(jobs, solve)


def _print_counts(counts: dict[str, tuple[int, int]]) -> None:
    for name, (jobs, calls) in sorted(counts.items()):
        print(f"{name}: {jobs} jobs, {calls / jobs:.2f} clips per job")
    jobs, calls = map(sum, zip(*counts.values())) if counts else (0, 0)
    print(f"all: {jobs} jobs, {calls / max(jobs, 1):.2f} clips per job")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Count the clips of benchmark triangle and fan jobs.")
    parser.add_argument("jobs", nargs="?", type=int, default=2000, help="jobs to take of each workload (default 2000)")
    args = parser.parse_args(argv)
    print(f"_clip calls per core job of the first {args.jobs} triangles(4) jobs, by method")
    _print_counts(clips_by_method(args.jobs))
    print(f"_clip calls per core and hard job of the first {args.jobs} fans(5) jobs, by share")
    _print_counts(clips_by_fan_share(args.jobs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
