"""Count the half-plane clips of benchmark triangle jobs.

Over the core jobs among the first N jobs of `workloads.triangles(4)`
(default 2,000), this tool prints the `_clip` calls per job by the method
that solved it: the deterministic count of the solve's main work, which
unlike seconds repeats exactly from run to run and machine to machine.
Offset jobs are left out, because their grid restarts dominate and
depend on where Newton stalls.  Stdlib only; the benchmark modules are
imported, never changed.

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


def clips_by_method(count: int) -> dict[str, tuple[int, int]]:
    """method -> (core jobs, `_clip` calls) over the first `count` jobs; a
    job that raises SolverError counts under "error"."""
    clips = 0
    real = geometry._clip

    def counting(*args):
        nonlocal clips
        clips += 1
        return real(*args)

    out = {}
    geometry._clip = part._clip = counting  # partition imports the name, so both modules are patched
    try:
        for job in itertools.islice(workloads.triangles(4), count):
            if job.share != "core":
                continue
            before = clips
            try:
                method = run(parse_spec(job.text)).method
            except part.SolverError:
                method = "error"
            jobs, calls = out.get(method, (0, 0))
            out[method] = (jobs + 1, calls + clips - before)
    finally:
        geometry._clip = part._clip = real
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Count the clips of benchmark triangle jobs.")
    parser.add_argument("jobs", nargs="?", type=int, default=2000, help="triangle jobs to take (default 2000)")
    args = parser.parse_args(argv)
    counts = clips_by_method(args.jobs)
    print(f"_clip calls per core job of the first {args.jobs} triangles(4) jobs")
    for method, (jobs, calls) in sorted(counts.items()):
        print(f"{method}: {jobs} jobs, {calls / jobs:.2f} clips per job")
    jobs, calls = map(sum, zip(*counts.values())) if counts else (0, 0)
    print(f"all: {jobs} jobs, {calls / max(jobs, 1):.2f} clips per job")
    return 0


if __name__ == "__main__":
    sys.exit(main())
