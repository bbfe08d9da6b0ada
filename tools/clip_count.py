"""Count the sector rings, half-plane clips and scale scans of benchmark triangle and fan jobs.

Over the core jobs among the first N jobs of `workloads.triangles(4)`
(default 2,000), this tool prints the `_sector_ring` and `_clip` calls
per job by the method that solved it, and over the core and hard jobs
among the first N jobs of `workloads.fans(5)` the calls per job by
share: the deterministic count of the solve's main work, which unlike
seconds repeats exactly from run to run and machine to machine.  A ring
is one sector evaluation of two clips, so the rings count the work the
same way across a change to the clip.  Beside them it prints the
`_coord_scale` calls per job, the scans of a shape's points for its
coordinate scale: a shape takes its scale once, when it is built, so
each reads 1.00.  Then come the offset jobs of both workloads, one row
each, answers and errors together: most of them stall far from the
origin, so their rings are mostly those of Newton's stall fallback, the
KKM zoom, and these rows move with the fallback rather than with a
method or a share, but they too repeat exactly at a fixed commit.  A line
after them names the costliest offset job of each workload, its index
among the workload's jobs, its rings and whether it answered, so that a
zoom that runs long on one job shows without a probe of its own.  Then
the `kkm` row: the calls per `solve_kkm` on the acute and right core
triangles among the first N triangle jobs, each built before its count
starts, so its scale scans read 0.00.  Last, the `forced` rows: Newton
seeded 50 diameters from the vertex mean, where it stalls at once, on
the interior core triangles among the first N triangle jobs and on the
core and hard jobs among the first N fan jobs, with the solves that
reach the area tolerance and the rings per fallback call.  Stdlib only;
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
import tripart.masspart as masspart  # noqa: E402
import tripart.partition as part  # noqa: E402
import workloads  # noqa: E402
from tripart.geometry import Point  # noqa: E402
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


def clips_of_offset_jobs(count: int) -> dict[str, tuple[tuple[int, int, int, int], tuple[int, int, str]]]:
    """workload -> ((offset jobs, ring, clip and scale-scan calls), (index, rings, outcome) of its
    costliest job) over the offset jobs among the first `count` jobs of `triangles(4)` and of
    `fans(5)`, answers and errors together; the index counts every job of the workload."""
    def solve(item) -> tuple[int, str]:
        index, job = item
        try:
            run(parse_spec(job.text))
        except part.SolverError:
            return index, "error"
        return index, "answer"

    out = {}
    for name, jobs in (("triangles", workloads.triangles(4)), ("fans", workloads.fans(5))):
        offset = ((i, job) for i, job in enumerate(itertools.islice(jobs, count)) if job.share == "offset")
        rows = _counts(offset, solve)
        (index, outcome), row = max(rows.items(), key=lambda item: item[1][1], default=((-1, "none"), (0, 0, 0, 0)))
        out[name] = (tuple(map(sum, zip(*rows.values()))) or (0, 0, 0, 0), (index, row[1], outcome))
    return out


def clips_of_kkm(count: int) -> tuple[int, int, int, int]:
    """(solves, ring, clip and scale-scan calls) of `solve_kkm` on the acute and right core
    triangles among the first `count` triangle jobs, answers and errors together."""
    shapes = (parse_spec(job.text).shape for job in itertools.islice(workloads.triangles(4), count)
              if job.share == "core")

    def solve(tri) -> str:
        part.solve_kkm(tri)
        return "kkm"

    rows = _counts((tri for tri in shapes if part.classify(tri).kind in (part.ACUTE, part.RIGHT)), solve)
    return tuple(map(sum, zip(*rows.values()))) or (0, 0, 0, 0)


def forced_fallbacks(count: int) -> dict[str, tuple[int, int, int, int]]:
    """name -> (solves, solves within the area tolerance, fallback calls, `_sector_ring` calls in them)
    of Newton seeded 50 diameters from the vertex mean: the interior core triangles among the first
    `count` triangle jobs, and the core and hard jobs among the first `count` fan jobs, by share."""
    def far(shape) -> tuple[float, float]:
        cx, cy = shape._centroid
        return cx + 30.0 * shape.diameter, cy - 40.0 * shape.diameter

    def fan(spec):
        poly = spec.shape
        return part._fan_newton(poly.coords, poly.area, poly._scale, poly._snap, spec.fan.normals, spec.target_areas,
                                part._config(spec.config, "cfg"), far(poly))

    tris = (parse_spec(job.text).shape for job in itertools.islice(workloads.triangles(4), count)
            if job.share == "core")
    solves = [("triangles", lambda tri=tri: part.solve_newton(tri, seed=Point(*far(tri))))
              for tri in tris if part.classify(tri).kind in part.INTERIOR_KINDS]
    solves += [(f"fans {job.share}", lambda spec=parse_spec(job.text): fan(spec))
               for job in itertools.islice(workloads.fans(5), count) if job.share != "offset"]
    rings, out = [0], {}
    real_ring, real_newton = part._sector_ring, part.newton2d

    def ring(*args):
        rings[0] += 1
        return real_ring(*args)

    def newton(fun, seed, *, fallback, **kwargs):
        def counted():
            row[2] += 1
            start = rings[0]
            try:
                return fallback()
            finally:
                row[3] += rings[0] - start

        return real_newton(fun, seed, fallback=counted, **kwargs)

    part._sector_ring, part.newton2d = ring, newton
    try:
        for name, solve in solves:
            row = out.setdefault(name, [0, 0, 0, 0])
            row[0] += 1
            try:
                solve()
                row[1] += 1
            except part.SolverError:
                pass
    finally:
        part._sector_ring, part.newton2d = real_ring, real_newton
    return {name: tuple(row) for name, row in out.items()}


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
    costliest = []
    for name, (row, (index, rings, outcome)) in clips_of_offset_jobs(args.jobs).items():
        _print_row(name, *row)
        costliest.append(f"{name} job {index}: {rings} rings, {outcome}")
    print("costliest offset job of each:", "; ".join(costliest))
    print(f"_sector_ring, _clip and _coord_scale calls per solve_kkm on the acute and right core triangles of the first {args.jobs} triangles(4) jobs")
    _print_row("kkm", *clips_of_kkm(args.jobs))
    print(f"Newton seeded 50 diameters out: interior core triangles of the first {args.jobs} triangles(4) jobs, "
          f"core and hard jobs of the first {args.jobs} fans(5) jobs")
    for name, (jobs, solved, calls, rings) in forced_fallbacks(args.jobs).items():
        print(f"forced {name}: {jobs} jobs, {solved} solved, {calls} fallbacks, "
              f"{rings / max(calls, 1):.2f} rings per fallback")
    return 0


if __name__ == "__main__":
    sys.exit(main())
