"""tripart benchmark: seeded job workloads driven through the public API.

Usage:
    python3 bench/run.py --workload {triangles,fans,sweep} --seed N \\
        --seconds S --trace {0,1}

One process, one thread, a closed loop with one client: the next job
starts when the previous one returns.  A job is JSON spec text fed
through the calls `tripart solve --svg` and `tripart sweep` make, without
process start or file writes:

    triangles  parse_spec -> run -> report_json -> emit_svg
    fans       parse_spec -> run -> report_json   (mass-partition mode)
    sweep      parse_spec -> run -> sweep_csv

Every answer is checked outside the timed region by check.py, which
shares no code with the package.  A job fails if it raises or if the
check rejects it.  Timings are scaled to a reference machine speed (see
clock.py); the raw figures are printed as comments.

--trace 0 runs jobs for S seconds of job time and reports the end-to-end
metrics.  --trace 1 reports the per-layer metrics: it takes a fixed job
set (the first jobs of the seed), alternates untraced and traced passes
over it for S seconds, and writes the spans of the last traced pass to
bench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  `failed` counts the jobs that
fail unexpectedly: an error the command line would not catch, or a wrong
answer outside the offset and hard shares (see workloads.py).  The
known defects those shares exercise (a declared SolverError, or a wrong
answer returned as a success) are measured, not failed operations: they
are kept in the job mix and show in the pass_frac metric and in the
failed_frac comment line.  A count of them would hinge on how many jobs
fit in the run, so it is not a stable figure to compare runs by.
`correct` is false when any job fails unexpectedly or when tracing
changes an output.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import clock
import spans
import workloads
from jobs import run_job

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WARMUP_JOBS = 20
SETUP_SPAWNS = 9
# The tail is the highest of these percentiles with TAIL_MIN_BEYOND
# samples beyond it.  The ladder stops at p99: every workload runs well
# over 1000 jobs, and a rung that a faster commit reaches (p99.9 needs
# 10000 jobs) would make its tail read worse for having run more jobs.
TAIL_LADDER = (90.0, 99.0)
TAIL_MIN_BEYOND = 10
# Fixed job sets of the traced run, about 2 s of untraced job time each.
TRACE_JOBS = {"triangles": 600, "fans": 300, "sweep": 150}

# Runs in a fresh interpreter: import the package and finish the first,
# cold job (a job that raises would count as finished).  Prints the import time
# and the total, scaled to the reference speed, in seconds.
COLD_START = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import clock
from jobs import run_job
before = clock.loop_seconds()
t0 = time.perf_counter()
import tripart, tripart.cli
t1 = time.perf_counter()
try:
    run_job(tripart.cli, sys.argv[3], sys.argv[4])
except Exception:
    pass
t2 = time.perf_counter()
f = min(before, clock.loop_seconds()) / clock.REF_SECONDS
print((t1 - t0) / f, (t2 - t0) / f)
"""


def import_package():
    """Import `tripart.cli` from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import tripart.cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import tripart from {SRC}: {exc}")
    if not Path(tripart.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"bench: imported tripart from {tripart.__file__}, not {SRC}")
    return tripart.cli


def cold_start(workload: str, text: str) -> tuple[float, float]:
    """(import seconds, import + first job seconds), medians over fresh
    interpreters."""
    imports, totals = [], []
    for _ in range(SETUP_SPAWNS):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", COLD_START, str(SRC), str(HERE), workload, text],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            sys.exit(f"bench: cold start failed:\n{proc.stderr}")
        t_import, t_total = map(float, proc.stdout.split())
        imports.append(t_import)
        totals.append(t_total)
    return statistics.median(imports), statistics.median(totals)


def cold_job(workload: str):
    """The cold-start job: the first core-share job of seed 0, the same in
    every run, so set-up time does not hinge on the seed's first job."""
    return next(job for job in workloads.GENERATORS[workload](0) if job.share == "core")


def check_job(workload: str, job, outputs) -> str | None:
    if workload == "triangles":
        return check.check_triangle(job.data, *outputs)
    if workload == "fans":
        return check.check_fan(job.data, *outputs)
    return check.check_sweep(job.data, *outputs)


# Errors `tripart.cli.main` turns into exit codes 2 and 3.  Anything else
# raised would reach the user as a traceback.
DECLARED_ERRORS = ("InputError", "MassPartitionError", "GeometryError", "SolverError")


class Tally:
    """Attempted and failed jobs, with failure reasons per share.

    `failed` counts every failed job (1 - pass_frac).  `unexpected`
    counts the failures that make a run incorrect: an error
    the command line would not catch, or a wrong answer returned as a
    success outside the offset and hard shares, whose wrong answers and
    solver failures are the known defects the benchmark keeps measuring.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.reasons: dict[str, int] = {}

    def add(self, job, raised: str | None, rejected: str | None) -> bool:
        self.attempted += 1
        error = raised or rejected
        if error is None:
            return True
        self.failed += 1
        if raised is not None:
            self.unexpected += raised.split(":")[0] not in DECLARED_ERRORS
        else:
            self.unexpected += job.share == "core"
        key = f"{job.share}: {error.split(':')[0].split(' off by')[0]}"
        self.reasons[key] = self.reasons.get(key, 0) + 1
        return False

    def notes(self) -> list[str]:
        out = [f"failed_frac {self.failed / self.attempted:.6f} ({self.failed} of {self.attempted})"]
        return out + [f"failures {k}: {v}" for k, v in sorted(self.reasons.items())]


def attempt(cli, workload: str, job):
    """Run one job: (outputs or None, seconds, error or None)."""
    start = time.perf_counter()
    try:
        outputs = run_job(cli, workload, job.text)
    except Exception as exc:  # every raised error is a failed job
        return None, time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    return outputs, time.perf_counter() - start, None


def tail(latencies) -> tuple[float, float]:
    """(percentile, value): the highest percentile of TAIL_LADDER with at
    least TAIL_MIN_BEYOND samples beyond it (the median if none has)."""
    lat = sorted(latencies)
    n = len(lat)
    best = (50.0, lat[(n - 1) // 2])
    for pct in TAIL_LADDER:
        k = math.ceil(pct / 100.0 * n) - 1
        if n - 1 - k >= TAIL_MIN_BEYOND:
            best = (pct, lat[k])
    return best


def end_to_end(cli, workload: str, seed: int, seconds: float):
    jobs = workloads.GENERATORS[workload](seed)
    _, setup = cold_start(workload, cold_job(workload).text)
    for _ in range(WARMUP_JOBS):
        attempt(cli, workload, next(jobs))

    tally = Tally()
    timeline = clock.Timeline()
    raw, slots, passed, busy = [], [], 0, 0.0
    while busy < seconds:
        job = next(jobs)
        slots.append(timeline.mark())
        outputs, dt, error = attempt(cli, workload, job)
        timeline.after(dt)
        raw.append(dt)
        busy += dt
        passed += tally.add(job, error, None if error else check_job(workload, job, outputs))
    timeline.close()
    scaled = [dt / timeline.slowdown(k) for dt, k in zip(raw, slots)]

    pct, tail_s = tail(scaled)
    metrics = {
        "op_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "throughput_ops_s": (passed / sum(scaled), "1/s"),
        "pass_frac": (passed / tally.attempted, "ratio"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    notes = [
        f"op_tail_ms is p{pct:g} of {len(scaled)} jobs",
        f"unscaled: op_p50_ms {statistics.median(raw) * 1e3!r}, op_tail_ms "
        f"{tail(raw)[1] * 1e3!r}, throughput_ops_s {passed / sum(raw)!r}",
    ] + tally.notes()
    return tally, metrics, notes


def microbenchmarks():
    """Unit costs of public functions on fixed inputs, after a warm-up:
    median over repeats of the mean time per call, in microseconds at the
    reference speed."""
    import tripart

    tri = tripart.Triangle.from_coords(((0.0, 0.0), (1.0, 0.0), (0.4, 0.42)))
    x = tripart.Point(0.45, 0.12)
    poly = tripart.ConvexPolygon.from_coords(
        [(math.cos(math.pi * k / 8), 0.6 * math.sin(math.pi * k / 8)) for k in range(16)])
    fan = tripart.SectorConfig.from_angles_deg((90.0, 200.0, 340.0))
    apex = tripart.Point(0.1, -0.05)
    a, b, c = tripart.Point(0.0, 0.0), tripart.Point(1.0, 0.0), tripart.Point(0.4, 0.42)
    cases = {
        "geometry.region_area.us_per_call": lambda: tripart.region_area(tri, "a", x),
        "geometry.sector_areas.us_per_call": lambda: tripart.sector_areas(poly, fan, apex),
        "geometry.triangle_new.us_per_call": lambda: tripart.Triangle(a, b, c),
    }
    out = {}
    for name, fn in cases.items():
        reps = []
        for _ in range(7):
            n = 2000
            before = clock.loop_seconds()
            start = time.perf_counter()
            for _ in range(n):
                fn()
            elapsed = time.perf_counter() - start
            f = min(before, clock.loop_seconds()) / clock.REF_SECONDS
            reps.append(elapsed / n * 1e6 / f)
        out[name] = (statistics.median(reps[2:]), "us")
    return out


def run_pass(cli, workload: str, jobs, tracer=None):
    """One pass over a fixed job set: (job seconds at the reference speed,
    per-job results, the pass's slowdown)."""
    timeline = clock.Timeline()
    results, slots = [], []
    for i, job in enumerate(jobs):
        slots.append(timeline.mark())
        if tracer is None:
            results.append(attempt(cli, workload, job))
        else:
            tracer.job = i
            results.append(tracer.span("job", attempt, cli, workload, job))
        timeline.after(results[-1][1])
    timeline.close()
    scaled = sum(r[1] / timeline.slowdown(k) for r, k in zip(results, slots))
    return scaled, results, sum(r[1] for r in results) / scaled


# Per-layer metrics taken from the spans: self time and call counts.  Every
# traced function has a self time, so they add up to trace.job_us less the
# benchmark's own glue; trace.self_cover_ratio is their sum over it.
SELF_US = (
    "geometry.region_polygon", "rootfind.newton2d", "partition.equal_partition",
    "partition.classify", "partition.solve_newton", "partition.solve_exterior",
    "partition.cut_line_offset", "partition.boundary_point_closed_form",
    "masspart.solve_translation", "masspart.sector_areas", "problem.parse_spec",
    "problem.run", "problem.report_json", "problem.sweep_csv",
    "problem.triangle_from_angles", "svg.emit_svg",
)
CALLS = (
    "geometry.region_polygon", "rootfind.newton2d", "partition.classify",
    "partition.solve_newton", "partition.solve_exterior", "partition.cut_line_offset",
    "partition.boundary_point_closed_form", "masspart.sector_areas",
    "problem.triangle_from_angles",
)


def per_layer(cli, workload: str, seed: int, seconds: float):
    gen = workloads.GENERATORS[workload](seed)
    jobs = [next(gen) for _ in range(TRACE_JOBS[workload])]
    n = len(jobs)
    t_import, _ = cold_start(workload, cold_job(workload).text)
    metrics = {"cli.import_ms": (t_import * 1e3, "ms")}
    metrics.update(microbenchmarks())

    _, reference, _ = run_pass(cli, workload, jobs)  # warm-up, and the outputs to compare
    tally = Tally()
    for job, (outputs, _, error) in zip(jobs, reference):
        tally.add(job, error, None if error else check_job(workload, job, outputs))

    plain, traced, totals = [], [], []
    identical = True
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        plain.append(run_pass(cli, workload, jobs)[0])
        tracer = spans.Tracer()
        with tracer:
            dt, results, f = run_pass(cli, workload, jobs, tracer)
        traced.append(dt)
        identical &= [r[0] for r in results] == [r[0] for r in reference]
        totals.append({k: (c, s / f, t / f) for k, (c, s, t) in tracer.totals().items()})

    last = totals[-1]
    for name in SELF_US:
        if name in tracer.present:
            us = statistics.median(t.get(name, (0, 0, 0))[1] for t in totals) / n / 1e3
            metrics[f"{name}.self_us"] = (us, "us")
    for name in CALLS:
        if name in tracer.present:
            metrics[f"{name}.calls"] = (last.get(name, (0, 0, 0))[0] / n, "count")
    if "rootfind.newton2d" in tracer.present:
        nw = tracer.newton
        metrics["rootfind.fun_evals"] = (nw["fun_evals"] / n, "count")
        metrics["rootfind.iterations"] = (nw["iterations"] / n, "count")
        metrics["rootfind.restarts"] = (nw["restarts"] / n, "count")
        # with no calls, no call failed to converge
        ratio = nw["converged"] / nw["calls"] if nw["calls"] else 1.0
        metrics["rootfind.converged_ratio"] = (ratio, "ratio")

    job_ns = statistics.median(t["job"][2] for t in totals)
    layers_ns = statistics.median(sum(v[1] for k, v in t.items() if k != "job") for t in totals)
    metrics["trace.job_us"] = (job_ns / n / 1e3, "us")
    metrics["trace.self_cover_ratio"] = (layers_ns / job_ns, "ratio")
    metrics["trace.overhead_ratio"] = (statistics.median(plain) / statistics.median(traced), "ratio")

    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{workload}-{seed}.jsonl"
    tracer.write(span_file)
    notes = [f"{n} jobs, {len(traced)} traced and {len(plain)} untraced passes; "
             f"spans of the last traced pass in {span_file.relative_to(HERE.parent)}"]
    if not identical:
        notes.append("tracing changed an output")
    return tally, metrics, notes + tally.notes(), identical


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    cli = import_package()
    if args.trace:
        tally, metrics, notes, identical = per_layer(cli, args.workload, args.seed, args.seconds)
    else:
        tally, metrics, notes = end_to_end(cli, args.workload, args.seed, args.seconds)
        identical = True

    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    for note in notes:
        print(f"# {note}")
    result = {
        "correct": tally.unexpected == 0 and identical,
        "attempted": tally.attempted,
        "failed": tally.unexpected,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
