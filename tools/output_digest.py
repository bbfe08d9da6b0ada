"""Print sha256 digests over the outputs of a fixed set of benchmark jobs.

The jobs are the first 3,000 of `workloads.triangles(4)`, the first 600
of `workloads.fans(5)` and the first 40 of `workloads.sweep(6)`, run
through the same calls as the benchmark (`bench/jobs.py`): report JSON
and SVG for triangles, report JSON for fans, CSV for the sweep.  A job
that raises contributes its error type, message and, for a SolverError,
its report.  The benchmark modules are imported, never changed.

Run it in two checkouts and compare the last line: equal digests mean
the outputs and error reports are byte-identical on these jobs.  The
lines before it give one digest per workload.

    python3 tools/output_digest.py
"""

from __future__ import annotations

import hashlib
import itertools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import tripart.cli as cli  # noqa: E402
import workloads  # noqa: E402
from jobs import run_job  # noqa: E402

JOB_SETS = (("triangles", 4, 3000), ("fans", 5, 600), ("sweep", 6, 40))


def job_outputs(workload: str, text: str) -> tuple[str, ...]:
    """The job's output strings, or its error as one string."""
    try:
        return run_job(cli, workload, text)
    except Exception as exc:  # the error report is part of the output
        report = getattr(exc, "report", None)
        return (f"{type(exc).__name__}: {exc}" + ("" if report is None else f" {report!r}"),)


def main() -> None:
    total = hashlib.sha256()
    for workload, seed, count in JOB_SETS:
        digest = hashlib.sha256()
        for job in itertools.islice(workloads.GENERATORS[workload](seed), count):
            for out in job_outputs(workload, job.text):
                digest.update(out.encode() + b"\0")
            digest.update(b"\1")
        print(f"{workload} seed {seed}, {count} jobs: {digest.hexdigest()}")
        total.update(digest.digest())
    print(total.hexdigest())


if __name__ == "__main__":
    main()
