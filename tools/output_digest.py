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

    python3 tools/output_digest.py [--dump FILE]

`--dump FILE` also writes one JSON line per job, in run order: its
workload, index, share, status ("answer" or "error") and outputs.
`tools/output_diff.py` compares two such files.  The digests do not
depend on it.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import tripart.cli as cli  # noqa: E402
import workloads  # noqa: E402
from jobs import run_job  # noqa: E402

JOB_SETS = (("triangles", 4, 3000), ("fans", 5, 600), ("sweep", 6, 40))


def job_result(workload: str, text: str) -> tuple[str, tuple[str, ...]]:
    """The job's status and its output strings, or its error as one string."""
    try:
        return "answer", run_job(cli, workload, text)
    except Exception as exc:  # the error report is part of the output
        report = getattr(exc, "report", None)
        return "error", (f"{type(exc).__name__}: {exc}" + ("" if report is None else f" {report!r}"),)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Digest the outputs of fixed benchmark jobs.")
    parser.add_argument("--dump", metavar="FILE", help="also write one JSON line per job to FILE")
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    with open(args.dump or os.devnull, "w", encoding="utf-8") as dump:
        for workload, seed, count in JOB_SETS:
            digest = hashlib.sha256()
            for index, job in enumerate(itertools.islice(workloads.GENERATORS[workload](seed), count)):
                status, outputs = job_result(workload, job.text)
                for out in outputs:
                    digest.update(out.encode() + b"\0")
                digest.update(b"\1")
                if args.dump:
                    record = {"workload": workload, "index": index, "share": job.share}
                    dump.write(json.dumps(record | {"status": status, "outputs": outputs}) + "\n")
            print(f"{workload} seed {seed}, {count} jobs: {digest.hexdigest()}")
            total.update(digest.digest())
    print(total.hexdigest())


if __name__ == "__main__":
    main()
