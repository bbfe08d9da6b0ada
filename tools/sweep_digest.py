"""Print a sha256 digest over the sweep CSVs of a range of resolutions.

    python3 tools/sweep_digest.py [FROM TO]

It imports this checkout's `src/` and feeds the digest every piece that
`tripart.problem._sweep_lines(n)` yields, the bytes `tripart sweep
--resolution n` writes, for n = FROM .. TO (default 2 .. 1000, every
resolution the command allows).  Run it in two checkouts and compare the
last line: equal digests mean the sweep CSVs are byte-identical at every
resolution in the range.  The line before it gives the range, the number
of rows and the time taken.  Stdlib only.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tripart.problem import MAX_SWEEP_RESOLUTION, _sweep_lines  # noqa: E402


def sweep_digest(lo: int, hi: int) -> str:
    """The sha256 hex digest over the CSVs of resolutions lo .. hi, in order."""
    digest = hashlib.sha256()
    for n in range(lo, hi + 1):
        for piece in _sweep_lines(n):
            digest.update(piece.encode())
    return digest.hexdigest()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Digest the sweep CSVs of a range of resolutions.")
    parser.add_argument("lo", metavar="FROM", type=int, nargs="?", default=2)
    parser.add_argument("hi", metavar="TO", type=int, nargs="?", default=MAX_SWEEP_RESOLUTION)
    args = parser.parse_args(argv)
    if not 2 <= args.lo <= args.hi <= MAX_SWEEP_RESOLUTION:
        parser.error(f"need 2 <= FROM <= TO <= {MAX_SWEEP_RESOLUTION}")
    start = time.perf_counter()
    text = sweep_digest(args.lo, args.hi)
    rows = sum((n - 1) * (n - 2) // 2 for n in range(args.lo, args.hi + 1))
    print(f"resolutions {args.lo}..{args.hi}, {rows} rows, {time.perf_counter() - start:.1f} s")
    print(text)


if __name__ == "__main__":
    main()
