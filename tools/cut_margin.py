"""Check the cut bisection's certificate on benchmark triangles.

`partition.cut_line_offset` lets a closed-form estimate of the clipped
area decide a bisection step when the midpoint is more than twice the
snap band from each vertex projection and the estimate is more than
CUT_CERTIFY_REL * s^2 from the target (s the coordinate scale); every
other step clips.  Over the cuts of the exterior constructions that the
first N jobs of `workloads.triangles(4)` make (default 2,000; offset jobs
included), this tool prints

- the worst |clipped - estimate| / s^2 over the off-band midpoints of the
  bisection that clips at every step, and the margin's headroom over it
  (CUT_CERTIFY_REL divided by that worst);
- the clipped steps per cut, and the steps per cut, of `_cut_offset`;
- how many cuts `_cut_offset` answers differently from the bisection
  that clips at every step.

It exits 1 if any answer differs.  Stdlib only; the benchmark modules
are imported, never changed.

    python3 tools/cut_margin.py [N]
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import tripart.partition as part  # noqa: E402
import workloads  # noqa: E402
from tripart.geometry import _clip, _signed_area  # noqa: E402
from tripart.problem import parse_spec  # noqa: E402


def exterior_cuts(count: int) -> list[tuple]:
    """The arguments of every `_cut_offset` call the exterior constructions
    of the first `count` triangle jobs make."""
    cuts = []
    real = part._cut_offset

    def recording(*args):
        cuts.append(args)
        return real(*args)

    part._cut_offset = recording
    try:
        for job in itertools.islice(workloads.triangles(4), count):
            tri = parse_spec(job.text).shape
            if part.classify(tri).kind == part.OBTUSE_EXTERIOR:
                try:
                    part.solve_exterior(tri)
                except part.SolverError:  # the Newton fallback at an offset
                    pass
    finally:
        part._cut_offset = real
    return cuts


def replay(pts, u, scale: float, eps: float, target: float) -> tuple[float, float, int]:
    """The bisection that clips at every step: the worst off-band
    |clipped - estimate| / s^2 on its path (s the triangle's stored
    `scale`), its answer and its steps."""
    ux, uy = u
    p0, p1, p2 = sorted([ux * px + uy * py for px, py in pts])
    area = _signed_area(pts)
    s2 = scale**2
    worst, steps = 0.0, 0
    lo, hi = p0, p2
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return worst, mid, steps
        steps += 1
        clipped = _signed_area(_clip(pts, ux, uy, mid, eps))
        if min(abs(mid - p0), abs(mid - p1), abs(mid - p2)) > 2.0 * eps:
            # the estimate as `_cut_offset` writes it
            if mid <= p1:
                est = area * ((mid - p0) / (p1 - p0)) * ((mid - p0) / (p2 - p0))
            else:
                est = area - area * ((p2 - mid) / (p2 - p1)) * ((p2 - mid) / (p2 - p0))
            worst = max(worst, abs(clipped - est) / s2)
        if clipped < target:
            lo = mid
        else:
            hi = mid


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Check the cut bisection's certificate on benchmark triangles.")
    parser.add_argument("jobs", nargs="?", type=int, default=2000, help="triangle jobs to take (default 2000)")
    args = parser.parse_args(argv)
    cuts = exterior_cuts(args.jobs)
    clips = 0
    real_clip = part._clip

    def counting(*clip_args):
        nonlocal clips
        clips += 1
        return real_clip(*clip_args)

    part._clip = counting
    try:
        answers = [part._cut_offset(*cut) for cut in cuts]
    finally:
        part._clip = real_clip
    replays = [replay(*cut) for cut in cuts]
    worst = max((w for w, _, _ in replays), default=0.0)
    steps = sum(s for _, _, s in replays)
    differ = sum(answer != plain for answer, (_, plain, _) in zip(answers, replays))
    n = max(len(cuts), 1)
    print(f"{len(cuts)} cuts of the first {args.jobs} triangles(4) jobs, {steps} steps")
    print(f"worst off-band |clipped - estimate| / s^2: {worst:.3g}")
    print(f"margin CUT_CERTIFY_REL = {part.CUT_CERTIFY_REL:.3g}, {part.CUT_CERTIFY_REL / worst:.3g} times that" if worst else "no off-band step")
    print(f"clipped steps per cut: {clips / n:.3f} of {steps / n:.2f}")
    print(f"answers that differ from clipping at every step: {differ}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
