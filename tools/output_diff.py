"""Compare two output dumps of `tools/output_digest.py --dump`, job by job.

    python3 tools/output_diff.py A B

A and B are dumps of the same jobs, for example of a parent commit and of
a change to it.  For each workload and share it prints the number of jobs
and of jobs changed, then, where there are any:

- status changes, from error to answer and back;
- the jobs whose non-numeric text changed: a kind, a method, a ring's
  vertex count, an error message, anything but the digits of a number;
- for each numeric field, the largest move in units of the field's scale,
  with the worst job indices.

A report's numeric fields are its JSON leaves, named by their key path
(list positions left out).  Points, rings, the apex and the translation
are measured in the shape's diameter (the bounding-box diagonal of the
echoed input), areas, residuals and targets in its area, and the other
fields (fractions, the criterion margin, rays, iterations) in absolute
units.  The numbers of an SVG, a CSV or an error text are one field,
"svg", "csv" or "error", compared position by position in absolute
units: pixels, degrees and the error report's own units.  Numbers are
compared only where the text around them is unchanged.

It exits 0 when no job changed and 1 otherwise.  Stdlib only.
"""

from __future__ import annotations

import argparse
import heapq
import json
import math
import re
import sys
from collections import Counter, namedtuple

NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")
WORST = 3  # job indices listed per field

# the scale of a report field, by its key path or else by its first key;
# a field in neither is in absolute units
SCALE_OF = {
    "input.triangle": "diam",
    "input.polygon": "diam",
    "point": "diam",
    "regions": "diam",
    "apex": "diam",
    "translation": "diam",
    "input.targets": "area",
    "areas": "area",
    "areas.fractions": "abs",
    "residual": "area",
}

JobDiff = namedtuple("JobDiff", "changed status text moves")


def _scale_kind(field: str) -> str:
    return SCALE_OF.get(field) or SCALE_OF.get(field.split(".")[0], "abs")


def _leaves(value, path: str = ""):
    """(key path, leaf) of every leaf of a parsed JSON value, a list's
    length included, so that a ring's vertex count is part of the text."""
    if isinstance(value, dict):
        for key, v in value.items():
            yield from _leaves(v, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        yield path, f"[{len(value)}]"
        for v in value:
            yield from _leaves(v, path)
    else:
        yield path, value


def _parts(text: str, status: str):
    """One output's non-numeric text, its numbers as (field, value) and
    the scale of each kind of field."""
    if status == "error" or not text.startswith("{"):
        field = "error" if status == "error" else "svg" if text.startswith("<") else "csv"
        return NUMBER.sub("#", text), [(field, float(m)) for m in NUMBER.findall(text)], {"abs": 1.0}
    report = json.loads(text)
    skeleton, numbers = [], []
    for path, leaf in _leaves(report):
        if isinstance(leaf, (int, float)) and not isinstance(leaf, bool):
            skeleton.append(path)
            numbers.append((path, float(leaf)))
        else:
            skeleton.append((path, leaf))
    shape = report["input"].get("triangle") or report["input"]["polygon"]
    xs, ys = [p[0] for p in shape], [p[1] for p in shape]
    diam = math.hypot(max(xs) - min(xs), max(ys) - min(ys))
    return skeleton, numbers, {"diam": diam or 1.0, "area": report["areas"]["total"] or 1.0, "abs": 1.0}


def compare_job(a: dict, b: dict) -> JobDiff:
    """How dump record b differs from record a of the same job: whether
    it changed at all, its status change ("error->answer" or
    "answer->error") or None, whether its non-numeric text changed, and
    the largest move of each numeric field that moved, in units of the
    field's scale."""
    if a["outputs"] == b["outputs"]:
        return JobDiff(False, None, False, {})
    if a["status"] != b["status"]:
        return JobDiff(True, f"{a['status']}->{b['status']}", False, {})
    text = len(a["outputs"]) != len(b["outputs"])
    moves = {}
    for x, y in zip(a["outputs"], b["outputs"]):
        skel_x, nums_x, scales = _parts(x, a["status"])
        skel_y, nums_y, _ = _parts(y, b["status"])
        if skel_x != skel_y:
            text = True
            continue
        for (field, u), (_, v) in zip(nums_x, nums_y):
            move = abs(u - v) / scales[_scale_kind(field)]
            if move > moves.get(field, 0.0):
                moves[field] = move
    return JobDiff(True, None, text, moves)


def diff(pairs) -> dict:
    """For each (workload, share), in first-seen order, the tallies over
    the record pairs (a, b) of its jobs: jobs, changed, status (a Counter
    of status changes), text (the indices of jobs whose text changed) and
    moves (field -> list of (move, index))."""
    groups = {}
    for a, b in pairs:
        if (a["workload"], a["index"]) != (b["workload"], b["index"]):
            raise ValueError(f"the dumps differ in their jobs at {a['workload']} {a['index']}")
        g = groups.setdefault(
            (a["workload"], a["share"]), {"jobs": 0, "changed": 0, "status": Counter(), "text": [], "moves": {}}
        )
        g["jobs"] += 1
        d = compare_job(a, b)
        if not d.changed:
            continue
        g["changed"] += 1
        if d.status:
            g["status"][d.status] += 1
        if d.text:
            g["text"].append(a["index"])
        for field, move in d.moves.items():
            g["moves"].setdefault(field, []).append((move, a["index"]))
    return groups


def format_report(groups: dict) -> list[str]:
    """The lines `main` prints for the tallies of `diff`."""
    lines = []
    for (workload, share), g in groups.items():
        lines.append(f"{workload} {share}: {g['jobs']} jobs, {g['changed']} changed")
        for change, n in sorted(g["status"].items()):
            lines.append(f"  status {change}: {n} jobs")
        if g["text"]:
            lines.append(f"  text changed: {len(g['text'])} jobs (first {', '.join(map(str, g['text'][:WORST]))})")
        for field, moves in sorted(g["moves"].items()):
            worst = heapq.nlargest(WORST, moves)
            jobs = ", ".join(str(i) for _, i in worst)
            lines.append(f"  {field}: largest move {worst[0][0]:.3g} {_scale_kind(field)} (jobs {jobs})")
    jobs = sum(g["jobs"] for g in groups.values())
    lines.append(f"all: {jobs} jobs, {sum(g['changed'] for g in groups.values())} changed")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two output dumps job by job.")
    parser.add_argument("a", help="the first dump, e.g. of the parent commit")
    parser.add_argument("b", help="the second dump, e.g. of the change")
    args = parser.parse_args(argv)
    with open(args.a, encoding="utf-8") as fa, open(args.b, encoding="utf-8") as fb:
        try:
            groups = diff(zip(map(json.loads, fa), map(json.loads, fb), strict=True))
        except ValueError as exc:  # a zip of unequal lengths or a different job
            sys.exit(f"output_diff: {exc}")
    print("\n".join(format_report(groups)))
    return 1 if any(g["changed"] for g in groups.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
