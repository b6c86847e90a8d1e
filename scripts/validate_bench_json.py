#!/usr/bin/env python3
"""Validate BENCH_*.json records emitted by the bench binaries.

CI runs this over every bench artifact before uploading it, so a bench that
writes a malformed record (hand-rolled writer bugs: trailing commas, bare
NaN/Inf from a broken timer, truncated output on early exit) fails the job
instead of shipping an unreadable artifact.

Checks, per file:
  * the file parses as strict JSON (Python's json module rejects NaN and
    Infinity here via parse_constant);
  * the top level is an object with a non-empty string "bench" and an
    object "problem" -- the shared schema every bench writer follows;
  * when a "rows" key exists it is a non-empty array of objects;
  * bench-specific required keys (see REQUIRED) are present.

Usage: validate_bench_json.py FILE [FILE...]
Exits 0 when every file passes, 1 otherwise (all failures are reported).
"""

import json
import sys

# Bench name -> extra top-level keys that must be present.
REQUIRED = {
    "simd_batch": ["native_width", "rows", "gate", "gate_ok", "equiv_ok"],
    "forecast": ["rows"],
    "pipelined_krylov": ["rows"],
    "comm_guards": ["overhead_pct"],
    "ensemble": ["speedup"],
    "amg_tangent_assembly": ["rows", "bitwise_equal"],
}


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name!r} is not allowed")


def validate(path):
    """Returns a list of problems found in `path` (empty means valid)."""
    problems = []
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f, parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        return [f"failed to parse: {exc}"]

    if not isinstance(doc, dict):
        return ["top level is not a JSON object"]

    bench = doc.get("bench")
    if not isinstance(bench, str) or not bench:
        problems.append('missing or non-string "bench" key')
    if not isinstance(doc.get("problem"), dict):
        problems.append('missing or non-object "problem" key')

    if "rows" in doc:
        rows = doc["rows"]
        if not isinstance(rows, list) or not rows:
            problems.append('"rows" is not a non-empty array')
        elif not all(isinstance(r, dict) for r in rows):
            problems.append('"rows" contains a non-object entry')

    for key in REQUIRED.get(bench, []):
        if key not in doc:
            problems.append(f'bench "{bench}" is missing required key "{key}"')

    return problems


def main(argv):
    if len(argv) < 2:
        print(f"usage: {argv[0]} FILE [FILE...]", file=sys.stderr)
        return 1
    failed = False
    for path in argv[1:]:
        problems = validate(path)
        if problems:
            failed = True
            for p in problems:
                print(f"{path}: FAIL: {p}", file=sys.stderr)
        else:
            print(f"{path}: OK")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
