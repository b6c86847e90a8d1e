#!/usr/bin/env python3
"""Build bench_e2e from this checkout and run one of its workloads.

Usage (from anywhere; paths are resolved against the repository root):

  python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds the bench/e2e CMake project, which
compiles the library from the repository sources, into .bench_build/e2e;
later calls only let the build tool confirm nothing changed.  The workload
then runs in its own bench_e2e process.  Its output is echoed, and the last
line printed is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics BENCHMARK.json declares with --trace 0, its
per-layer metrics with --trace 1.

Exits 0 when the workload ran and every output check passed, 1 with the
result line when a check failed, and 1 without a result line when the build
or the run failed (for example in a directory without the library sources).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(env):
    """Configures on first use, then builds the bench_e2e target."""
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr, env=env,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD, "--target", "bench_e2e",
                    "-j", str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=sys.stderr, env=env,
                   timeout=BUILD_TIMEOUT_S)


def declared_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    names = declared_metrics(args.trace == 1)
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    try:
        build(env)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as exc:
        print(f"run.py: build failed: {exc}", file=sys.stderr)
        return 1

    cmd = [os.path.join(BUILD, "bench_e2e"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--out", os.path.join(BUILD, f"record-{args.workload}.json")]
    if args.trace:
        cmd += ["--trace", os.path.join(BUILD, f"trace-{args.workload}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except (subprocess.TimeoutExpired, OSError) as exc:
        print(f"run.py: bench_e2e did not finish: {exc}", file=sys.stderr)
        return 1

    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {n: result["metrics"][n] for n in names}
    except (IndexError, ValueError, KeyError, TypeError) as exc:
        sys.stdout.write(proc.stdout)
        print(f"run.py: no usable result line (exit {proc.returncode}): "
              f"{exc!r}", file=sys.stderr)
        return 1

    for line in lines[:-1]:
        print(line)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
