#!/usr/bin/env python3
"""The repository benchmark: build perfbench from source, run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload attack_1m --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload attack_1m --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (the healing library from
src/ plus the perfbench binary) as a Release build under $CARGO_TARGET_DIR, default
.bench_build; later calls rebuild incrementally. The last line of standard
output is the result document {"correct", "attempted", "failed", "metrics"}:
every end_to_end metric of BENCHMARK.json with --trace 0, every per_layer
metric with --trace 1. Build output goes to standard error. The exit code is
0 only when the run completed and every correctness check passed.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_benchmark(root):
    """BENCHMARK.json, with every workload and metric name validated."""
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    names = [w["name"] for w in spec["workloads"]]
    for section in ("end_to_end", "per_layer"):
        names += [m["name"] for m in spec[section]]
    bad = [n for n in names if not NAME.match(n)]
    if bad:
        fail(f"invalid names in BENCHMARK.json: {bad}")
    if len(set(names)) != len(names):
        fail("BENCHMARK.json uses a name twice")
    return spec


def build(root, build_dir):
    """Configure once, then build incrementally; returns the binary."""
    log = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, **log)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", BUILD_JOBS],
                   check=True, **log)
    return build_dir / "perfbench"


def check_result(line, spec, trace):
    """Parse the result line; None unless it has exactly the expected shape."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    reported = {k: v.get("unit") for k, v in result["metrics"].items()}
    if reported != expected:
        missing = sorted(set(expected) - set(reported))
        extra = sorted(set(reported) - set(expected))
        print(f"perfbench: metrics differ from BENCHMARK.json (missing {missing}, "
              f"extra {extra}, or units differ)", file=sys.stderr)
        return None
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the harness self-tests only")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src").is_dir():
        fail(f"no library sources at {root / 'src'}; run from a repository checkout")
    spec = load_benchmark(root)
    if not args.selftest and args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}; "
             f"known: {[w['name'] for w in spec['workloads']]}")

    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    selftest = subprocess.run([str(binary), "--selftest"], stdout=sys.stderr)
    if selftest.returncode != 0:
        fail("harness self-tests failed")
    if args.selftest:
        return 0

    trace_dir = build_dir / "traces"
    trace_dir.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", str(trace_dir)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    result = check_result(lines[-1], spec, args.trace) if run.returncode in (0, 1) else None
    if result is None:
        sys.stderr.write(run.stdout)
        fail(f"{args.workload} exited with {run.returncode} without a valid result")
    print("\n".join(lines))
    return 0 if result["correct"] and run.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
