#!/usr/bin/env python3
"""Build and run the hdpower end-to-end benchmark.

    python3 hdbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 hdbench/run.py --selftest

Run from the repository root. The first call configures and builds the
benchmark (Release, fault-injection hooks off) and the repository libraries
it links into `.bench_build/` (or $CARGO_TARGET_DIR when set); later calls
only re-check the build. The benchmark's stdout is passed through; its last
line is one JSON result whose metric names and units must match
BENCHMARK.json, else this script fails. Exits non-zero, without a result,
when the build fails, the run times out or the metrics do not match, and
with the benchmark's own exit code otherwise (1 when a correctness gate
failed).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "hdbench")


def build(target):
    out = build_dir()
    jobs = str(min(os.cpu_count() or 1, 4))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", out, *generator,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    step = ["cmake", "--build", out, "--target", target, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, target)


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return end_to_end, per_layer


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the tests of the benchmark's helpers")
    args = parser.parse_args()

    if args.selftest:
        binary = build("hdbench_test")
        return 1 if binary is None else subprocess.run([binary]).returncode
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")

    end_to_end, per_layer = declared()
    binary = build("hdbench")
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1

    workdir = os.path.join(build_dir(), "run", f"{args.workload}-{os.getpid()}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    if args.trace:
        spans_dir = os.path.join(build_dir(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans", os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} did not finish within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = child.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(child.stdout)
        print("run.py: the benchmark printed no result", file=sys.stderr)
        return 1
    expected = per_layer if args.trace else end_to_end
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        print("\n".join(lines[:-1]))
        print(f"run.py: reported metrics {sorted(got.items())} do not match "
              f"BENCHMARK.json {sorted(expected.items())}", file=sys.stderr)
        return 1
    sys.stdout.write(child.stdout)
    sys.stdout.flush()
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
