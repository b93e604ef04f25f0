#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
hmdetect libraries and the perfbench program (Release) into .bench_build/;
later calls only rebuild what changed. The program's report lines are passed
through to stdout; the last line is the result object, printed only after
its metrics were checked against BENCHMARK.json. A traced run also writes
a Chrome trace to .bench_build/traces/<workload>-seed<n>.json.

Exit codes: 0 ok, 1 a correctness gate failed, 2 bad arguments or a
failed build or run, 3 the result does not match BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
# One run measures --seconds plus set-up and checks; well under 180 s.
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", *targets])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def check_result(line, spec, trace):
    """Errors in the result line against the metric lists of BENCHMARK.json."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(result)}")
        return errors
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        errors.append("failed must be a whole number >= 0")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        errors.append(f"metrics differ: missing {sorted(set(wanted) - set(got))}, "
                      f"extra {sorted(set(got) - set(wanted))}")
    for name, unit in wanted.items():
        m = got.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            errors.append(f"{name}: unit {m.get('unit')!r}, expected {unit!r}")
        if not isinstance(m.get("value"), (int, float)):
            errors.append(f"{name}: value {m.get('value')!r} is not a number")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    spec = load_spec()

    if args.self_test:
        build(["perfbench_selftest"])
        sys.exit(subprocess.run([str(BUILD / "perfbench_selftest")]).returncode)

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {names}")
    if args.seed is None or args.seed < 0:
        fail("--seed must be a whole number >= 0")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    build(["perfbench"])

    cmd = [str(BUILD / "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"perfbench exited with {proc.returncode}")
    errors = check_result(lines[-1], spec, args.trace == 1)
    for line in lines[:-1]:
        print(line)
    if errors:
        fail("result does not match BENCHMARK.json: " + "; ".join(errors), code=3)
    print(lines[-1], flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
