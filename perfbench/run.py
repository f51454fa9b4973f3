#!/usr/bin/env python3
"""Entry point of the MIX end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the MIX libraries plus the `mixbench` binary) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
re-check the build. Each workload's settings are constants in its source file
under perfbench/src. mixbench's last stdout line is the result object; this
script checks its shape against BENCHMARK.json and passes it through.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.abspath(os.path.join(ROOT, path))
    if os.path.commonpath([path, ROOT]) != ROOT:
        fail("build directory %s is outside the checkout" % path)
    return path


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("MIX sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "mixbench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if done.returncode != 0:
            fail("build step %s exited %d" % (cmd[:2], done.returncode))
    binary = os.path.join(out, "mixbench")
    if not os.path.isfile(binary):
        fail("build produced no mixbench binary")
    return binary


def check_result(line, trace):
    """The result object must carry exactly the metrics BENCHMARK.json lists."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys %s" % sorted(result))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, "
                         "unlisted %s" % (missing, extra))
    if result["attempted"] < 1:
        raise ValueError("no sessions attempted")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build(build_dir())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("mixbench did not finish within %d s" % RUN_TIMEOUT_S, 1)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        for line in lines:
            print(line, file=sys.stderr)
        fail("mixbench exited %d" % done.returncode, done.returncode or 1)
    try:
        check_result(lines[-1], args.trace == 1)
    except (ValueError, KeyError, OSError) as e:
        fail("bad result line: %s" % e, 1)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
