#!/usr/bin/env python3
"""Build and run one workload of the host-time benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
simulator libraries plus the `perfbench` binary with CMake into the directory
named by $CARGO_TARGET_DIR (default `.bench_build`); later runs rebuild
incrementally. Each run gets a fresh artifact directory (MLSIM_ARTIFACT_DIR)
that is removed when it ends, so nothing cached by one run speeds up the
next. The last line printed is the result JSON with the metrics
BENCHMARK.json lists for the mode; see perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cnn_sim", "sweep_cold", "serve_batched", "dist_local")
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configure (once) and build the perfbench binary; returns its path."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"simulator sources not found ({needed} is missing next to perfbench/)")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        step = subprocess.run(["cmake", "-S", HERE, "-B", build_dir],
                              stdout=sys.stderr, stderr=sys.stderr)
        if step.returncode != 0:
            fail("cmake configure failed")
    step = subprocess.run(["cmake", "--build", build_dir, "-j", "4", "--target", "perfbench"],
                          stdout=sys.stderr, stderr=sys.stderr)
    if step.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input-size multiplier (the self-test uses a small one)")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="self-test: feed the correctness gate wrong references")
    args = ap.parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            wanted = json.load(f)["per_layer" if args.trace else "end_to_end"]
    except (OSError, ValueError, KeyError) as e:
        fail(f"cannot read the metric list from BENCHMARK.json: {e}")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale)]
    if args.trace:
        cmd += ["--trace-out", stem + ".trace.json"]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")

    artifacts = tempfile.mkdtemp(prefix="artifacts-", dir=build_dir)
    env = dict(os.environ, MLSIM_ARTIFACT_DIR=artifacts)
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(artifacts, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        sys.stderr.write(proc.stdout)
        fail(f"perfbench exited {proc.returncode} without a result")
    for line in lines[:-1]:
        print(line)
    # Keep the metrics BENCHMARK.json lists for this mode. A per-layer metric
    # the workload does not exercise reads 0; an end-to-end one must exist.
    metrics, absent = {}, []
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                fail(f"the run printed no {m['name']}")
            absent.append(m["name"])
            got = {"value": 0.0, "unit": m["unit"]}
        metrics[m["name"]] = got
    if absent:
        print("per-layer metrics this workload does not exercise (reported as 0): " +
              " ".join(absent))
    result["metrics"] = metrics
    with open(stem + ".metrics.json", "w") as f:
        json.dump(result, f, indent=1)
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
