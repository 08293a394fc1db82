#!/usr/bin/env python3
"""Self-test of the host-time benchmark.

    python3 perfbench/selftest.py

Run from the repository root. It
  1. runs every workload at a small size, untraced and traced, and checks
     that each result line names exactly the metrics BENCHMARK.json lists
     (end_to_end untraced, per_layer traced) with the same units, that the
     correctness gate passed, and that every metric the perfbench binary
     itself prints is listed in BENCHMARK.json with the same unit;
  2. feeds each workload's gate wrong references and checks that the run
     exits non-zero with "correct": false;
  3. runs the benchmark in a directory holding only BENCHMARK.json and
     perfbench/, where it must exit non-zero without printing a result.
Exits 0 when every check holds.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMALL = ["--seed", "7", "--seconds", "1", "--scale", "0.05"]

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, extra=(), cwd=ROOT, env=None):
    cmd = ["python3", os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--trace", str(trace)] + SMALL + list(extra)
    proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def printed_units(build_dir, workload, trace):
    """Name -> unit of every metric the perfbench binary prints, before
    run.py keeps the ones BENCHMARK.json lists for the mode."""
    artifacts = tempfile.mkdtemp(prefix="selftest-artifacts-", dir=build_dir)
    try:
        proc = subprocess.run([os.path.join(build_dir, "perfbench"), "--workload", workload,
                               "--trace", str(trace)] + SMALL,
                              env=dict(os.environ, MLSIM_ARTIFACT_DIR=artifacts),
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                              timeout=900)
    finally:
        shutil.rmtree(artifacts, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return {k: v["unit"] for k, v in json.loads(lines[-1])["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    # failed_frac is printed by name but carried by the result line's
    # failed/attempted, since it reads 0 on every correct run.
    listed = {**expected[0], **expected[1], "failed_frac": "ratio"}
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))

    for w in (x["name"] for x in bench["workloads"]):
        for trace in (0, 1):
            code, result = run(w, trace)
            tag = f"{w} --trace {trace}"
            check(code == 0 and result is not None, f"{tag}: exit 0 with a result line")
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result keys")
            check(result.get("correct") is True and result.get("failed") == 0
                  and result.get("attempted", 0) >= 1, f"{tag}: correctness gate passed")
            units = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            check(units == expected[trace], f"{tag}: metric names and units match BENCHMARK.json")
            printed = printed_units(build_dir, w, trace)
            check(printed is not None and all(listed.get(k) == u for k, u in printed.items()),
                  f"{tag}: every metric the binary prints is in BENCHMARK.json, same unit")

    for w in (x["name"] for x in bench["workloads"]):
        code, result = run(w, 0, ["--corrupt-reference"])
        check(code != 0 and result is not None and result["correct"] is False
              and result["failed"] >= 1,
              f"{w} with wrong references: gate fails and the run exits non-zero")

    bare = tempfile.mkdtemp(prefix="selftest-bare-", dir=build_dir)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
        code, result = run("serve_batched", 0, cwd=bare, env=env)
        check(code != 0 and result is None,
              "without the simulator sources: non-zero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
