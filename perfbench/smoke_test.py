#!/usr/bin/env python3
"""Smoke test of the simulator benchmark, at N=16 and a 0.2 ms horizon.

    python3 perfbench/smoke_test.py

Run it from the repository root; it takes well under a minute after the
build. For every workload it checks that:
  - every metric BENCHMARK.json names is emitted, with its unit, and finite;
  - the run is correct, with no failed run or sweep point;
  - the timed and traced fingerprints agree;
  - another seed gives another fingerprint (the seed reaches the workload
    generator and the fabric's config);
  - --trace 1 writes a Chrome trace-event file with a span for each layer.
It also checks that the benchmark fails, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark.
"""
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_SPANS = ("workload.generate", "engine.make_fabric", "engine.add_flows",
               "engine.epoch", "stats.summarize")
SEEDS = (11, 12)

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL {what}", flush=True)


def check_run(workload, seed, trace):
    """Runs one smoke run and checks its output; returns its info line."""
    tag = f"{workload} seed {seed} trace {trace}"
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
           "--smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0 and len(lines) >= 2,
          f"{tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    if proc.returncode != 0 or len(lines) < 2:
        return None
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{tag}: result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1, f"{tag}: result {result}")
    declared = SPEC["per_layer" if trace else "end_to_end"]
    check(len(result["metrics"]) == len(declared),
          f"{tag}: {len(result['metrics'])} metrics, "
          f"{len(declared)} declared")
    for m in declared:
        got = result["metrics"].get(m["name"])
        check(got is not None and got["unit"] == m["unit"]
              and isinstance(got["value"], (int, float))
              and math.isfinite(got["value"]),
              f"{tag}: metric {m['name']} = {got}")
    check(info["fingerprint"] == info["traced_fingerprint"],
          f"{tag}: timed {info['fingerprint']} != traced "
          f"{info['traced_fingerprint']}")
    if trace:
        check_trace(tag, workload, info["trace_file"])
    return info


def check_trace(tag, workload, path):
    try:
        events = json.loads(Path(path).read_text())["traceEvents"]
    except (OSError, ValueError, KeyError, TypeError) as e:
        check(False, f"{tag}: unreadable trace {path}: {e}")
        return
    names = {e["name"] for e in events}
    wanted = LAYER_SPANS + (("engine.sweep_point",)
                            if workload == "fig9-sweep" else ())
    for name in wanted:
        check(name in names, f"{tag}: no {name} span in {path}")
    check(all(e["ph"] == "X" and e["dur"] >= 0 for e in events),
          f"{tag}: malformed span in {path}")


def check_bare_directory():
    """Only BENCHMARK.json and the benchmark: must fail without a result."""
    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    cmd = [sys.executable, "perfbench/run.py", "--workload",
           SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
           "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=bare,
                          env=env, timeout=180)
    check(proc.returncode != 0 and proc.stdout.strip() == "",
          f"bare directory: exit {proc.returncode}, stdout "
          f"{proc.stdout[:200]!r}")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        check_run(workload, SEEDS[0], 0)
        first = check_run(workload, SEEDS[0], 1)
        second = check_run(workload, SEEDS[1], 1)
        if first and second:
            check(first["fingerprint"] != second["fingerprint"],
                  f"{workload}: seeds {SEEDS} give the same fingerprint "
                  f"{first['fingerprint']}")
        print(f"checked {workload}", flush=True)
    check_bare_directory()
    if failures:
        print(f"{len(failures)} check(s) failed")
        return 1
    print("all smoke checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
