#!/usr/bin/env python3
"""Simulator benchmark: builds perfbench.cpp from source, runs one workload and
prints the result as one JSON line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke]

Run it from the repository root. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), always as an
optimised Release build without LTO. With --trace 0 the result carries the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer metrics;
--trace 1 also writes the traced run's spans as Chrome trace-event JSON under
the build directory. The line before the result records the host, the build
and the run's fingerprints.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("neg-parallel-heavy", "neg-thinclos-lossy", "fig9-sweep")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build(out):
    """Configures (once) and builds the benchmark; returns the binary's path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no simulator sources under {ROOT}; run from the repository "
             "root")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release", "-DNEG_LTO=OFF"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return out / "perfbench"


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny fabrics and a short horizon (smoke test)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must not be negative")

    out = build_dir()
    binary = build(out)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--commit", source_id()]
    trace_file = None
    if args.trace:
        trace_file = out / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-file", str(trace_file)]
    if args.smoke:
        cmd.append("--smoke")

    start = time.monotonic()
    try:
        # The binary itself clears the simulator's environment knobs.
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        # An abort (MatchingValidator, ConservationAuditor, any NEG_ASSERT)
        # fails the run; there are no metrics to report.
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        fail(f"{binary.name} exited with {proc.returncode}")
    run = json.loads(lines[-1])

    correct = bool(run["correct"])
    metrics = {}
    for m in declared_metrics(args.trace):
        got = run["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or \
                not math.isfinite(got["value"]):
            print(f"perfbench: metric {m['name']} missing, non-finite or "
                  f"not in {m['unit']}: {got}", file=sys.stderr)
            correct = False
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    for error in run["errors"]:
        print(f"perfbench: {error}", file=sys.stderr)

    info = {k: run[k] for k in ("workload", "seed", "host", "timed_passes",
                                "timed_wall_s", "pass_sim_ns_per_wall_s",
                                "setup_round_s", "fingerprint",
                                "traced_fingerprint", "errors")}
    info["wall_s"] = round(time.monotonic() - start, 3)
    info["trace_file"] = str(trace_file) if trace_file else None
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
