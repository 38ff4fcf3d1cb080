#!/usr/bin/env python3
"""Builds and runs the ADARNet benchmark from the root of a checkout.

    python3 perfbench/run.py --workload table1|serve|train --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The benchmark binary is built from the checkout's sources with CMake into
$CARGO_TARGET_DIR (default .bench_build). This script fixes the environment
the binary runs in -- the OpenMP team size and every ADARNET_* knob -- so
no ambient setting changes the work, and passes the binary's last stdout
line (one JSON object) through as its own.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# The OpenMP team size of every workload. On a shared 4-vCPU host a
# 2-thread team waits at each barrier for whichever thread a neighbour's load
# slows: 90 repeats of one 200-iteration cylinder solve spread 37%
# (IQR/median) at 2 threads against 6% at 1, for a speed-up of only 1.25x.
# serve runs one worker, so its thread budget is 1 as well.
TEAM = 1


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, base, "perfbench")
    jobs = str(max(1, min(4, cores())))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return build_dir


def environment(team, out_dir):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("OMP_", "GOMP_", "KMP_", "ADARNET_"))}
    env.update({
        "OMP_NUM_THREADS": str(team),
        "OMP_DYNAMIC": "false",
        "ADARNET_TUNE": "0",  # default GEMM blocking, no tuning sweep
        "ADARNET_TUNE_CACHE": os.path.join(out_dir, "no-tuning-cache.json"),
        "ADARNET_INFER_PRECISION": "fp32",
        "ADARNET_METRICS": "1",  # the per-layer counters are read from it
        "ADARNET_LOG_LEVEL": "error",
        # One malloc arena. glibc otherwise opens arenas for threads as they
        # contend, and how many depends on timing: serve's peak RSS spread
        # 19-21% (IQR/median, 32.8 to 43.0 MB) over five runs.
        "MALLOC_ARENA_MAX": "1",
    })
    # ADARNET_TRACE and ADARNET_TELEMETRY_PORT stay unset: the library's
    # own tracer and telemetry server are off.
    return env


def manifest_names(trace):
    """Names and units of the metrics BENCHMARK.json asks for in this mode,
    or None without a manifest."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        manifest = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in manifest[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["table1", "serve", "train"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the checks' corrupted-input tests and exit")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    try:
        build_dir = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 3

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    if args.selftest:
        env = environment(TEAM, out_dir)
        return subprocess.run([os.path.join(build_dir,
                                            "perfbench_checks_test")],
                              env=env).returncode

    env = environment(TEAM, out_dir)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--t0", repr(time.time())]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S}s")
        return 4
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode != 0 or not lines:
        log(f"benchmark exited with {proc.returncode}")
        return proc.returncode or 5
    result = json.loads(lines[-1])  # the result must be one JSON object
    want = manifest_names(args.trace)
    if want is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            log(f"result metrics {sorted(got.items())} differ from "
                f"BENCHMARK.json's {sorted(want.items())}")
            return 6
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
