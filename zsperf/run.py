#!/usr/bin/env python3
"""zsperf's one command: build from source, make the seeded inputs, run.

    python3 zsperf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 zsperf/run.py --self-test

Run it from the repository root. It builds the zsperf package (this
directory's CMakeLists.txt, which compiles the library from ../src) into
.bench_build/zsperf, simulates the workload's inputs for the seed into
.bench_cache (once per scenario, spec and seed; generation time is
logged, never measured), then runs the workload. Every metric is
printed with its unit; the last line of standard output is the JSON
result. The exit code is non-zero when the build fails, the inputs
cannot be made, or the result fails the correctness oracle.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD = ROOT / ".bench_build" / "zsperf"
CACHE = ROOT / ".bench_cache"
OUT = ROOT / ".bench_out"
WORKLOADS = ("longlived_replay", "longlived_paced", "ris_batch", "ris_wire")
# A run must end within 180 s of its start; the build is allowed more.
RUN_DEADLINE_S = 170


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def call(cmd, timeout, capture=False):
    """Runs cmd, killing and reaping it on timeout. Returns (code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"timed out after {timeout:.0f} s: {' '.join(cmd)}")
        return 1, ""
    return proc.returncode, out or ""


def build(target):
    t0 = time.monotonic()
    if not (BUILD / "CMakeCache.txt").exists():
        code, _ = call(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], timeout=300)
        if code != 0:
            return False
    code, _ = call(["cmake", "--build", str(BUILD), "-j4", "--target", target],
                   timeout=850)
    log(f"build of {target}: {'ok' if code == 0 else 'FAILED'} "
        f"in {time.monotonic() - t0:.1f} s")
    return code == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        if not build("zsperf_test"):
            return 1
        code, _ = call([str(BUILD / "zsperf_test")], timeout=1800)
        return code
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")

    if not build("zsperf"):
        return 1
    binary = str(BUILD / "zsperf")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--cache", str(CACHE)]
    deadline = time.monotonic() + RUN_DEADLINE_S
    code, _ = call([binary, "generate"] + common, timeout=RUN_DEADLINE_S)
    if code != 0:
        log("input generation failed")
        return 1
    started = time.monotonic()
    code, out = call([binary, "run"] + common +
                     ["--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--out", str(OUT)],
                     timeout=max(1.0, deadline - started), capture=True)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("the run printed no result")
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    log(f"{args.workload} seed {args.seed}: run {time.monotonic() - started:.1f} s, "
        f"correct={result['correct']}")
    return code


if __name__ == "__main__":
    sys.exit(main())
