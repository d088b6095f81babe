#!/usr/bin/env python3
"""edgestab benchmark entry point.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark driver from the checkout's sources into
.bench_build/perfbench (first run only), primes the cached base model
once outside every timed section, then runs the driver and relays its
output. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. Exits non-zero, without a result, when
the sources are missing or the build or the run fails.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 900
PRIME_TIMEOUT_S = 900
RUN_TIMEOUT_S = 170
# Written by the driver's --prime next to the cached model.
MODEL_DIGEST_FILE = "perfbench.model_digest"


def fail(message):
    print(f"[perfbench] {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log, timeout, env=None):
    """Run cmd with its output appended to log; fail on error or timeout."""
    with open(log, "a") as out:
        try:
            subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                           env=env, timeout=timeout, check=True)
        except (subprocess.CalledProcessError,
                subprocess.TimeoutExpired) as e:
            out.flush()
            tail = Path(log).read_text().splitlines()[-20:]
            print("\n".join(tail), file=sys.stderr)
            fail(f"{cmd[0]} failed ({e}); log: {log}")


def build(root, build_dir):
    """Configure the checkout's own CMake project with the driver target
    added, then build only the driver and the libraries it links."""
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"no edgestab sources under {root}")
    log = build_dir / "build.log"
    if not (build_dir / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(root), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=Release",
                    "-DCMAKE_PROJECT_edgestab_INCLUDE="
                    + str(BENCH_DIR / "perfbench.cmake")],
                   log, BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", str(build_dir), "--target",
                "perfbench_driver", "-j", str(os.cpu_count() or 1)],
               log, BUILD_TIMEOUT_S)
    return build_dir / "perfbench_driver"


def prepare(root):
    """Build the driver and prime the model cache of the checkout at root.
    Returns the driver path, its environment and the span directory."""
    build_dir = root / ".bench_build" / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, EDGESTAB_CACHE=str(build_dir / "model_cache"))
    # One build and one model prime per checkout, even if runs overlap.
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        driver = build(root, build_dir)
        if not (build_dir / "model_cache" / MODEL_DIGEST_FILE).is_file():
            run_logged([str(driver), "--prime"], build_dir / "prime.log",
                       PRIME_TIMEOUT_S, env)
    out_dir = build_dir / "traces"
    out_dir.mkdir(exist_ok=True)
    return driver, env, out_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    driver, env, out_dir = prepare(Path.cwd())
    cmd = [str(driver), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--out", str(out_dir)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(done.stdout)
        fail(f"driver exited with code {done.returncode} and no result")
    json.loads(lines[-1])  # the result line must parse
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
