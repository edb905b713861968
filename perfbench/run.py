#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload mem_mix --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first run configures and builds the
library, twig_serve and the benchmark into .bench_build/perfbench; later
runs only rebuild what changed. Build output goes to stderr, so the last
line of stdout is the JSON result of the run. Each run's generated inputs
live in a fresh directory under .bench_build/work and are removed when it
ends; span logs of traced runs are kept in .bench_build/out.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
STATE = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(STATE, "perfbench")


def build(targets):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no twigcount sources next to perfbench/")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", BENCH, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target"] + targets,
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        build(["perfbench_selftest"])
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode
    if not args.workload:
        parser.error("--workload is required")

    targets = ["twig_serve", "perfbench"] + (["perfbench_layers"] if args.trace else [])
    try:
        build(targets)
    except subprocess.CalledProcessError as err:
        sys.exit(f"perfbench: build failed ({err})")

    os.makedirs(os.path.join(STATE, "work"), exist_ok=True)
    out = os.path.join(STATE, "out")
    os.makedirs(out, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                            dir=os.path.join(STATE, "work"))
    try:
        return subprocess.run([
            os.path.join(BUILD, "perfbench"),
            f"--workload={args.workload}", f"--seed={args.seed}",
            f"--seconds={args.seconds}", f"--trace={args.trace}",
            "--server=" + os.path.join(BUILD, "twig_serve"),
            "--layers=" + os.path.join(BUILD, "perfbench_layers"),
            f"--work={work}", f"--out={out}",
        ], timeout=175).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
