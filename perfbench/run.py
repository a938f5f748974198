#!/usr/bin/env python3
"""Build and run one workload of the GPSA layered benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload batch-dense --seed 1 --seconds 10 --trace 0

Builds the `perfbench` crate (a package of its own next to this file,
depending on the repository's crates by path), generates the workload's
inputs from the seed in a separate process, then runs the measured
process. Its last stdout line is the JSON result. Build output goes to
`$CARGO_TARGET_DIR` (default `.bench_build`), inputs to a scratch
directory under `.bench_data` that is removed afterwards, and the spans
of a traced run to `.bench_out/trace-<workload>-<seed>.json`.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["batch-dense", "batch-deep", "serve-live"]
BUILD_TIMEOUT_S = 800
STEP_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()
    if args.seconds < 1:
        sys.exit("run.py: --seconds must be at least 1")

    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.exit("run.py: build failed")
    exe = os.path.join(target, "release", "perfbench")

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    work = os.path.join(root, ".bench_data", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    try:
        gen = subprocess.run([exe, "gen", *common, "--dir", work],
                             stdout=sys.stderr, timeout=STEP_TIMEOUT_S)
        if gen.returncode != 0:
            sys.exit("run.py: input generation failed")
        cmd = [exe, "run", *common, "--trace", args.trace, "--dir", work]
        if args.trace == "1":
            spans = os.path.join(root, ".bench_out", "trace-%s-%d.json" % (args.workload, args.seed))
            cmd += ["--trace-file", spans]
        run = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=STEP_TIMEOUT_S)
        sys.stdout.write(run.stdout.decode())
        sys.stdout.flush()
        return run.returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
