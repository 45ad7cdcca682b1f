#!/usr/bin/env python3
"""Build and run the simulator benchmark.

Run from the root of a checkout of the simulator:

    python3 perfbench/run.py --workload scale-1024 --seed 1 --seconds 20 --trace 0

The benchmark is the Go program in this directory, a module of its own that
uses the simulator in the directory above. It is built into .bench_build
(or $CARGO_TARGET_DIR when set) with a build cache kept there too, so a run
reads and writes nothing outside the checkout. The program's output is
passed through; its last line is the JSON result.
"""

import argparse
import os
import pathlib
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["tables-small", "traffic-mpmc", "scale-1024"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    bench = pathlib.Path(__file__).resolve().parent
    sim_mod = bench.parent / "go.mod"
    if not sim_mod.is_file() or "module amosim\n" not in sim_mod.read_text():
        print(f"run.py: the simulator module is missing: no {sim_mod}", file=sys.stderr)
        return 2

    out = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    env = dict(os.environ)
    env.update(
        GOCACHE=str(out / "gocache"),
        GOPATH=str(out / "gopath"),
        GOMODCACHE=str(out / "gopath" / "pkg" / "mod"),
        GOTMPDIR=str(out / "tmp"),
        XDG_CONFIG_HOME=str(out / "config"),
        GOENV="off",
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOTELEMETRY="off",
    )
    for d in ("gocache", "gopath", "tmp", "config"):
        (out / d).mkdir(parents=True, exist_ok=True)
    binary = out / "amobench"
    try:
        build = subprocess.run(
            ["go", "build", "-o", str(binary), "."],
            cwd=bench, env=env, timeout=BUILD_TIMEOUT_S,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print(f"run.py: build failed:\n{build.stdout}", file=sys.stderr)
        return 1

    cmd = [str(binary), "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
