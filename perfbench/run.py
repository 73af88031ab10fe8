#!/usr/bin/env python3
"""Build and run the `bbv verify` time-to-verdict benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `perfbench` package (a workspace
of its own, depending on `crates/*` by path) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs workload W for S seconds. The last
line of stdout is one JSON object: `correct`, `attempted`, `failed` and
`metrics` — the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`. `setup_s` is the median over several fresh processes,
each timed from spawn to the moment its first case would be handed to the
verifier. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("treiber-3x2", "coarse-set-3x2", "roster-small")
# Extra processes started only to time set-up; the measuring process adds
# one more sample.
SETUP_SPAWNS = 24


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root, target):
    manifest = root / "perfbench" / "Cargo.toml"
    for needed in (manifest, root / "crates" / "core" / "Cargo.toml"):
        if not needed.is_file():
            fail(f"{needed} is missing: run from the root of a full checkout")
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", str(manifest)]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    exe = target / "release" / "perfbench"
    if not exe.is_file():
        fail(f"build left no {exe}")
    return exe


def run_bench(exe, args, extra):
    """Runs the benchmark binary; returns its set-up seconds and stdout lines.

    The binary prints its first line the moment its first case is about to
    be handed to the verifier, so the time from spawning it to reading that
    line is `setup_s`: process start, binary load, argument parsing and
    building the case list.
    """
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    first = proc.stdout.readline()
    setup_s = time.perf_counter() - start
    rest = proc.stdout.read()
    if proc.wait() != 0:
        sys.stdout.write(first + rest)
        fail(f"{' '.join(cmd[:3])} exited with {proc.returncode}")
    return setup_s, (first + rest).splitlines()


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()

    root = Path.cwd()
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = root / target
    exe = build(root, target)

    setup = []
    if args.trace == 0:
        setup = [run_bench(exe, args, ["--setup-only"])[0] for _ in range(SETUP_SPAWNS)]

    setup_s, lines = run_bench(exe, args, [])
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("the benchmark printed no result line")
    if args.trace == 0:
        setup.append(setup_s)
        median = statistics.median(setup)
        result["metrics"]["setup_s"] = {"value": median, "unit": "s"}
        print(f"setup_s median {median:.6f} s over {len(setup)} process(es)")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
