#!/usr/bin/env python3
"""Builds `pvplan` and the benchmark from source, then runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload table1_paper|route_warm \
        --seed N --seconds S --trace 0|1

Cargo builds into $CARGO_TARGET_DIR (default `.bench_build`). The
serving workload then runs pinned to one CPU, with the fleet it spawns
(see `pin_one_cpu`). Build output
goes to standard error; the benchmark's own lines, ending with the JSON
result line, go to standard output. The exit code is the benchmark's, 3
when the build fails, or 4 when the run outlives its time limit.
"""

import argparse
import hashlib
import os
import subprocess
import sys

# Source trees whose contents identify what was measured.
SOURCE_ROOTS = ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench")


def run_timeout_s(seconds):
    """How long a run may take before it is stopped: its measured time
    plus at most as much again for set-up and checks, and a minute of
    slack. A run normally ends within S + 20 s."""
    return 2 * seconds + 60


def source_digest(root):
    """SHA-256 over the source files, for checkouts without git metadata."""
    digest = hashlib.sha256()
    for top in SOURCE_ROOTS:
        path = os.path.join(root, top)
        files = []
        if os.path.isfile(path):
            files.append(path)
        for base, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d not in ("target", ".bench_build"))
            files.extend(os.path.join(base, n) for n in sorted(names))
        for name in files:
            if name.endswith((".rs", ".toml", ".lock", ".py", ".md")):
                digest.update(os.path.relpath(name, root).encode())
                with open(name, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def commit_id(root):
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
        return f"{out}+src.{source_digest(root)}"
    except (OSError, subprocess.SubprocessError):
        return f"src.{source_digest(root)}"


def pin_one_cpu():
    """Restricts this process, and so the benchmark, the fleet it spawns
    and all their threads, to the highest-numbered CPU it may use.

    A warm request hands off between the client, the router and a shard
    several times. Spread over the host's vCPUs, each hand-off may wake an
    idle vCPU, and how long that takes depends on the load of the shared
    host: unpinned, repeated runs on one seed spread by 30%. On one CPU a
    hand-off is a context switch and the run measures the stack's CPU
    cost per request. Returns the CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def build(root, target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = (
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "Cargo.toml"), "--bin", "pvplan"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
    )
    for cmd in steps:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["table1_paper", "route_warm"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        print("run.py: no Cargo.toml here; run from the root of a checkout",
              file=sys.stderr)
        return 3
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not build(root, target_dir):
        print("run.py: build failed", file=sys.stderr)
        return 3
    if args.workload == "route_warm":
        pin_one_cpu()
    release = os.path.join(target_dir, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--pvplan", os.path.join(release, "pvplan"),
        "--commit", commit_id(root),
    ]
    bench = subprocess.Popen(cmd)
    try:
        return bench.wait(timeout=run_timeout_s(args.seconds))
    except subprocess.TimeoutExpired:
        # Closing the benchmark closes the fleet's stdin, which tears the
        # fleet down.
        bench.kill()
        bench.wait()
        print("run.py: benchmark timed out", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
