#!/usr/bin/env python3
"""Build the server and the benchmark from source, then run a workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

`--workload all` runs estimate_rr, estimate_batch_rf and stream_fleet in
turn, each printing its own metrics and result line.

Builds `slope-pmc` (the system under test) and the `perfbench` binary in
release mode into $CARGO_TARGET_DIR (default `.bench_build`), then runs
it. `perfbench` starts the server in its own process, drives it, stops
it, and prints every metric followed by one JSON result line.
Exits non-zero, without a result, when either build fails.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# One run must finish well inside 180 seconds.
TIMEOUT_S = 170
WORKLOADS = ["estimate_rr", "estimate_batch_rf", "stream_fleet"]


def build(args, target):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, env=env).returncode == 0


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("perfbench: no repository workspace to build the server from", file=sys.stderr)
        return 1
    if not build(["-p", "pmca-cli", "--bin", "slope-pmc"], target):
        print("perfbench: building slope-pmc failed", file=sys.stderr)
        return 1
    if not build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], target):
        print("perfbench: building the benchmark failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    at = args.index("--workload") + 1 if "--workload" in args else None
    if at is not None and args[at:at + 1] == ["all"]:
        return max(run(target, args[:at] + [w] + args[at + 1:]) for w in WORKLOADS)
    return run(target, args)


def run(target, args):
    sys.stdout.flush()
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *args,
        "--server", os.path.join(release, "slope-pmc"),
        "--work-dir", os.path.join(ROOT, ".perfbench"),
    ]
    # Its own process group, so if perfbench dies without stopping the
    # server, the server can still be stopped here.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: timed out", file=sys.stderr)
        code = 1
    if code != 0:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
