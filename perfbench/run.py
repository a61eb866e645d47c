#!/usr/bin/env python3
"""Build and run the posit training/serving benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (a package of its own, depending on the repository's
crates by path) in release mode, then runs it with the same arguments. The
last line of standard output is the benchmark's JSON result. Cargo builds
into `$CARGO_TARGET_DIR`, or `.bench_build/` at the repository root when
that is unset. The exit code is not 0 when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, env, timeout, stdout):
    """Run `cmd` to completion; kill it and wait if it overruns."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124


def main():
    env = dict(os.environ)
    target = os.path.abspath(
        os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    )
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", manifest, "--bin", "perfbench",
    ]
    # Cargo's own output goes to stderr so the result stays the last
    # stdout line.
    code = run(build, env, BUILD_TIMEOUT_S, sys.stderr)
    if code != 0:
        print(f"run.py: build failed ({code})", file=sys.stderr)
        return code or 1
    # The trainer's per-epoch telemetry dump (traced runs) goes to a file
    # in the build directory rather than to stderr.
    obs_log = os.path.join(target, "perfbench-obs.ndjson")
    if os.path.exists(obs_log):
        os.remove(obs_log)
    env["POSIT_OBS_TRAIN_LOG"] = obs_log
    binary = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    return run([binary] + sys.argv[1:], env, RUN_TIMEOUT_S, None)


if __name__ == "__main__":
    sys.exit(main())
