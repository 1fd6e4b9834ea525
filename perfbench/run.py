#!/usr/bin/env python3
"""Build and run the SleepScale reproduction's benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (its own Cargo workspace, depending on the
repository's crates by path) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs it with the same arguments. The
journal, trace and report files a run writes go to
`$CARGO_TARGET_DIR/perfbench-io` and are deleted when it ends. The last
line of standard output is the result as one JSON object; the exit code
is non-zero when the build fails, an output check fails or the run
overruns its time limit. See `perfbench/src/main.rs` for the workloads
and metrics.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# The first run in a checkout builds the dependency tree from source.
BUILD_TIMEOUT_S = 840
# A run measures for `--seconds` plus the run in progress when they end.
RUN_TIMEOUT_S = 170


def main(argv):
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 3
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(target, "release", "perfbench")
    io_dir = os.path.join(target, "perfbench-io")
    try:
        ran = subprocess.run([exe, *argv, "--io-dir", io_dir], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
