#!/usr/bin/env python3
"""Builds the benchmark and the `serve` binary from source, then runs one
workload.

    python3 perfbench/run.py --workload <query|tcp|harvest|partition> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. Both builds go to `$CARGO_TARGET_DIR`
(default `.bench_build`); traced runs write their span recordings to
`.bench_out/`. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. Exits 2 without a result when the repository
sources are missing or a build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def main():
    workspace = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(workspace) or not os.path.isdir(os.path.join(ROOT, "crates", "serve")):
        fail(f"no rtise workspace at {ROOT}")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    os.environ["CARGO_TARGET_DIR"] = target
    build(os.path.join(HERE, "Cargo.toml"))
    build(workspace, "-p", "rtise-serve", "--bin", "serve")
    exe = os.path.join(target, "release", "perfbench")
    args = [exe, *sys.argv[1:],
            "--serve-bin", os.path.join(target, "release", "serve"),
            "--out-dir", os.path.join(ROOT, ".bench_out")]
    sys.stdout.flush()
    os.execv(exe, args)


if __name__ == "__main__":
    main()
