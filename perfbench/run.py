#!/usr/bin/env python3
"""Builds and runs the spanners benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository through a path dependency. This script builds it in
release mode into $CARGO_TARGET_DIR (default: .bench_build), then runs it with
the given arguments plus `--out perfbench/out`, where each run leaves its full
result and, on traced runs, its spans. The last line the benchmark prints is
the result JSON. The exit code is the benchmark's: 0 when every output
matched its reference, 1 when one did not, 2 on a usage or set-up error; a
failed build exits with cargo's code and prints no result.

The machine descriptor each result carries gets the rustc version and the
commit from here: `git rev-parse HEAD`, or, outside a git checkout, a hash of
the source files.
"""

import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SKIP_DIRS = {".git", "target", ".bench_build", "out"}


def commit_id():
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        if head:
            return head
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(d for d in dirs if d not in SKIP_DIRS)
        for name in sorted(files):
            if name.endswith((".rs", ".toml", ".lock", ".py", ".json")):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def rustc_version():
    try:
        return subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv):
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    manifest = os.path.join(BENCH_DIR, "Cargo.toml")
    # Build output goes to stderr: standard output carries only the result.
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return build.returncode or 1
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    binary = os.path.join(target, "release", "spanners-perfbench")
    env["PERFBENCH_RUSTC"] = rustc_version()
    env["PERFBENCH_COMMIT"] = commit_id()
    out_dir = os.path.join(BENCH_DIR, "out")
    child = subprocess.Popen([binary, *argv, "--out", out_dir], cwd=ROOT, env=env)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
