#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <read_hot|ingest|mixed> --seed N \
        --seconds S --trace <0|1> [--scale full|tiny]

Builds the `perfbench` package (release) into $CARGO_TARGET_DIR, or
`.bench_build` when unset, then runs it. The benchmark's last stdout line
is its JSON result. Scratch files live under `.perfbench/` and are
removed when the run ends; traced runs leave their span dump in
`.perfbench/out/`. Exits non-zero without a result line if the build or
the run fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    work = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    out = os.path.join(ROOT, ".perfbench", "out")
    try:
        run = subprocess.run(
            [exe, *sys.argv[1:], "--work-dir", work, "--out-dir", out], cwd=ROOT
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
