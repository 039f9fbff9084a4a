#!/usr/bin/env python3
"""Build and run the sinrcastd end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload flood-warm --seed 1 --seconds 20 --trace 0

Every argument is passed to the benchmark binary (see README.md). The
binary is built from this checkout's sources into the build directory
(CARGO_TARGET_DIR when set, else .bench_build), with the Go build cache
kept there too, so nothing is read or written outside the checkout
apart from the Go toolchain itself. The build fails, and this script
exits non-zero without printing a result, when the repository's Go
module is not beside this directory.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The benchmark bounds its own run; this only guards against a binary
# that ignores its watchdog.
RUN_TIMEOUT_S = 178


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    os.makedirs(build_dir, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build_dir, "gocache"),
        GOPATH=os.path.join(build_dir, "gopath"),
        # The go command's local telemetry writes under the user config
        # directory; keep it inside the build directory too.
        XDG_CONFIG_HOME=os.path.join(build_dir, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        GOENV="off",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build_dir, "perfbench")
    tmp = binary + ".%d.tmp" % os.getpid()
    build = subprocess.run(["go", "build", "-o", tmp, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return build.returncode or 1
    os.replace(tmp, binary)

    args = sys.argv[1:]
    if not any(a == "--workdir" or a.startswith("--workdir=") for a in args):
        args += ["--workdir", build_dir]
    try:
        proc = subprocess.run([binary] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: the benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
