#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run it.

Run from the root of the repository:

    python3 perfbench/run.py --workload sweep-analytic --seed 1 --seconds 25 --trace 0

The Go build cache, the binary and trace files all stay under
.bench_build/ in the current directory, and the build never touches the
network. Arguments are passed to the benchmark binary unchanged; its exit
code is this script's exit code.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=os.path.join(out, "tmp"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        GOTELEMETRY="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(root, "perfbench"),
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
