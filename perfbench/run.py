#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload jpip --seed 1 --seconds 10 --trace 0

The Go package in this directory is compiled into .bench_build/ (the
Go build cache goes there too), then run with the same arguments. Its
standard output, whose last line is the JSON result, passes through
unchanged. Outside a full checkout the build fails and this exits
non-zero without printing a result.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        TMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="-mod=readonly",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    # Build beside the binary and rename, so a concurrent run never
    # executes a half-written file.
    fresh = "%s.%d" % (binary, os.getpid())
    built = subprocess.run(
        ["go", "build", "-o", fresh, "."],
        cwd=here, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    os.replace(fresh, binary)
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
