#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload batch-fresh --seed 1 --seconds 20 --trace 0

The Go build cache, module cache and toolchain state all live under
.bench_build/ in the current directory, so the benchmark reads and
writes nothing outside the checkout. Arguments are passed through to the
benchmark binary; its last line of standard output is the JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    root = os.getcwd()
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        # Go keeps its telemetry counters and env file under the user
        # config directory; point that into the build directory too.
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOWORK": "off",
    })
    binary = os.path.join(build, "bin", "perfbench")
    # Build output goes to stderr so the result stays the last line of
    # stdout.
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    ran = subprocess.run([binary, "--root", root, "--span-dir", os.path.join(build, "spans")] + sys.argv[1:],
                         env=env, timeout=175)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
