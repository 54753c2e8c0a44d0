#!/usr/bin/env python3
"""Build the dspe benchmark from the enclosing checkout and run it.

Usage (from the root of the checkout):

    python3 perfbench/run.py --workload skew-tcp --seed 1 --seconds 10 --trace 0

Every argument is passed to the benchmark binary (see main.go). The Go
build cache and the binary live in .bench_build/ under the checkout, so
nothing is written outside it. The exit code is the benchmark's; a
failed build exits 2 without printing a result.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
TIMEOUT_S = 170


def source_digest():
    """Hash of the Go sources, a stand-in for the commit id in checkouts
    that are not git repositories."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def main():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOFLAGS="",
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        sys.stderr.write("perfbench: build failed\n")
        return 2
    args = [binary, "--commit", source_digest()] + sys.argv[1:]
    proc = subprocess.Popen(args, cwd=ROOT)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: timed out after %d s\n" % TIMEOUT_S)
        return 3
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
