#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

Run from the repository root:

    python3 e2ebench/run.py --workload client-pn16 --seed 1 --seconds 10 --trace 0

The Go build cache, temporary files, the binary and the serve key spool
all live under .bench_build/ in the current directory; nothing is written
outside it. The arguments are passed to the benchmark binary (see
README.md); its last line of output is the JSON result.
"""

import hashlib
import os
import subprocess
import sys


def source_digest(root):
    """SHA-256 over the Go sources and module files under root."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit(root, env):
    """The checked-out commit, when root is itself a git work tree."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "go-cache"),
        GOPATH=os.path.join(build, "go-path"),
        GOTMPDIR=os.path.join(build, "tmp"),
        TMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    for d in ("go-cache", "go-path", "tmp", "config", "spool"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    binary = os.path.join(build, "e2ebench")
    r = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if r.returncode != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    args = [binary, "--spool-dir", os.path.join(build, "spool"),
            "--commit", commit(root, env), "--source-digest", source_digest(root)]
    sys.stdout.flush()
    os.execve(binary, args + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
