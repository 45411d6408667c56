#!/usr/bin/env python3
"""Build and run the ViewMap benchmark.

Usage, from the repository root:

    python3 vmbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

The Go toolchain builds ./vmbench (a module of its own that imports
the repository's packages through a relative replace directive) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; the Go build
cache, module cache and tool configuration live there too, so nothing
outside the checkout is written. The built binary then replaces this
process, receiving the same arguments; its last line of standard
output is the JSON result.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_digest():
    """SHA-256 over the Go sources and module files of the checkout."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    # The ceiling keeps git from searching directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build):
        build = os.path.join(ROOT, build)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "go-cache"),
        GOMODCACHE=os.path.join(build, "go-mod"),
        GOPATH=os.path.join(build, "go-path"),
        GOTMPDIR=os.path.join(build, "go-tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "vmbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        print("vmbench: build failed", file=sys.stderr)
        return 2
    env["VMBENCH_COMMIT"] = commit()
    env["VMBENCH_SOURCE"] = source_digest()
    os.chdir(ROOT)
    os.execve(binary, [binary] + sys.argv[1:], env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
