#!/usr/bin/env python3
"""Builds the program and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds the `stencil-serve` binary of
the workspace and the `perfbench` package next to it (release profile, into
$CARGO_TARGET_DIR, default `.bench_build`), then runs the benchmark binary,
whose last line of stdout is the result.  Scratch files, server logs and
span files go to `.perfbench_out/`.  See perfbench/README.md.
"""

import hashlib
import os
import signal
import subprocess
import sys

# A run's own limit once built; the builds themselves may take longer.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def source_id(root):
    """The commit when the checkout is a git work tree, else a digest of
    the sources the run was built from."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, _, fs in os.walk(path)
            for f in fs
            if f.endswith((".rs", ".toml", ".lock"))
        )
        for f in files:
            digest.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    root = os.getcwd()
    for needed in ("Cargo.toml", "Cargo.lock", "crates/serve/Cargo.toml", "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"{needed} is missing: run from the root of a complete checkout")

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(root, ".bench_build"))
    builds = [
        ["cargo", "build", "--release", "--offline", "--locked",
         "-p", "stencil-serve", "--bin", "stencil-serve"],
        ["cargo", "build", "--release", "--offline", "--locked",
         "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        # cargo's progress goes to stderr; stdout stays the result channel
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")

    target = os.path.join(root, target) if not os.path.isabs(target) else target
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [
        os.path.join(target, "release", "perfbench"),
        *sys.argv[1:],
        "--serve-bin", os.path.join(target, "release", "stencil-serve"),
        "--out-dir", out_dir,
        "--commit", source_id(root),
    ]
    # its own process group, so a timeout also stops the servers it started
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"the benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
