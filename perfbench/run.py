#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload of_burst --seed 1 --seconds 10 --trace 0

Builds the `osnt-perfbench` package (its own cargo workspace, depending
on the repository's crates by path) in release mode, prints a host
fingerprint line, then runs the benchmark binary. The binary's last
line of standard output is the result: one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Build output goes to
standard error.

The benchmark refuses to start when any OSNT_* environment variable is
set, because library code reads several of them. It exits non-zero
without a result when the repository's sources are not next to it.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("of_burst", "fig2_sharded", "oflops_churn")
# The binary's own run stays well inside this; it is a backstop so a
# wedged run never outlives the benchmark.
RUN_TIMEOUT_S = 175


def fingerprint():
    """CPU model, core count, toolchain and source revision."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rustc = subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rustc = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": rustc,
        "commit": revision(),
    }


def revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    osnt = sorted(k for k in os.environ if k.startswith("OSNT_"))
    if osnt:
        print(
            "refusing to run: library code reads OSNT_* variables, and "
            + ", ".join(osnt)
            + " set",
            file=sys.stderr,
        )
        return 2
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        print("no repository sources next to the benchmark", file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join(
        target if os.path.isabs(target) else os.path.join(ROOT, target),
        "release",
        "osnt-perfbench",
    )

    print("host " + json.dumps(fingerprint(), sort_keys=True), flush=True)
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        run = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
