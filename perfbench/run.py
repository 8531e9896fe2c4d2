#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/METRICS.md).

    python3 perfbench/run.py --workload tpcc_ilm --seed 1 --seconds 10 --trace 0

Run it from anywhere inside a checkout. It configures and builds
perfbench/CMakeLists.txt (an optimised build of the engine sources plus the
benchmark binary) into $CARGO_TARGET_DIR, default .bench_build, then runs
one workload. The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer ledger (--trace 1).
Result, ledger and span files land in <build dir>/results. The exit code is
0 only when the build succeeded and every correctness check passed.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("tpcc_ilm", "kv_wire", "kv_durable", "htap")
OPTIMISED = ("Release", "RelWithDebInfo")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir(root):
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else root / target


def source_id(root):
    """Digest of every source the binary is built from, plus the git commit
    when the checkout is a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    ident = "sha256:" + digest.hexdigest()[:16]
    try:
        commit = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        ident += " git:" + commit
    except (OSError, subprocess.SubprocessError):
        ident += " git:none"
    return ident


def cached_build_type(build):
    cache = build / "CMakeCache.txt"
    if not cache.exists():
        return None
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return None


def build(root, build):
    """Configures (once) and builds the benchmark. Returns the binary."""
    build.mkdir(parents=True, exist_ok=True)
    with open(build / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if cached_build_type(build) is None:
            cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(build),
                   f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        kind = cached_build_type(build)
        if kind not in OPTIMISED:
            raise RuntimeError(f"build type {kind!r} is not optimised")
        jobs = str(os.cpu_count() or 1)
        subprocess.run(["cmake", "--build", str(build), "-j", jobs],
                       check=True, stdout=sys.stderr)
    return build / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        log(f"engine sources not found under {root / 'src'}")
        return 2
    out = build_dir(root)
    try:
        binary = build(root, out)
    except (OSError, RuntimeError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    # Scratch databases: a killed earlier run may have left some behind.
    work = out / "run"
    shutil.rmtree(work, ignore_errors=True)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", str(work), "--out-dir", str(out / "results"),
           "--source-id", source_id(root)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"run exceeded {RUN_TIMEOUT_S} s; no result")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.stdout.write(stdout)
        log(f"binary exited {proc.returncode} without a result line")
        return proc.returncode or 1
    sys.stdout.write(stdout if stdout.endswith("\n") else stdout + "\n")
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        log("correctness check failed" if not result["correct"]
            else f"binary exited {proc.returncode}")
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
