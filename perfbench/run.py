#!/usr/bin/env python3
"""Build the library and the benchmark from this checkout, then run it.

    python3 perfbench/run.py --workload <tail|no-tail> --seed N \
        --seconds S --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The library is built with its default
build type into .bench_build/ and installed there as the cdbp package;
the benchmark is built against that package. Results, traces and WAL
scratch directories go to .bench_out/. The last stdout line is the JSON
result; the exit code is nonzero when the build, a check, or the metric
set fails.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def env():
    """Keeps compiler and program temporaries inside the checkout."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return {**os.environ, "TMPDIR": str(tmp)}


def sh(cmd, log):
    with open(log, "a") as f:
        f.write("$ " + " ".join(map(str, cmd)) + "\n")
        f.flush()
        r = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT, env=env())
    if r.returncode != 0:
        tail = Path(log).read_text().splitlines()[-30:]
        fail("build step failed: " + " ".join(map(str, cmd)) + "\n" +
             "\n".join(tail))


def build():
    """Configures and builds incrementally; a no-op build takes ~1 s."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no library sources here: run from the root of a checkout")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(os.cpu_count() or 2)
    lib, prefix, bench = BUILD / "cdbp", BUILD / "prefix", BUILD / "perfbench"
    if not (lib / "CMakeCache.txt").exists():
        sh(["cmake", "-S", ROOT, "-B", lib, *gen,
            "-DCMAKE_BUILD_TYPE=RelWithDebInfo", "-DCDBP_BUILD_TESTS=OFF",
            "-DCDBP_BUILD_BENCH=OFF", "-DCDBP_BUILD_EXAMPLES=OFF",
            f"-DCMAKE_INSTALL_PREFIX={prefix}"], log)
    sh(["cmake", "--build", lib, "-j", jobs], log)
    sh(["cmake", "--install", lib], log)
    if not (bench / "CMakeCache.txt").exists():
        sh(["cmake", "-S", ROOT / "perfbench", "-B", bench, *gen,
            "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
            f"-DCMAKE_PREFIX_PATH={prefix}"], log)
    sh(["cmake", "--build", bench, "-j", jobs], log)
    return bench


def source_stamp():
    """The git SHA when this is a git checkout, else a digest of the
    library sources (the benchmark's checkout is a plain file tree)."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            return sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for p in sorted([ROOT / "CMakeLists.txt", *(ROOT / "src").rglob("*"),
                     *(ROOT / "cmake").rglob("*")]):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds,
                                       args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    bench = build()
    if args.self_test:
        sys.exit(subprocess.run([bench / "perfbench_selftest"],
                                env=env()).returncode)

    OUT.mkdir(exist_ok=True)
    cmd = [bench / "perfbench", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", OUT,
           "--stamp-sha", source_stamp()]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S, env=env())
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    lines = r.stdout.splitlines()
    if not lines:
        fail(f"benchmark printed no result (exit {r.returncode})", 2)
    result = json.loads(lines[-1])
    missing = expected_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        fail("metric set differs from BENCHMARK.json: " +
             ", ".join(sorted(missing)), 4)
    print(r.stdout, end="", flush=True)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
