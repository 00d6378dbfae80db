#!/usr/bin/env python3
"""Build the GridSAT benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (the library sources under src/ plus the benchmark) into
.bench_build/perfbench and runs the benchmark's self-test; later runs only
re-check the build. The benchmark's stdout is passed through when it
succeeds; its last line is one JSON object with the keys correct,
attempted, failed and metrics. On any build or run failure the exit code
is nonzero and no result is printed.

Each campaign's simulated fixed point (verdict, virtual seconds, splits,
messages, wire bytes, sim events, work, proof steps) is recorded per
source tree and grid seed under .bench_build; a later run of the same
sources that reads a different fixed point at that seed is a failure.
"""

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("flat_ph9_100", "hier_certify_urq15", "seq_solve")
BUILD_JOBS = "3"
RUN_TIMEOUT_S = 175


def build():
    """Configure, build and self-test; output goes to stderr."""
    if not (ROOT / "src" / "core" / "campaign.hpp").is_file():
        sys.exit("perfbench: no GridSAT sources next to perfbench/; nothing to build")
    quiet = {"stdout": sys.stderr, "check": True}
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD)], **quiet)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", BUILD_JOBS], **quiet)
    subprocess.run([str(BUILD / "gridbench_selftest")], **quiet)


def source_digest():
    """Hash of every file the benchmark builds from."""
    digest = hashlib.sha256()
    files = [p for d in (ROOT / "src", HERE) for p in d.rglob("*") if p.is_file()]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fixed_point_drift(stdout):
    """Record each 'fixed_point' line of this run; return the keys whose
    line differs from what an earlier run of the same sources recorded."""
    path = BUILD / f"fixed_points-{source_digest()}.json"
    record = json.loads(path.read_text()) if path.is_file() else {}
    drift = []
    for line in stdout.splitlines():
        if line.startswith("fixed_point "):
            _, workload, seed, values = line.split(" ", 3)
            key = f"{workload} {seed}"
            if record.setdefault(key, values) != values:
                drift.append(key)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    tmp.replace(path)
    return drift


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit(f"perfbench: build failed: {err}")

    cmd = [str(BUILD / "gridbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        sys.exit(f"perfbench: benchmark exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: malformed result line")
    drift = fixed_point_drift(proc.stdout)
    for key in drift:
        sys.stderr.write(f"perfbench: simulated fixed point drifted: {key}\n")
    if drift:
        result["correct"] = False
        result["failed"] = min(result["attempted"], result["failed"] + len(drift))
        lines[-1] = json.dumps(result)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
