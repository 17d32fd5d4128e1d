#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload ce_long_utts --seed 1 --seconds 20 --trace 0

Configures perfbench/CMakeLists.txt into .bench_build/perfbench (compiling
the library from ../src), runs the benchmark binary with every BGQHF_*
variable removed from its environment, and re-prints its result: the last
line of stdout is one JSON object. Exits non-zero without a result when the
build or the run fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("ce_long_utts", "cg_short_utts", "serve_utts")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(root: Path, build_dir: Path) -> Path:
    cmake = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir)]
    if shutil.which("ninja"):
        cmake += ["-G", "Ninja"]
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(cmake, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir / "perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    out_dir = root / ".bench_build"
    try:
        binary = build(root, out_dir / "perfbench")
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    work = out_dir / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(work)]
    if args.trace:
        cmd += ["--trace-out",
                str(out_dir / f"trace-{args.workload}-{args.seed}.json")]
    # Outputs that must repeat exactly are compared with the first run of
    # the same binary and seed.
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    refs = out_dir / "references"
    refs.mkdir(exist_ok=True)
    cmd += ["--reference", str(refs / f"{args.workload}-{args.seed}-{digest}")]
    env = {k: v for k, v in os.environ.items() if not k.startswith("BGQHF_")}
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        print(f"perfbench: run failed (exit {proc.returncode})",
              file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
