#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload dashboard-1000w --seed 1 --seconds 10 --trace 0

The first run configures and builds the library and the benchmark from source
into .bench_build/ (optimised; see perfbench/CMakeLists.txt); later runs only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Spans of traced runs are written to
.bench_build/spans/.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = [
    "dashboard-1000w",
    "ooo-sessions-ckpt",
    "keyed-parallel",
    "shared-dashboard-parallel",
]
BUILD_DIR = Path(".bench_build")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in src.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(src)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() or "none"


def build(bench_dir: Path, env: dict) -> Path:
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(bench_dir), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S,
                       env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True,
                   timeout=BUILD_TIMEOUT_S, env=env)
    return BUILD_DIR / "perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", default=1, type=int)
    ap.add_argument("--seconds", default=10, type=int)
    ap.add_argument("--trace", default=0, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    bench_dir = Path(__file__).resolve().parent
    src = bench_dir.parent / "src"
    if not src.is_dir():
        print(f"perfbench: no library sources at {src}", file=sys.stderr)
        return 1
    # Compiler temporaries stay inside the build tree too.
    tmp = (BUILD_DIR / "tmp").resolve()
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    try:
        binary = build(bench_dir, env)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    spans_dir = BUILD_DIR / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--ckpt-root", str(BUILD_DIR / "ckpt"),
           "--git-sha", git_sha(root),
           "--source-digest", source_digest(src)]
    if args.trace:
        cmd += ["--spans-out",
                str(spans_dir / f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, env=env).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
