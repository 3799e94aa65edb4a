#!/usr/bin/env python3
"""End-to-end serving benchmark: build, run, report.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ingest_large --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

Builds perfbench/ (which compiles the engine from src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset, then runs the serving_bench binary for the workload. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0 and
the per-layer metrics with --trace 1. Traced runs also write their spans
to <build dir>/traces/. The exit status is the benchmark's: 1 when a
correctness checkpoint fails, 2 when the build or the arguments fail.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

WORKLOADS = ("ingest_large", "pinned_scan", "mixed_storm")
ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def build_dir() -> pathlib.Path:
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out: pathlib.Path) -> pathlib.Path | None:
    """Configures and builds the benchmark; returns the binary or None.
    Build output goes to stderr so stdout stays the benchmark's."""
    if not (ROOT / "src" / "serve" / "query_registry.h").is_file():
        print(f"perfbench: no engine sources under {ROOT / 'src'}",
              file=sys.stderr)
        return None
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "-j4"],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           cwd=ROOT, check=False)
        if r.returncode != 0:
            return None
    binary = out / "serving_bench"
    return binary if binary.is_file() else None


def run_one(binary: pathlib.Path, workload: str, seed: int, seconds: int,
            trace: int, trace_dir: pathlib.Path) -> tuple[int, str]:
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_dir / f"{workload}-seed{seed}.tsv")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S, cwd=ROOT, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S}s",
              file=sys.stderr)
        return 3, ""
    return r.returncode, r.stdout


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        return fail("--seconds must be at least 1")

    out = build_dir()
    binary = build(out)
    if binary is None:
        return fail("build failed")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    status = 0
    for name in names:
        code, stdout = run_one(binary, name, args.seed, args.seconds,
                               args.trace, out / "traces")
        lines = stdout.rstrip("\n").split("\n")
        if len(names) == 1:
            # The benchmark's own output, JSON result line last.
            sys.stdout.write(stdout)
            return code
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        status = status or code
        try:
            results[name] = json.loads(lines[-1])
        except (json.JSONDecodeError, IndexError):
            print(f"perfbench: {name} printed no result", file=sys.stderr)
            status = status or 3

    # --workload all: every workload's metrics, prefixed by its name.
    print()
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"  {name + '.' + metric:52s} {m['value']:>16.6g} {m['unit']}")
    merged = {
        "correct": all(r["correct"] for r in results.values())
                   and len(results) == len(names),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items()
                    for k, v in r["metrics"].items()},
    }
    print(json.dumps(merged))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
