#!/usr/bin/env python3
"""Capture a merged JSON snapshot of the bench_micro_* google-benchmark suites.

Usage:
    snapshot_micro.py --bench-dir build/bench --out bench/BENCH_PR6.json

Runs each micro-bench binary with --benchmark_out_format=json and merges the
per-binary reports into one document keyed by binary name. The merged file is
what bench/compare_bench_json.py consumes: commit one per perf-relevant PR
(BENCH_PR6.json is the first) and ratchet new work against it.

Numbers are only comparable on the same machine and build flags: the snapshot
records the reporting context (host, CPU, build type) so a cross-machine
comparison can at least be flagged for what it is.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

MICRO_BENCHES = (
    "bench_micro_policies",
    "bench_micro_profiling",
    "bench_micro_timed",
    "bench_micro_trace",
)


def run_bench(exe: pathlib.Path, extra_args: list[str]) -> dict:
    with tempfile.NamedTemporaryFile(suffix=".json", mode="r") as tmp:
        cmd = [
            str(exe),
            f"--benchmark_out={tmp.name}",
            "--benchmark_out_format=json",
            "--benchmark_format=console",
            *extra_args,
        ]
        print(f"snapshot_micro: running {exe.name}", flush=True)
        subprocess.run(cmd, check=True, stdout=sys.stderr)
        return json.load(open(tmp.name))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--bench-dir", required=True, type=pathlib.Path)
    ap.add_argument("--out", required=True, type=pathlib.Path)
    ap.add_argument(
        "--min-time",
        default=None,
        help="forwarded as --benchmark_min_time (e.g. 0.1s for a quick pass)",
    )
    ap.add_argument(
        "--best-of",
        type=int,
        default=1,
        help="run each suite N times and keep the per-benchmark minimum "
        "cpu_time sample. The minimum is the least noise-contaminated "
        "estimator on shared/virtualized hosts, where scheduling and "
        "frequency drift only ever inflate timings; capture baselines and "
        "candidates with the same N so they stay comparable.",
    )
    args = ap.parse_args()

    extra = [f"--benchmark_min_time={args.min_time}"] if args.min_time else []
    merged: dict = {"schema": "plrupart-bench-snapshot-v1", "suites": {}}
    for name in MICRO_BENCHES:
        exe = args.bench_dir / name
        if not exe.is_file():
            sys.exit(f"snapshot_micro: {exe} not built (enable PLRUPART_BUILD_BENCH)")
        report = run_bench(exe, extra)
        best = {b["name"]: b for b in report.get("benchmarks", [])}
        for _ in range(max(args.best_of, 1) - 1):
            rerun = run_bench(exe, extra)
            for b in rerun.get("benchmarks", []):
                cur = best.get(b["name"])
                if cur is None or b.get("cpu_time", 0) < cur.get("cpu_time", 0):
                    best[b["name"]] = b
        merged["suites"][name] = {
            "context": report.get("context", {}),
            "benchmarks": [
                b for b in best.values() if b.get("run_type") != "aggregate"
            ],
        }

    args.out.write_text(json.dumps(merged, indent=2) + "\n")
    total = sum(len(s["benchmarks"]) for s in merged["suites"].values())
    print(f"snapshot_micro: wrote {total} benchmarks to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
