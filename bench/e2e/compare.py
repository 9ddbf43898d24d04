#!/usr/bin/env python3
"""Compare two results files of bench/e2e/run.py, metric by metric.

  python3 bench/e2e/compare.py BASE.json CHANGE.json

For each (end-to-end metric, workload) it prints each side's median, first
and third quartile and sample count (the per-rep values), the change of the
median, the bound, and one verdict:

  within bound  CHANGE's median is no worse than BASE's by more than the bound;
  regressed     it is worse by more than the bound;
  unresolved    either side's spread (quartile distance / median) is wider
                than the bound, so the medians cannot be told apart -- unless
                every CHANGE sample reads better than every BASE sample.

Bounds come from BENCHMARK.json at the repository root. setup_s also gets a
2 ms floor: it is about 2 ms of process start and set-up, where a 25% bound
is below the host's start-up jitter. failed_frac has an absolute bound of 0.
Exits 1 if any pair regressed.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
ABS_FLOOR = {"setup_s": 0.002}


def load(path):
    with open(path) as f:
        return json.load(f)


def summary(samples):
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, med, q3 = statistics.quantiles(samples, n=4)
    return statistics.median(samples), q1, q3


def verdict(metric, bound, better, a, b):
    """Returns (change, effective bound, verdict) for samples a (base) and b."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, q1a, q3a = summary(a)
    med_b, q1b, q3b = summary(b)
    if metric == "failed_frac":
        worse = med_b - med_a
        return worse, 0.0, "regressed" if worse > 0 else "within bound"
    allowed = max(bound * abs(med_a), ABS_FLOOR.get(metric, 0.0))
    change = sign * (med_b - med_a) / med_a if med_a else 0.0
    rel = allowed / abs(med_a) if med_a else bound
    spread = max((q3a - q1a) / med_a if med_a else 0.0, (q3b - q1b) / med_b if med_b else 0.0)
    if spread > rel:
        all_better = all(sign * (x - y) < 0 for x in b for y in a)
        return change, rel, "within bound" if all_better else "unresolved"
    return change, rel, "regressed" if sign * (med_b - med_a) > allowed else "within bound"


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, change = load(sys.argv[1]), load(sys.argv[2])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    spec["failed_frac"] = {"name": "failed_frac", "better": "lower", "bound": 0.0}

    regressed = False
    print(f"{'workload':11s} {'metric':13s} {'base median [q1, q3] n':34s} "
          f"{'change median [q1, q3] n':34s} {'change':>8s} {'bound':>7s}  verdict")
    for wl, ea in base["workloads"].items():
        eb = change["workloads"].get(wl)
        if eb is None:
            continue
        for metric, m in spec.items():
            if "unmeasured" in (ea["status"], eb["status"]) and metric != "failed_frac":
                print(f"{wl:11s} {metric:13s} unmeasured")
                continue
            a = ea["metrics"][metric]["samples"]
            b = eb["metrics"][metric]["samples"]
            if not a or not b:
                print(f"{wl:11s} {metric:13s} no samples")
                continue
            delta, bound, v = verdict(metric, m["bound"], m["better"], a, b)
            regressed |= v == "regressed"
            cells = []
            for s in (a, b):
                med, q1, q3 = summary(s)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] {len(s)}")
            print(f"{wl:11s} {metric:13s} {cells[0]:34s} {cells[1]:34s} "
                  f"{delta:+8.3f} {bound:7.3f}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
