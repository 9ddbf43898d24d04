#!/usr/bin/env python3
"""End-to-end benchmark: host ns per simulated instruction of real plrupart jobs.

Builds plrupart from this checkout (Release, into .bench_build/e2e), installs
it, builds the per-layer harness against the installed package, then runs
the installed `plrupart` CLI as a child process on four named workloads and
checks every output. bench/e2e/README.md describes the workloads, the metrics
and their bounds.

  python3 bench/e2e/run.py [--seed N] [--reps R] [--seconds S] [--traced]
                           [--smoke] [--update-golden] [--out results.json]
      All four workloads, interleaved rep by rep after one discarded warm-up
      pass each. A rep is one S-second window of one workload. Prints every
      end-to-end metric by name with its unit and writes the results JSON
      that compare.py reads. --traced adds the per-layer run. --smoke scales
      instructions down 20x, runs one 1-second rep, and traces.

  python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
      One workload: a warm-up pass, then one S-second window (--trace 0) or
      the per-layer run (--trace 1). The last stdout line is one JSON object
      with the keys correct, attempted, failed and metrics.

Load model: a closed loop. One CLI process runs at a time with --threads 1,
and the next starts when it exits.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORK = os.path.join(ROOT, ".bench_build", "e2e")
LIB_BUILD = os.path.join(WORK, "plrupart")
PREFIX = os.path.join(WORK, "prefix")
HARNESS_BUILD = os.path.join(WORK, "harness")
CLI = os.path.join(PREFIX, "bin", "plrupart")
HARNESS = os.path.join(HARNESS_BUILD, "e2e_harness")
GOLDEN = os.path.join(HERE, "golden.json")
SPAWN_REPORT = os.path.join(WORK, "spawn.json")
CHILD_STDERR = os.path.join(WORK, "child.stderr")

CONFIGS = ["NOPART-L", "M-0.75N", "M-BT", "M-RRIP"]
GOLDEN_SEED = 1
TRACE_WORKLOAD = "8T_02"
TRACE_OPS = 2_000_000  # per core
SETUP_RUNS = 9  # at least this many per window
SMOKE_SCALE = 20
CLI_TIMEOUT_S = 120
HARNESS_TIMEOUT_S = 170

# name -> (Table II id, or None for the recorded 8T_02 traces; --instr;
#          extra CLI flags; cores).
# Passes are kept short (0.25-0.6 s on a 4-core Xeon) so that a window holds
# dozens of them: co-tenant contention on a shared host slows passes by up to
# 1.6x in bursts of seconds, and the fastest of many short passes stays steady
# where the median of a few long ones does not.
WORKLOADS = {
    "func_4t": ("4T_10", 200_000, [], 4),
    "trace8t_v2": (None, 50_000, [], 8),
    "timed_4t": ("4T_10", 200_000, ["--timing", "timed"], 4),
    "shard2_4t": ("4T_10", 200_000, ["--sim-threads", "2"], 4),
}
HARNESS_VARIANT = {"timed_4t": "timed", "shard2_4t": "shard2"}
CHECKED_AGAINST_FUNC = ("timed_4t", "shard2_4t")
# Columns timed mode re-prices; every other shared column must match func_4t.
TIMED_REPRICED = {"cycles", "ipc", "throughput", "wall_cycles"}

END_TO_END_UNITS = {"ns_per_instr": "ns", "setup_s": "s", "peak_rss_mib": "MiB",
                    "failed_frac": "ratio"}
CONTRACT_METRICS = ("ns_per_instr", "setup_s", "peak_rss_mib")
PER_LAYER_UNITS = {
    "workloads.gen.ns_per_call": "ns", "workloads.gen.share": "ratio",
    "sim.decode.ns_per_call": "ns", "sim.decode.share": "ratio",
    "cache.l1.ns_per_call": "ns", "cache.l1.share": "ratio",
    "cache.l1.hit_ratio": "ratio",
    "cache.l2.ns_per_call": "ns", "cache.l2.share": "ratio",
    "cache.l2.hit_ratio": "ratio",
    "core.profiler.ns_per_call": "ns", "core.profiler.share": "ratio",
    "core.controller.repartitions": "count",
    "core.controller.ns_per_repartition": "ns",
    "core.controller.share": "ratio",
    "sim.setup.share": "ratio",
    "sim.loop.share": "ratio", "sim.overrun_ratio": "ratio",
    "sim.timed.share": "ratio", "sim.timed.row_hit_ratio": "ratio",
    "sim.timed.mshr_full_stalls": "count",
    "sim.shard.speedup": "ratio", "sim.shard.shards_used": "count",
    "runner.overhead_share": "ratio", "bench.trace_overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot produce a result: no source tree, a failed build,
    a failed traced-run verification, or no successful pass."""


def child_env():
    env = dict(os.environ, TMPDIR=os.path.join(WORK, "tmp"))
    env.pop("PLRUPART_FAULT_INJECT", None)
    return env


def communicate(proc, timeout):
    """proc.communicate() that, on timeout, kills the child's whole session and
    waits until every process in it has ended. Returns stdout, or None."""
    try:
        return proc.communicate(timeout=timeout)[0]
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        return None


# --- build -------------------------------------------------------------------

def build():
    """Configure once, then build and install incrementally (a no-op rebuild
    takes well under a second), so a changed tree is never measured stale."""
    for marker in ("CMakeLists.txt", "src", os.path.join("include", "plrupart")):
        if not os.path.exists(os.path.join(ROOT, marker)):
            raise BenchError(f"no plrupart source tree at {ROOT} (missing {marker})")
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(LIB_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", LIB_BUILD, "-DCMAKE_BUILD_TYPE=Release",
                      "-DPLRUPART_BUILD_TESTS=OFF", "-DPLRUPART_BUILD_BENCH=OFF",
                      "-DPLRUPART_BUILD_EXAMPLES=OFF", "-DBUILD_TESTING=OFF"])
    steps.append(["cmake", "--build", LIB_BUILD, "-j", jobs])
    steps.append(["cmake", "--install", LIB_BUILD, "--prefix", PREFIX])
    if not os.path.exists(os.path.join(HARNESS_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(HERE, "harness"), "-B", HARNESS_BUILD,
                      "-DCMAKE_BUILD_TYPE=Release", "-DCMAKE_PREFIX_PATH=" + PREFIX])
    steps.append(["cmake", "--build", HARNESS_BUILD, "-j", jobs])
    log_path = os.path.join(WORK, "build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=child_env()).returncode != 0:
                raise BenchError(f"build step failed: {' '.join(cmd)} (see {log_path})")


def harness(args):
    """Run the harness; return its stdout lines. Raises BenchError on failure,
    which for `layers` includes a failed self-verification (exit 3)."""
    with open(CHILD_STDERR, "w") as err:
        proc = subprocess.Popen([HARNESS] + args, stdout=subprocess.PIPE, stderr=err,
                                env=child_env(), start_new_session=True)
        out = communicate(proc, HARNESS_TIMEOUT_S)
    if out is None or proc.returncode != 0:
        with open(CHILD_STDERR) as err:
            raise BenchError(f"e2e_harness {args[0]} exited {proc.returncode}: "
                             f"{err.read().strip()}")
    return out.decode().splitlines()


# --- inputs --------------------------------------------------------------------

def trace_files(seed, ops):
    """8T_02's per-core streams at `seed`, recorded in v2 format. Kept between
    runs of one seed; other seeds' files are removed to bound disk use."""
    root = os.path.join(WORK, "traces")
    path = os.path.join(root, f"seed{seed}_ops{ops}")
    listing = os.path.join(path, "files.txt")
    if not os.path.exists(listing):
        shutil.rmtree(root, ignore_errors=True)
        files = harness(["write-traces", "--workload", TRACE_WORKLOAD, "--seed", str(seed),
                         "--ops", str(ops), "--out", path])
        with open(listing, "w") as f:
            f.write("\n".join(files) + "\n")
    with open(listing) as f:
        return f.read().split()


class Workload:
    def __init__(self, name, seed, smoke):
        table_id, instr, extra, cores = WORKLOADS[name]
        self.name, self.seed, self.smoke = name, seed, smoke
        self.cores = cores
        self.instr = instr // SMOKE_SCALE if smoke else instr
        if table_id is None:
            ops = TRACE_OPS // SMOKE_SCALE if smoke else TRACE_OPS
            self.source = ["--trace", ",".join(trace_files(seed, ops))]
        else:
            self.source = ["--workload", table_id]
        self.matrix = self.source + ["--configs", ",".join(CONFIGS), "--seed", str(seed)]
        self.extra = extra

    def args(self, setup=False):
        size = ["--instr", "1", "--warmup", "0"] if setup else ["--instr", str(self.instr)]
        return self.matrix + ["--threads", "1"] + size + self.extra

    def harness_args(self):
        return (["layers"] + self.matrix + ["--instr", str(self.instr), "--variant",
                HARNESS_VARIANT.get(self.name, "functional")])

    def golden(self):
        if self.seed != GOLDEN_SEED or self.smoke or not os.path.exists(GOLDEN):
            return None
        with open(GOLDEN) as f:
            return json.load(f)["sha256"].get(self.name)


# --- one CLI run and its checks ------------------------------------------------

class CliRun:
    """One CLI child: exit status, wall time and peak RSS (measured by the
    harness's spawn wrapper), and its CSV split into per-job row blocks."""

    def __init__(self, args):
        with open(CHILD_STDERR, "w") as err:
            proc = subprocess.Popen([HARNESS, "spawn", SPAWN_REPORT, CLI] + args,
                                    stdout=subprocess.PIPE, stderr=err, env=child_env(),
                                    start_new_session=True)
            out = communicate(proc, CLI_TIMEOUT_S)
        self.ok = out is not None and proc.returncode == 0
        self.header, self.jobs = [], {}
        if out is None:
            self.error = f"timed out after {CLI_TIMEOUT_S} s"
        elif not self.ok:
            with open(CHILD_STDERR) as err:
                self.error = err.read().strip() or f"exit {proc.returncode}"
        if not self.ok:
            return
        with open(SPAWN_REPORT) as f:
            report = json.load(f)
        self.wall_s = report["wall_ns"] / 1e9
        self.rss_mib = report["maxrss_kib"] / 1024
        lines = out.decode().splitlines()
        self.header = lines[0].split(",") if lines else []
        for line in lines[1:]:
            self.jobs.setdefault(line.split(",", 1)[0], []).append(line)

    def column(self, job, name):
        i = self.header.index(name)
        return [row.split(",")[i] for row in self.jobs[job]]

    def digest(self, job):
        return hashlib.sha256("\n".join(self.jobs[job]).encode()).hexdigest()


JOB_IDS = [str(i) for i in range(len(CONFIGS))]


def bad_jobs(run, w, setup, same_as, golden, func_ref):
    """The job ids of `run` whose output fails a check:
    - the run exited non-zero or timed out (every job);
    - a job lacks one row per core, or a row's instructions != --instr;
    - a job's rows differ from `same_as` (the first pass of this workload);
    - a job's sha256 differs from the pinned `golden` digest;
    - against func_ref (a func_4t pass of the same seed): shard2_4t must match
      byte for byte, timed_4t on every shared column timing does not re-price."""
    if not run.ok:
        return set(JOB_IDS)
    bad = set()
    for job in JOB_IDS:
        rows = run.jobs.get(job, [])
        if len(rows) != w.cores or any(len(r.split(",")) != len(run.header) for r in rows):
            bad.add(job)
        elif setup:
            continue
        elif (any(int(v) != w.instr for v in run.column(job, "instructions"))
              or (same_as is not None and rows != same_as.jobs.get(job))
              or (golden is not None and golden.get(job) != run.digest(job))
              or (func_ref is not None and func_ref.ok
                  and not matches_func(run, func_ref, job, w))):
            bad.add(job)
    return bad


def matches_func(run, ref, job, w):
    if w.name == "shard2_4t":
        return run.header == ref.header and run.jobs[job] == ref.jobs.get(job)
    shared = [c for c in ref.header if c in run.header and c not in TIMED_REPRICED]
    return all(run.column(job, c) == ref.column(job, c) for c in shared)


# --- untraced measurement --------------------------------------------------------

class Ledger:
    """One workload's passes, their per-rep statistics, and its failures."""

    def __init__(self, w, func_ref, golden):
        self.w = w
        self.golden = w.golden() if golden else None
        self.func_ref = func_ref
        self.first = None  # first good pass: every later pass must match it
        self.attempted = self.failed = 0
        self.problems = []
        self.reps = {name: [] for name in CONTRACT_METRICS}
        self.passes = {"ns_per_instr": [], "setup_s": []}

    def record(self, run, label, setup=False):
        bad = bad_jobs(run, self.w, setup, self.first, self.golden, self.func_ref)
        self.attempted += len(CONFIGS)
        self.failed += len(bad)
        if bad:
            why = getattr(run, "error", "output check failed")
            self.problems.append(f"{self.w.name} {label}: jobs {sorted(bad)}: {why}")
        elif not setup and self.first is None:
            self.first = run
        return not bad

    def cli_pass(self, label="pass"):
        """One checked pass; returns it and its ns per measured instruction
        (None if the CLI did not exit 0). A pass whose output fails a check
        still has a real wall time; the failure shows in `failed`."""
        run = CliRun(self.w.args())
        self.record(run, label)
        if not run.ok:
            return run, None
        return run, run.wall_s * 1e9 / (self.w.cores * len(CONFIGS) * self.w.instr)

    def window(self, seconds):
        """One rep: back-to-back passes for `seconds`, each followed by a setup
        run so that setup samples spread over the window like the passes do.
        The rep's ns_per_instr is its fastest pass, since contention only ever
        adds time; setup_s and peak_rss_mib are medians."""
        ns, rss, setup = [], [], []

        def setup_run():
            run = CliRun(self.w.args(setup=True))
            if self.record(run, "setup", setup=True):
                setup.append(run.wall_s)

        deadline = time.monotonic() + seconds
        passes = 0
        while passes == 0 or time.monotonic() < deadline:
            passes += 1
            run, value = self.cli_pass()
            if value is not None:
                ns.append(value)
                rss.append(run.rss_mib)
            setup_run()
        for _ in range(SETUP_RUNS - passes):
            setup_run()
        self.passes["ns_per_instr"] += ns
        self.passes["setup_s"] += setup
        for name, samples, pick in (("ns_per_instr", ns, min),
                                    ("setup_s", setup, statistics.median),
                                    ("peak_rss_mib", rss, statistics.median)):
            if samples:
                self.reps[name].append(pick(samples))

    def metrics(self):
        out = {name: {"value": statistics.median(s) if s else None,
                      "unit": END_TO_END_UNITS[name], "samples": s}
               for name, s in self.reps.items()}
        frac = self.failed / self.attempted if self.attempted else 1.0
        out["failed_frac"] = {"value": frac, "unit": "ratio", "samples": [frac]}
        return out


# --- traced run -------------------------------------------------------------

def traced(led, spans):
    """Per-layer metrics of one workload from the harness, plus three checked
    CLI passes for runner.overhead_share. Appends the harness spans."""
    w = led.w
    jobs = [json.loads(line) for line in harness(w.harness_args())]
    cli_walls = []
    for _ in range(3):
        run, value = led.cli_pass("traced pass")
        if value is not None:
            cli_walls.append(run.wall_s * 1e9)
    for job in jobs:
        spans.extend(job.pop("spans"))

    def total(key):
        return sum(j[key] for j in jobs)

    def ratio(a, b):
        return a / b if b else 0.0

    twin, wall = total("twin_wall_ns"), total("wall_ns")
    ops, l2 = total("ops"), total("l2_accesses")
    self_ns = {k: sum(j["self_ns"][k] for j in jobs) for k in jobs[0]["self_ns"]}
    reparts = total("repartitions")
    dram = total("row_hits") + total("row_misses") + total("bank_conflicts")

    m = {}
    for layer in ("workloads.gen", "sim.decode"):
        mine = layer == jobs[0]["source_layer"]
        m[f"{layer}.ns_per_call"] = ratio(self_ns["source"], ops) if mine else 0.0
        m[f"{layer}.share"] = ratio(self_ns["source"], twin) if mine else 0.0
    m["cache.l1.ns_per_call"] = ratio(self_ns["l1"], ops)
    m["cache.l1.share"] = ratio(self_ns["l1"], twin)
    m["cache.l1.hit_ratio"] = 1.0 - ratio(total("l1_misses"), ops)
    m["cache.l2.ns_per_call"] = ratio(self_ns["l2"], l2)
    m["cache.l2.share"] = ratio(self_ns["l2"], twin)
    m["cache.l2.hit_ratio"] = ratio(total("l2_hits"), l2)
    m["core.profiler.ns_per_call"] = ratio(
        self_ns["profiler"], sum(j["l2_accesses"] for j in jobs if j["partitioned"]))
    m["core.profiler.share"] = ratio(self_ns["profiler"], twin)
    m["core.controller.repartitions"] = reparts
    m["core.controller.ns_per_repartition"] = ratio(self_ns["controller"], reparts)
    m["core.controller.share"] = ratio(self_ns["controller"], twin)
    m["sim.setup.share"] = ratio(self_ns["setup"], twin)
    m["sim.loop.share"] = ratio(self_ns["loop"], twin)
    m["sim.overrun_ratio"] = ratio(total("simulated_instr"), total("measured_instr"))
    m["sim.timed.share"] = ratio(wall - twin, wall) if w.name == "timed_4t" else 0.0
    m["sim.timed.row_hit_ratio"] = ratio(total("row_hits"), dram)
    m["sim.timed.mshr_full_stalls"] = total("mshr_full_stalls")
    m["sim.shard.speedup"] = ratio(twin, wall) if w.name == "shard2_4t" else 1.0
    m["sim.shard.shards_used"] = ratio(total("sim_shards"), len(jobs))
    m["runner.overhead_share"] = (1.0 - wall / statistics.median(cli_walls)
                                  if cli_walls else 0.0)
    m["bench.trace_overhead_frac"] = ratio(total("capture_ns"), twin) - 1.0
    return m, jobs


def write_spans(path, spans):
    with open(path, "w") as f:
        for s in spans:
            f.write(json.dumps(s) + "\n")


# --- modes -------------------------------------------------------------------

def make_ledger(name, seed, smoke, func_ref=None, golden=True):
    """A workload's ledger; timed_4t and shard2_4t are checked against a
    func_4t pass of the same seed: `func_ref`, or a fresh pass this ledger runs
    and accounts for. golden=False skips the pinned digests."""
    w = Workload(name, seed, smoke)
    if name not in CHECKED_AGAINST_FUNC:
        func_ref = None
    fresh = name in CHECKED_AGAINST_FUNC and func_ref is None
    if fresh:
        func_ref = CliRun(Workload("func_4t", seed, smoke).args())
    led = Ledger(w, func_ref, golden)
    if fresh:
        led.record(func_ref, "func_4t reference", setup=True)
    return led


def contract_mode(opts):
    """One workload; the last stdout line is the result object."""
    build()
    led = make_ledger(opts.workload, opts.seed, smoke=False)
    led.cli_pass("warm-up")
    if opts.trace:
        spans = []
        layers, _ = traced(led, spans)
        write_spans(os.path.join(WORK, "spans.jsonl"), spans)
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in layers.items()}
    else:
        led.window(opts.seconds)
        metrics = {k: {"value": v["value"], "unit": v["unit"]}
                   for k, v in led.metrics().items() if k in CONTRACT_METRICS}
    for problem in led.problems:
        print(problem, file=sys.stderr)
    missing = [k for k, v in metrics.items() if v["value"] is None]
    if missing:
        raise BenchError(f"no successful pass for {missing}")
    print(json.dumps({"correct": led.failed == 0, "attempted": led.attempted,
                      "failed": led.failed, "metrics": metrics}))
    return 0


def issue_mode(opts):
    """All four workloads, interleaved rep by rep; writes the results JSON."""
    smoke = opts.smoke
    reps, seconds = (1, 1.0) if smoke else (opts.reps, opts.seconds)
    if opts.update_golden and (smoke or opts.seed != GOLDEN_SEED):
        raise BenchError(f"--update-golden needs the default size and --seed {GOLDEN_SEED}")
    build()
    meta = metadata(opts.seed, reps, seconds, smoke)
    ledgers = {}
    for name in WORKLOADS:  # func_4t first: its warm-up pass is the others' reference
        func = ledgers.get("func_4t")
        ledgers[name] = make_ledger(name, opts.seed, smoke, func and func.first,
                                    golden=not opts.update_golden)
        ledgers[name].cli_pass("warm-up")
    for _ in range(reps):
        for led in ledgers.values():
            led.window(seconds)

    results = {"meta": meta, "workloads": {}}
    spans = []
    for name, led in ledgers.items():
        entry = {"cli_args": led.w.args(), "status": "measured", "passes": led.passes}
        if name == "shard2_4t" and meta["nproc"] < 3:
            entry["status"] = "unmeasured"
            entry["why"] = (f"nproc = {meta['nproc']} < 3: the demux thread and 2 workers "
                            "cannot run at once")
        if opts.traced or smoke:
            layers, jobs = traced(led, spans)
            entry["layers"] = {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                               for k, v in layers.items()}
            entry["layer_jobs"] = jobs
        entry["metrics"] = led.metrics()
        entry["attempted_jobs"], entry["failed_jobs"] = led.attempted, led.failed
        entry["problems"] = led.problems
        results["workloads"][name] = entry

    ok = all(led.failed == 0 for led in ledgers.values())
    if opts.update_golden and ok:
        golden = {"seed": GOLDEN_SEED, "configs": CONFIGS,
                  "sha256": {n: {j: led.first.digest(j) for j in JOB_IDS}
                             for n, led in ledgers.items()}}
        with open(GOLDEN, "w") as f:
            json.dump(golden, f, indent=2, sort_keys=True)
            f.write("\n")

    out = opts.out or os.path.join(WORK, "results.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump(results, f, indent=2)
        f.write("\n")
    if spans:
        write_spans(os.path.splitext(out)[0] + ".spans.jsonl", spans)
    print_table(results)
    print(f"results: {out}")
    return 0 if ok else 1


def metadata(seed, reps, seconds, smoke):
    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")),
                       cpu)
    build_type = "unknown"
    with open(os.path.join(LIB_BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    version = subprocess.run([CLI, "--version"], capture_output=True, text=True).stdout
    describe = version.split("(git ", 1)[1].rstrip(")\n") if "(git " in version else "unknown"
    info = json.loads(harness(["info"])[0])
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "build_type": build_type, "dispatch_tier": info["dispatch_tier"],
            "git_describe": describe, "version": info["version"], "seed": seed,
            "reps": reps, "seconds_per_rep": seconds, "smoke": smoke, "configs": CONFIGS,
            "load_model": "closed loop: one CLI process at a time, --threads 1"}


def print_table(results):
    meta = results["meta"]
    print(f"plrupart e2e  seed={meta['seed']} reps={meta['reps']}x{meta['seconds_per_rep']}s "
          f"nproc={meta['nproc']} tier={meta['dispatch_tier']} build={meta['build_type']} "
          f"git={meta['git_describe']}")
    for name, e in results["workloads"].items():
        for problem in e["problems"]:
            print(f"  FAIL {problem}")
        for metric, unit in END_TO_END_UNITS.items():
            m = e["metrics"][metric]
            if e["status"] == "unmeasured" and metric != "failed_frac":
                shown = f"unmeasured ({e['why']})"
            elif m["value"] is None:
                shown = "no successful pass"
            else:
                shown = f"{m['value']:.6g} {unit}  (median of {len(m['samples'])})"
            print(f"{name:11s} {metric:13s} {shown}")
        for metric, m in e.get("layers", {}).items():
            print(f"{name:11s}   {metric:35s} {m['value']:.6g} {m['unit']}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=GOLDEN_SEED)
    p.add_argument("--seconds", type=float, default=5.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reps", type=int, default=8)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--update-golden", action="store_true")
    p.add_argument("--out")
    opts = p.parse_args()
    if opts.seed < 0 or opts.reps < 1 or opts.seconds <= 0:
        p.error("--seed must be >= 0, --reps >= 1 and --seconds > 0")
    try:
        return contract_mode(opts) if opts.workload else issue_mode(opts)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
