// e2e_harness: the per-layer half of the end-to-end benchmark (bench/e2e).
//
// It links an installed plrupart package and uses the public headers only, so
// every layer is timed from outside, through calls into its public functions.
// No timer lives inside the library.
//
//   e2e_harness info
//       One JSON line: the SIMD dispatch tier new caches adopt, and the
//       package version.
//
//   e2e_harness spawn REPORT PROGRAM [ARGS..]
//       Run PROGRAM (the CLI) as a child; write its exit status, wall time and
//       peak RSS to REPORT.
//
//   e2e_harness write-traces --workload ID --seed S --ops N --out DIR
//       Record the first N ops of each core's synthetic stream of Table II
//       workload ID, the streams `plrupart --workload ID --seed S` generates,
//       to DIR/<core>_<benchmark>.trace in the v2 format. One path per line.
//
//   e2e_harness layers (--workload ID | --trace F1,F2,..) --configs A,B,..
//                      --instr N --seed S [--variant functional|timed|shard2]
//       One JSON line per job of the same matrix the CLI builds from those
//       flags. For each job:
//        1. runner::execute() three times; the median is the job wall. The
//           timed and shard2 variants also time their functional serial
//           twin (same spec, timing/sim_threads toggled), interleaved.
//        2. A capture pass replays the twin through the public calls
//           CmpSimulator::run_serial makes (TraceSource::next, the L1
//           SetAssocCache::access, Profiler::record_access,
//           IntervalController::tick, the L2 SetAssocCache::access). It keeps
//           the L2 input stream in memory, and each core's op count: a fresh
//           source regenerates that core's source and L1 stream. Its SimResult
//           must equal execute()'s field for field.
//        3. Each layer is re-driven from its captured stream on fresh objects
//           in a tight loop, one clock pair per batch, median of 3. Every
//           replay must reproduce the captured outcomes: L1 misses, the
//           per-access L2 hit bits, the controller history length.
//       Self times: setup (building sources, L1s and L2) from the capture
//       pass; source and L1 from their replays; profiler from the
//       profiler-only replay; controller = (profiler + tick) - profiler;
//       L2 = (full PartitionedCacheSystem::access) - (profiler + tick);
//       loop = twin wall - the sum of the others.
//       Exits 3 naming the job and the layer on any mismatch.
#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iomanip>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "plrupart/cache/cache.hpp"
#include "plrupart/cache/dispatch.hpp"
#include "plrupart/common/rng.hpp"
#include "plrupart/core/partitioned_cache.hpp"
#include "plrupart/runner/run_spec.hpp"
#include "plrupart/sim/cmp_simulator.hpp"
#include "plrupart/sim/trace_file.hpp"
#include "plrupart/version.hpp"
#include "plrupart/workloads/catalog.hpp"
#include "plrupart/workloads/generators.hpp"
#include "plrupart/workloads/trace_workload.hpp"
#include "plrupart/workloads/workload_table.hpp"

using namespace plrupart;

namespace {

using Clock = std::chrono::steady_clock;

// Source and L1 replays read the clock once per batch of this many ops: a
// clock read costs about as much as one L1 access, so per-call timing would
// measure the clock.
constexpr std::size_t kBatch = std::size_t{1} << 16;
constexpr int kReps = 3;

const Clock::time_point kEpoch = Clock::now();

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}
long long ns_since_epoch(Clock::time_point t) {
  return static_cast<long long>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - kEpoch).count());
}

/// A replayed outcome that differs from the capture (or a capture that
/// differs from runner::execute): names the job and the layer.
struct Mismatch : std::runtime_error {
  Mismatch(const std::string& job, const std::string& layer, const std::string& what)
      : std::runtime_error("job " + job + " layer " + layer + ": " + what) {}
};

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// --- flags -----------------------------------------------------------------

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag.rfind("--", 0) != 0 || i + 1 >= argc)
        throw UsageError("expected --flag value, got '" + flag + "'");
      values_[flag] = argv[++i];
    }
  }
  [[nodiscard]] bool has(const std::string& flag) const {
    return values_.count(flag) != 0;
  }
  [[nodiscard]] std::string get(const std::string& flag) const {
    const auto it = values_.find(flag);
    if (it == values_.end()) throw UsageError("missing " + flag);
    return it->second;
  }
  [[nodiscard]] std::string get(const std::string& flag, const std::string& def) const {
    return has(flag) ? get(flag) : def;
  }
  [[nodiscard]] std::uint64_t get_u64(const std::string& flag) const {
    const std::string text = get(flag);
    std::size_t used = 0;
    unsigned long long v = 0;
    try {
      v = std::stoull(text, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used == 0 || used != text.size() || text[0] == '-')
      throw UsageError(flag + " expects an unsigned integer, got '" + text + "'");
    return v;
  }

 private:
  std::map<std::string, std::string> values_;
};

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

const workloads::Workload& table_workload(const std::string& id) {
  for (const auto& w : workloads::all_workloads())
    if (w.id == id) return w;
  throw UsageError("unknown Table II workload '" + id + "'");
}

// --- the job, built the way runner::execute builds it ----------------------

sim::SimConfig job_config(const runner::RunSpec& s) {
  sim::SimConfig cfg;
  cfg.hierarchy.l1d = s.l1d;
  cfg.hierarchy.l2 = core::CpaConfig::from_acronym(s.config, s.workload.threads(), s.l2);
  cfg.hierarchy.l2.interval_cycles = s.interval_cycles;
  cfg.hierarchy.l2.sampling_ratio = s.sampling_ratio;
  cfg.hierarchy.l2.seed = s.seed;
  cfg.instr_limit = s.instr;
  cfg.warmup_instr = s.warmup;
  for (const auto& name : s.workload.benchmarks)
    cfg.cores.push_back(s.workload.trace_backed() ? workloads::trace_core_params()
                                                  : workloads::benchmark(name).core);
  return cfg;
}

std::unique_ptr<sim::TraceSource> job_source(const runner::RunSpec& s,
                                             std::uint32_t core) {
  if (s.workload.trace_backed())
    return std::make_unique<sim::FileTraceSource>(s.workload.traces[core]);
  return workloads::make_trace(workloads::benchmark(s.workload.benchmarks[core]), core,
                               s.seed);
}

/// A private L1, as MemoryHierarchy builds it.
std::unique_ptr<cache::SetAssocCache> make_l1(const sim::HierarchyConfig& h,
                                              std::uint32_t core) {
  return std::make_unique<cache::SetAssocCache>(h.l1d, cache::ReplacementKind::kLru, 1,
                                                cache::EnforcementMode::kNone,
                                                derive_seed(h.l2.seed, 1000 + core));
}

// --- capture pass ------------------------------------------------------------

/// One captured L2 access: the controller timestamp, and the line address
/// with the core and the write bit packed below it (Table II has <= 8 cores).
struct L2Op {
  std::uint64_t now = 0;
  std::uint64_t key = 0;

  [[nodiscard]] cache::CoreId core() const {
    return static_cast<cache::CoreId>((key >> 1) & 7);
  }
  [[nodiscard]] bool write() const { return (key & 1) != 0; }
  [[nodiscard]] cache::Addr line() const { return key >> 4; }
};

struct Capture {
  sim::SimResult result;
  std::vector<std::uint64_t> ops;  ///< trace ops each core consumed
  std::vector<L2Op> l2;            ///< every L2 access, in global order
  std::vector<std::uint8_t> l2_hit;
  std::uint64_t l1_misses = 0;
  std::uint64_t simulated_instr = 0;  ///< warmup and overrun included
  double setup_ns = 0.0;              ///< building the sources, L1s and L2
  double wall_ns = 0.0;               ///< the replay loop
};

/// CmpSimulator::run_serial, spelled out in public calls, recording the L2
/// input stream and how many ops each core's source supplied.
Capture capture(const runner::RunSpec& spec) {
  const auto setup_start = Clock::now();
  const sim::SimConfig cfg = job_config(spec);
  const std::uint32_t n = spec.workload.threads();
  const cache::Geometry& l2_geo = cfg.hierarchy.l2.geometry;

  std::vector<std::unique_ptr<sim::TraceSource>> src;
  std::vector<std::unique_ptr<cache::SetAssocCache>> l1;
  std::vector<sim::CoreModel> models;
  for (std::uint32_t c = 0; c < n; ++c) {
    src.push_back(job_source(spec, c));
    l1.push_back(make_l1(cfg.hierarchy, c));
    models.emplace_back(cfg.cores[c]);
  }
  core::PartitionedCacheSystem l2(cfg.hierarchy.l2);
  std::vector<core::Profiler*> prof;
  if (l2.config().partitioned())
    for (std::uint32_t c = 0; c < n; ++c) prof.push_back(&l2.profiler_mut(c));
  core::IntervalController* ctrl = l2.controller_mut();

  struct Baseline {
    std::uint64_t instructions = 0;
    double cycles = 0.0;
    sim::HierarchyCounters mem;
  };
  std::vector<sim::HierarchyCounters> ctr(n);
  std::vector<Baseline> base(n);
  std::vector<bool> frozen(n, false);
  std::vector<sim::ThreadResult> threads(n);
  bool windows_open = cfg.warmup_instr == 0;
  std::uint32_t remaining = n;

  Capture cap;
  cap.ops.assign(n, 0);
  const auto t0 = Clock::now();
  cap.setup_ns = ns_between(setup_start, t0);
  while (remaining > 0) {
    std::uint32_t core = 0;
    double min_cycles = std::numeric_limits<double>::infinity();
    for (std::uint32_t i = 0; i < n; ++i) {
      if (models[i].cycles() < min_cycles) {
        min_cycles = models[i].cycles();
        core = i;
      }
    }

    const sim::MemOp op = src[core]->next();
    ++cap.ops[core];
    models[core].commit_gap(op.gap_instrs);
    const auto now = static_cast<std::uint64_t>(models[core].cycles());
    sim::HierarchyCounters& cc = ctr[core];
    sim::AccessLevel level = sim::AccessLevel::kL1;
    ++cc.l1_accesses;
    if (!l1[core]->access(0, op.addr, op.write).hit) {
      ++cc.l1_misses;
      ++cc.l2_accesses;
      const cache::Addr line = l2_geo.line_addr(op.addr);
      if (ctrl != nullptr) {
        prof[core]->record_access(line);
        ctrl->tick(now);
      }
      const bool hit = l2.l2().access(core, op.addr, op.write).hit;
      const std::uint64_t key = (line << 4) | (std::uint64_t{core} << 1);
      cap.l2.push_back({now, op.write ? key | 1 : key});
      cap.l2_hit.push_back(hit ? 1 : 0);
      if (hit) {
        level = sim::AccessLevel::kL2;
      } else {
        ++cc.l2_misses;
        level = sim::AccessLevel::kMemory;
      }
    }
    models[core].commit_mem(level);

    if (!windows_open) {
      std::uint64_t min_instr = models[0].instructions();
      for (std::uint32_t i = 1; i < n; ++i)
        min_instr = std::min(min_instr, models[i].instructions());
      if (min_instr >= cfg.warmup_instr) {
        windows_open = true;
        for (std::uint32_t i = 0; i < n; ++i)
          base[i] = {models[i].instructions(), models[i].cycles(), ctr[i]};
      }
      continue;
    }
    if (!frozen[core] &&
        models[core].instructions() >= base[core].instructions + cfg.instr_limit) {
      frozen[core] = true;
      --remaining;
      sim::ThreadResult& r = threads[core];
      r.benchmark = src[core]->name();
      r.instructions = models[core].instructions() - base[core].instructions;
      r.cycles = models[core].cycles() - base[core].cycles;
      r.ipc = r.cycles > 0.0 ? static_cast<double>(r.instructions) / r.cycles : 0.0;
      r.mem.l1_accesses = cc.l1_accesses - base[core].mem.l1_accesses;
      r.mem.l1_misses = cc.l1_misses - base[core].mem.l1_misses;
      r.mem.l2_accesses = cc.l2_accesses - base[core].mem.l2_accesses;
      r.mem.l2_misses = cc.l2_misses - base[core].mem.l2_misses;
    }
  }
  cap.wall_ns = ns_between(t0, Clock::now());

  cap.result.threads = std::move(threads);
  for (const auto& t : cap.result.threads)
    cap.result.wall_cycles = std::max(cap.result.wall_cycles, t.cycles);
  cap.result.repartitions = ctrl != nullptr ? ctrl->history().size() : 0;
  cap.result.l2_config = l2.config().acronym();
  for (std::uint32_t c = 0; c < n; ++c) {
    cap.l1_misses += ctr[c].l1_misses;
    cap.simulated_instr += models[c].instructions();
  }
  return cap;
}

/// Field-by-field SimResult comparison. `cycle_fields` = false skips the
/// fields timed mode re-prices (cycles, ipc, wall_cycles).
void expect_same(const sim::SimResult& want, const sim::SimResult& got, bool cycle_fields,
                 const std::string& job, const std::string& layer) {
  const auto fail = [&](const std::string& what) { throw Mismatch(job, layer, what); };
  if (got.threads.size() != want.threads.size()) fail("thread count differs");
  for (std::size_t i = 0; i < want.threads.size(); ++i) {
    const auto& w = want.threads[i];
    const auto& g = got.threads[i];
    const std::string at = " differs on core " + std::to_string(i);
    if (g.benchmark != w.benchmark) fail("benchmark" + at);
    if (g.instructions != w.instructions) fail("instructions" + at);
    if (cycle_fields && (g.cycles != w.cycles || g.ipc != w.ipc)) fail("cycles/ipc" + at);
    if (g.mem.l1_accesses != w.mem.l1_accesses || g.mem.l1_misses != w.mem.l1_misses)
      fail("L1 counters" + at);
    if (g.mem.l2_accesses != w.mem.l2_accesses || g.mem.l2_misses != w.mem.l2_misses)
      fail("L2 counters" + at);
  }
  if (cycle_fields && got.wall_cycles != want.wall_cycles) fail("wall_cycles differs");
  if (got.repartitions != want.repartitions) fail("repartitions differ");
  if (got.l2_config != want.l2_config) fail("l2_config differs");
}

// --- isolated replays ------------------------------------------------------

/// Start, end, and measured busy time of one timed run.
struct Run {
  double ns = 0.0;
  Clock::time_point start, end;
};

using Reps = std::array<Run, kReps>;

Run median(Reps runs) {
  std::sort(runs.begin(), runs.end(),
            [](const Run& a, const Run& b) { return a.ns < b.ns; });
  return runs[kReps / 2];
}

double median(std::array<double, kReps> v) {
  std::sort(v.begin(), v.end());
  return v[kReps / 2];
}

/// Trace source and L1 replays, batch-interleaved: each core's stream is
/// produced a batch at a time on a fresh source (timed: the source layer),
/// then fed to a fresh L1 (timed: the L1 layer).
struct SourceL1 {
  Run source, l1;
};

SourceL1 replay_source_l1(const runner::RunSpec& spec, const sim::SimConfig& cfg,
                          const Capture& cap, const std::string& job) {
  Reps source{}, l1_runs{};
  std::vector<sim::MemOp> buf(kBatch);
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    source[rep].start = Clock::now();
    std::uint64_t misses = 0;
    for (std::uint32_t c = 0; c < cap.ops.size(); ++c) {
      auto src = job_source(spec, c);
      auto l1 = make_l1(cfg.hierarchy, c);
      for (std::uint64_t left = cap.ops[c]; left > 0;) {
        const auto b = static_cast<std::size_t>(std::min<std::uint64_t>(left, kBatch));
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < b; ++i) buf[i] = src->next();
        const auto t1 = Clock::now();
        for (std::size_t i = 0; i < b; ++i)
          misses += l1->access(0, buf[i].addr, buf[i].write).hit ? 0 : 1;
        const auto t2 = Clock::now();
        source[rep].ns += ns_between(t0, t1);
        l1_runs[rep].ns += ns_between(t1, t2);
        left -= b;
      }
    }
    source[rep].end = Clock::now();
    l1_runs[rep].start = source[rep].start;
    l1_runs[rep].end = source[rep].end;
    if (misses != cap.l1_misses)
      throw Mismatch(job, "cache.l1",
                     "replay misses " + std::to_string(misses) + " != captured " +
                         std::to_string(cap.l1_misses));
  }
  return {median(source), median(l1_runs)};
}

enum class L2Stage { kProfiler, kProfilerTick, kFull };

/// Re-drive the captured L2 stream into a fresh PartitionedCacheSystem up to
/// `stage`, checking the outcomes that stage reproduces.
double replay_l2(const sim::SimConfig& cfg, const Capture& cap, L2Stage stage,
                 const std::string& job) {
  core::PartitionedCacheSystem sys(cfg.hierarchy.l2);
  core::IntervalController* ctrl = sys.controller_mut();
  std::vector<core::Profiler*> prof;
  if (ctrl != nullptr)
    for (std::uint32_t c = 0; c < cfg.hierarchy.l2.num_cores; ++c)
      prof.push_back(&sys.profiler_mut(c));
  const std::uint64_t line_bytes = cfg.hierarchy.l2.geometry.line_bytes;
  std::vector<std::uint8_t> hits(stage == L2Stage::kFull ? cap.l2.size() : 0);

  const auto t0 = Clock::now();
  switch (stage) {
    case L2Stage::kProfiler:
      for (const L2Op& op : cap.l2) prof[op.core()]->record_access(op.line());
      break;
    case L2Stage::kProfilerTick:
      for (const L2Op& op : cap.l2) {
        prof[op.core()]->record_access(op.line());
        ctrl->tick(op.now);
      }
      break;
    case L2Stage::kFull:
      for (std::size_t i = 0; i < cap.l2.size(); ++i) {
        const L2Op& op = cap.l2[i];
        hits[i] = sys.access(op.core(), op.line() * line_bytes, op.write(), op.now).hit;
      }
      break;
  }
  const double ns = ns_between(t0, Clock::now());

  if (stage != L2Stage::kProfiler && ctrl != nullptr &&
      ctrl->history().size() != cap.result.repartitions)
    throw Mismatch(job, "core.controller",
                   "replay history " + std::to_string(ctrl->history().size()) +
                       " != captured " + std::to_string(cap.result.repartitions));
  if (stage == L2Stage::kFull && hits != cap.l2_hit) {
    const auto at = std::mismatch(hits.begin(), hits.end(), cap.l2_hit.begin()).first;
    throw Mismatch(job, "cache.l2",
                   "hit bit differs at L2 access " + std::to_string(at - hits.begin()));
  }
  return ns;
}

/// The three L2-side replays, run back to back within each rep so that the
/// differences giving the controller and L2 self times are paired.
struct L2Side {
  Run prof, ptick, full;
  double controller_ns = 0.0;
  double l2_ns = 0.0;
};

L2Side replay_l2_side(const sim::SimConfig& cfg, const Capture& cap,
                      const std::string& job) {
  const bool partitioned = cfg.hierarchy.l2.partitioned();
  Reps prof{}, ptick{}, full{};
  std::array<double, kReps> controller{}, l2{};
  const auto timed = [&](Run& r, L2Stage stage) {
    r.start = Clock::now();
    r.ns = replay_l2(cfg, cap, stage, job);
    r.end = Clock::now();
  };
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    if (partitioned) {
      timed(prof[rep], L2Stage::kProfiler);
      timed(ptick[rep], L2Stage::kProfilerTick);
    }
    timed(full[rep], L2Stage::kFull);
    controller[rep] = ptick[rep].ns - prof[rep].ns;
    l2[rep] = full[rep].ns - ptick[rep].ns;
  }
  return {median(prof), median(ptick), median(full), median(controller), median(l2)};
}

// --- output ----------------------------------------------------------------

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + '"';
}

struct SpanOut {
  std::string name;
  Run window;
  double self_ns = 0.0;
  std::uint64_t calls = 0;
};

std::string spans_json(const std::string& job, const SpanOut& root,
                       const std::vector<SpanOut>& layers) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(0);
  const auto one = [&](const SpanOut& s, const std::string& parent) {
    os << "{\"trace\":" << quoted(job) << ",\"name\":" << quoted(s.name)
       << ",\"parent\":" << (parent.empty() ? "null" : quoted(parent))
       << ",\"start_ns\":" << ns_since_epoch(s.window.start)
       << ",\"end_ns\":" << ns_since_epoch(s.window.end) << ",\"self_ns\":" << s.self_ns
       << ",\"calls\":" << s.calls << '}';
  };
  os << '[';
  one(root, "");
  for (const auto& s : layers) {
    os << ',';
    one(s, root.name);
  }
  os << ']';
  return os.str();
}

// --- subcommands -----------------------------------------------------------

/// spawn REPORT PROGRAM ARGS..: run PROGRAM, then write its exit status, wall
/// time and peak RSS to REPORT as one JSON line. Linux folds the pre-exec
/// address space into a child's ru_maxrss, so a child forked straight from
/// run.py would report the Python interpreter's memory; forked from this small
/// process it reports its own.
int cmd_spawn(int argc, char** argv) {
  if (argc < 4) throw UsageError("usage: e2e_harness spawn REPORT PROGRAM [ARGS..]");
  const auto t0 = Clock::now();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    execv(argv[3], argv + 3);
    _exit(127);
  }
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4 failed");
  }
  const double wall_ns = ns_between(t0, Clock::now());
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  std::FILE* out = std::fopen(argv[2], "w");
  if (out == nullptr) throw std::runtime_error(std::string("cannot write ") + argv[2]);
  std::fprintf(out, "{\"exit\":%d,\"wall_ns\":%.0f,\"maxrss_kib\":%ld}\n", code, wall_ns,
               ru.ru_maxrss);
  if (std::fclose(out) != 0)
    throw std::runtime_error(std::string("cannot write ") + argv[2]);
  return code;
}

int cmd_info() {
  std::printf("{\"dispatch_tier\":%s,\"version\":%s}\n",
              quoted(cache::to_string(cache::active_dispatch_tier())).c_str(),
              quoted(kVersionString).c_str());
  return 0;
}

int cmd_write_traces(const Args& args) {
  runner::RunMatrix m;
  m.configs = {"NOPART-L"};
  m.workloads = {table_workload(args.get("--workload"))};
  m.seed = args.get_u64("--seed");
  const runner::RunSpec spec = m.expand().front();  // carries the row's job seed
  const std::uint64_t ops = args.get_u64("--ops");
  const std::filesystem::path dir = args.get("--out");
  std::filesystem::create_directories(dir);
  for (std::uint32_t c = 0; c < spec.workload.threads(); ++c) {
    const std::string name =
        std::to_string(c) + "_" + spec.workload.benchmarks[c] + ".trace";
    const std::string path = (dir / name).string();
    auto source = job_source(spec, c);
    sim::TraceWriter writer(path, sim::TraceFormat::kBinaryV2);
    for (std::uint64_t i = 0; i < ops; ++i) writer.append(source->next());
    writer.close();
    std::printf("%s\n", path.c_str());
  }
  return 0;
}

int cmd_layers(const Args& args) {
  runner::RunMatrix m;
  m.configs = split_list(args.get("--configs"));
  if (args.has("--trace"))
    m.workloads = {workloads::workload_from_traces(split_list(args.get("--trace")))};
  else
    m.workloads = {table_workload(args.get("--workload"))};
  m.instr = args.get_u64("--instr");
  m.warmup = m.instr / 2;  // the CLI's default
  m.seed = args.get_u64("--seed");
  const std::string variant = args.get("--variant", "functional");
  if (variant != "functional" && variant != "timed" && variant != "shard2")
    throw UsageError("--variant must be functional, timed or shard2");
  if (m.workloads.front().threads() > 8) throw UsageError("at most 8 cores");

  for (const runner::RunSpec& twin : m.expand()) {
    const std::string job = twin.key();
    runner::RunSpec spec = twin;
    if (variant == "timed") spec.timing = sim::TimingMode::kTimed;
    if (variant == "shard2") spec.sim_threads = 2;
    const bool paired = variant != "functional";

    // 1. Job walls: execute() x3, the twin interleaved with the job.
    Reps job_runs{}, twin_runs{};
    sim::SimResult job_result, twin_result;
    const auto timed_execute = [](const runner::RunSpec& s, Run& r) {
      r.start = Clock::now();
      sim::SimResult result = runner::execute(s);
      r.end = Clock::now();
      r.ns = ns_between(r.start, r.end);
      return result;
    };
    for (std::size_t rep = 0; rep < kReps; ++rep) {
      twin_result = timed_execute(twin, twin_runs[rep]);
      if (paired) job_result = timed_execute(spec, job_runs[rep]);
    }
    if (!paired) {
      job_runs = twin_runs;
      job_result = twin_result;
    }
    // Timed mode re-prices cycles only; sharding changes nothing.
    expect_same(twin_result, job_result, variant != "timed", job, "sim." + variant);
    const Run job_wall = median(job_runs);
    const Run twin_wall = median(twin_runs);

    // 2. Capture pass.
    const auto cap_start = Clock::now();
    const Capture cap = capture(twin);
    const Run cap_run{cap.setup_ns + cap.wall_ns, cap_start, Clock::now()};
    expect_same(twin_result, cap.result, true, job, "capture");

    // 3. Isolated replays.
    const sim::SimConfig cfg = job_config(twin);
    const bool partitioned = cfg.hierarchy.l2.partitioned();
    const SourceL1 sl = replay_source_l1(twin, cfg, cap, job);
    const L2Side l2s = replay_l2_side(cfg, cap, job);

    std::uint64_t ops = 0;
    for (const auto o : cap.ops) ops += o;
    std::uint64_t l2_hits = 0;
    for (const auto h : cap.l2_hit) l2_hits += h;
    const double loop_ns = twin_wall.ns - (cap.setup_ns + sl.source.ns + sl.l1.ns +
                                           l2s.prof.ns + l2s.controller_ns + l2s.l2_ns);
    const std::string source_layer =
        twin.workload.trace_backed() ? "sim.decode" : "workloads.gen";
    const std::uint64_t l2_calls = cap.l2.size();

    std::vector<SpanOut> spans = {
        {"sim.setup", cap_run, cap.setup_ns, 1},
        {source_layer, sl.source, sl.source.ns, ops},
        {"cache.l1", sl.l1, sl.l1.ns, ops},
        {"cache.l2", l2s.full, l2s.l2_ns, l2_calls},
        {"sim.loop", twin_wall, loop_ns, ops},
    };
    if (partitioned) {
      spans.push_back({"core.profiler", l2s.prof, l2s.prof.ns, l2_calls});
      spans.push_back({"core.controller", l2s.ptick, l2s.controller_ns, l2_calls});
    }
    if (variant == "timed")
      spans.push_back({"sim.timed", job_wall, job_wall.ns - twin_wall.ns, ops});

    const sim::TimedStats& ts = job_result.timed;
    const auto u = [](std::uint64_t v) { return static_cast<unsigned long long>(v); };
    std::printf(
        "{\"job\":%s,\"config\":%s,\"variant\":%s,\"source_layer\":%s,"
        "\"partitioned\":%s,\"wall_ns\":%.0f,\"twin_wall_ns\":%.0f,\"capture_ns\":%.0f,"
        "\"ops\":%llu,\"l1_misses\":%llu,\"l2_accesses\":%llu,\"l2_hits\":%llu,"
        "\"repartitions\":%llu,\"simulated_instr\":%llu,\"measured_instr\":%llu,"
        "\"sim_shards\":%u,\"row_hits\":%llu,\"row_misses\":%llu,"
        "\"bank_conflicts\":%llu,\"mshr_full_stalls\":%llu,"
        "\"self_ns\":{\"setup\":%.0f,\"source\":%.0f,\"l1\":%.0f,\"profiler\":%.0f,"
        "\"controller\":%.0f,\"l2\":%.0f,\"loop\":%.0f},\"spans\":%s}\n",
        quoted(job).c_str(), quoted(twin.config).c_str(), quoted(variant).c_str(),
        quoted(source_layer).c_str(), partitioned ? "true" : "false", job_wall.ns,
        twin_wall.ns, cap_run.ns, u(ops), u(cap.l1_misses), u(l2_calls), u(l2_hits),
        u(cap.result.repartitions), u(cap.simulated_instr),
        u(cap.result.total_instructions()), job_result.sim_shards, u(ts.row_hits),
        u(ts.row_misses), u(ts.bank_conflicts), u(ts.mshr_full_stalls), cap.setup_ns,
        sl.source.ns, sl.l1.ns, l2s.prof.ns, l2s.controller_ns, l2s.l2_ns, loop_ns,
        spans_json(job, {"job", job_wall, job_wall.ns, 1}, spans).c_str());
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "spawn") return cmd_spawn(argc, argv);
    const Args args(argc, argv);
    if (cmd == "info") return cmd_info();
    if (cmd == "write-traces") return cmd_write_traces(args);
    if (cmd == "layers") return cmd_layers(args);
    throw UsageError("usage: e2e_harness info | write-traces ... | layers ...");
  } catch (const Mismatch& e) {
    std::fprintf(stderr, "e2e_harness: verification failed: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_harness: %s\n", e.what());
    return 2;
  }
}
