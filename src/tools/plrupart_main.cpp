// plrupart: the unified simulation driver.
//
// The one entry point for running named policy/partitioning configurations
// over the paper's workloads and getting machine-readable results out. The
// driver only parses flags into a runner::RunMatrix; expansion, parallel
// execution, and CSV emission all live in src/runner/.
//
//   plrupart --list-workloads            enumerate catalog benchmarks + Table II mixes
//   plrupart --list-configs              enumerate the paper's configuration acronyms
//   plrupart --workload 2T_04 [...]      run one or more Table II workloads
//   plrupart --benchmarks twolf,art [..] run an ad-hoc benchmark mix
//   plrupart --trace a.trace,b.trace     run captured trace files (one per core)
//
// Matrix axes (cartesian product, canonical order = workload > config > size):
//   --configs A,B,...  L2 configuration acronyms      [M-0.75N]
//   --l2-kb-sweep LIST shared L2 sizes in KB          [1024]
//
// Common run flags:
//   --instr N          per-thread measured instructions   [1000000]
//   --warmup N         warmup instructions                [instr/2]
//   --assoc N          L2 associativity                   [16]
//   --line N           line size in bytes                 [128]
//   --interval N       repartition interval in cycles     [1000000]
//   --sampling N       set sampling ratio (1 in N)        [32]
//   --seed N           root seed (per-job seeds derive from it)  [1]
//   --csv PATH         write CSV to PATH instead of stdout
//
// Scale-out flags:
//   --threads N        worker threads; 0 = one per CPU this process may use  [0]
//   --sim-threads K    intra-run front-end producers per job; 0 = as many as  [0]
//                      the CPUs left free by the sweep's workers allow (one
//                      kept free for a timed job's overlay helper); an
//                      explicit K occupies CPUs whatever the load
//   --progress         per-job completion lines on stderr
//
// Timing flags:
//   --timing MODE      functional (default) or timed: the event-driven
//                      MSHR/banked-DRAM overlay; partition decisions are
//                      identical in both modes, timed adds CSV columns. A
//                      long timed job borrows one free hardware thread for
//                      its overlay and runs the overlay inline when no
//                      thread is free; the bytes are the same either way
//
// Resilience flags:
//   --journal DIR      durable per-job journal; crash-safe atomic records
//   --resume           skip jobs already journaled in --journal DIR
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/cli.hpp"
#include "plrupart/common/assert.hpp"
#include "plrupart/core/partitioned_cache.hpp"
#include "tool_version.hpp"
#include "plrupart/runner/run_spec.hpp"
#include "plrupart/runner/sweep_executor.hpp"
#include "plrupart/workloads/catalog.hpp"
#include "plrupart/workloads/trace_workload.hpp"
#include "plrupart/workloads/workload_table.hpp"

using namespace plrupart;

namespace {

void print_usage() {
  std::printf(
      "plrupart: cache-partitioning simulation driver\n"
      "\n"
      "  plrupart --list-workloads             list catalog benchmarks and Table II mixes\n"
      "  plrupart --list-configs               list L2 configuration acronyms\n"
      "  plrupart --workload ID[,ID...]        run Table II workloads (or 'all')\n"
      "  plrupart --benchmarks NAME[,NAME...]  run an ad-hoc benchmark mix\n"
      "  plrupart --trace FILE[,FILE...]       run captured traces, one file per core\n"
      "                                        (v1/v2 auto-detected; see\n"
      "                                        plrupart-trace-convert for ChampSim/PIN)\n"
      "\n"
      "matrix axes: --configs ACRO[,ACRO...] [M-0.75N]   --l2-kb-sweep KB[,KB...] [1024]\n"
      "run flags:   --instr N [1000000]  --warmup N [instr/2]  --assoc N [16]\n"
      "             --line N [128]  --interval N [1000000]  --sampling N [32]\n"
      "             --seed N [1]  --csv PATH (default: stdout)\n"
      "scale-out:   --threads N [0 = every CPU this process may use]  --progress\n"
      "             --sim-threads K [0]  intra-run front-end producers per job:\n"
      "                                  K > 1 generates traces and runs the L1s\n"
      "                                  on min(K, cores) threads ahead of the L2;\n"
      "                                  0 takes them from the CPUs the sweep\n"
      "                                  leaves free (one kept for a timed\n"
      "                                  overlay), 1 is serial; results are\n"
      "                                  byte-identical to serial at any K\n"
      "timing:      --timing MODE [functional]  functional | timed; timed runs the\n"
      "                             event-driven MSHR/banked-DRAM overlay (same\n"
      "                             partition decisions, extra CSV columns); a\n"
      "                             long timed job borrows one free hardware\n"
      "                             thread for the overlay, and runs it inline\n"
      "                             when none is free (same bytes either way)\n"
      "resilience:  --journal DIR   crash-safe per-job journal (atomic records)\n"
      "             --resume        continue a journaled sweep, skipping done jobs\n"
      "other:       --version  print packaged version + git describe\n");
}

void list_workloads() {
  std::printf("catalog benchmarks (%zu):\n", workloads::catalog().size());
  for (const auto& p : workloads::catalog()) std::printf("  %s\n", p.name.c_str());
  std::printf("\nTable II workloads (%zu):\n", workloads::all_workloads().size());
  for (const auto& w : workloads::all_workloads()) {
    std::printf("  %-6s ", w.id.c_str());
    for (std::size_t i = 0; i < w.benchmarks.size(); ++i)
      std::printf("%s%s", i ? "," : "", w.benchmarks[i].c_str());
    std::printf("\n");
  }
}

void list_configs() {
  for (const auto& name : core::CpaConfig::known_acronyms())
    std::printf("  %-12s %s\n", name.c_str(), core::CpaConfig::describe(name).c_str());
}

/// Integer flag with bounds, so typos like `--instr -1` (or an --assoc past
/// 2^32) fail loudly instead of wrapping or truncating.
std::uint64_t get_count(const Cli& cli, std::string_view name, std::uint64_t def,
                        std::int64_t min,
                        std::int64_t max = std::numeric_limits<std::int64_t>::max()) {
  const auto v = cli.get_int(name, static_cast<std::int64_t>(def));
  PLRUPART_ASSERT_MSG(v >= min && v <= max,
                      "flag " + std::string(name) + " must be in [" + std::to_string(min) +
                          ", " + std::to_string(max) + "], got " + std::to_string(v));
  return static_cast<std::uint64_t>(v);
}

/// Parse all matrix-shaping flags. The workload axis is filled by run().
runner::RunMatrix parse_matrix(const Cli& cli) {
  runner::RunMatrix m;

  m.configs = split_list(cli.get_string("--configs", "M-0.75N"));
  PLRUPART_ASSERT_MSG(!m.configs.empty(), "--configs needs at least one acronym");

  if (cli.has("--l2-kb-sweep")) {
    m.l2_kb.clear();
    for (const auto& kb : split_list(cli.get_string("--l2-kb-sweep", "")))
      m.l2_kb.push_back(parse_u64(kb, "value for --l2-kb-sweep"));
    PLRUPART_ASSERT_MSG(!m.l2_kb.empty(), "--l2-kb-sweep needs at least one size");
  }

  constexpr auto kU32Max = std::numeric_limits<std::uint32_t>::max();
  m.assoc = static_cast<std::uint32_t>(get_count(cli, "--assoc", 16, 1, kU32Max));
  m.line = static_cast<std::uint32_t>(get_count(cli, "--line", 128, 1, kU32Max));
  // The paper's fixed private-L1D geometry; the line size tracks --line so L1
  // and L2 stay coherent.
  m.l1d = cache::Geometry{.size_bytes = 32 * 1024, .associativity = 2, .line_bytes = m.line};
  m.instr = get_count(cli, "--instr", 1'000'000, 1);
  m.warmup = get_count(cli, "--warmup", m.instr / 2, 0);
  m.interval_cycles = get_count(cli, "--interval", 1'000'000, 1);
  m.sampling_ratio =
      static_cast<std::uint32_t>(get_count(cli, "--sampling", 32, 1, kU32Max));
  m.seed = get_count(cli, "--seed", 1, 0);
  m.sim_threads = static_cast<std::uint32_t>(
      get_count(cli, "--sim-threads", 0, 0, kU32Max));
  m.timing = sim::timing_mode_from_string(cli.get_string("--timing", "functional"));
  return m;
}

/// --csv output with crash-safe publication. The writability of the path is
/// probed up front, BEFORE any simulation work: an unwritable path must fail
/// in milliseconds, not after a multi-hour sweep has produced results with
/// nowhere to go. Rows are buffered and published atomically (tmp + fsync +
/// rename) on finish(), so a crash mid-sweep can never leave a truncated,
/// plausible-looking CSV — the old file (if any) survives intact instead.
class CsvOutput {
 public:
  explicit CsvOutput(const Cli& cli) : path_(cli.get_string("--csv", "-")) {
    if (!to_stdout()) AtomicFile::probe_writable(path_);
  }
  [[nodiscard]] std::ostream& stream() {
    return to_stdout() ? static_cast<std::ostream&>(std::cout) : buf_;
  }
  void finish() {
    if (!to_stdout()) AtomicFile::write_file(path_, buf_.str());
  }

 private:
  [[nodiscard]] bool to_stdout() const noexcept { return path_ == "-"; }
  std::string path_;
  std::ostringstream buf_;
};

int run(const Cli& cli) {
  runner::RunMatrix matrix = parse_matrix(cli);

  // Resolve the workload axis: named Table II workloads, one ad-hoc mix, or
  // one trace-backed workload (captured trace files, one per core).
  const int sources = (cli.has("--workload") ? 1 : 0) + (cli.has("--benchmarks") ? 1 : 0) +
                      (cli.has("--trace") ? 1 : 0);
  if (sources > 1) {
    std::fprintf(stderr,
                 "plrupart: --workload, --benchmarks, and --trace are mutually exclusive\n");
    return 1;
  }
  if (cli.has("--trace")) {
    const auto paths = split_list(cli.get_string("--trace", ""));
    if (paths.empty()) {
      std::fprintf(stderr, "plrupart: --trace needs at least one trace file\n");
      return 1;
    }
    matrix.workloads.push_back(workloads::workload_from_traces(paths));
  } else if (auto ids = cli.value("--workload")) {
    if (*ids == "all") {
      matrix.workloads = workloads::all_workloads();
    } else {
      for (const auto& id : split_list(*ids)) {
        bool found = false;
        for (const auto& w : workloads::all_workloads()) {
          if (w.id == id) {
            matrix.workloads.push_back(w);
            found = true;
            break;
          }
        }
        if (!found) {
          std::fprintf(stderr, "plrupart: unknown workload id '%s' (see --list-workloads)\n",
                       id.c_str());
          return 1;
        }
      }
    }
  } else {
    workloads::Workload w;
    w.id = "adhoc";
    w.benchmarks = split_list(cli.get_string("--benchmarks", ""));
    if (w.benchmarks.empty()) {
      print_usage();
      return 1;
    }
    for (const auto& name : w.benchmarks) {
      if (!workloads::has_benchmark(name)) {
        std::fprintf(stderr, "plrupart: unknown benchmark '%s' (see --list-workloads)\n",
                     name.c_str());
        return 1;
      }
    }
    matrix.workloads.push_back(w);
  }

  // Validate the whole matrix before any output, so a bad --configs/geometry/
  // thread-count fails cleanly instead of after the CSV header (or earlier
  // rows of the sweep) has been emitted.
  matrix.validate();

  // Expand and fan out. Jobs land in canonical order, so the CSV is
  // byte-identical at any --threads value.
  std::vector<runner::RunSpec> jobs = matrix.expand();

  constexpr auto kU32Max = std::numeric_limits<std::uint32_t>::max();
  runner::SweepOptions opts;
  opts.threads = static_cast<std::size_t>(get_count(cli, "--threads", 0, 0, kU32Max));
  opts.progress = cli.has("--progress");
  opts.journal_dir = cli.get_string("--journal", "");
  opts.resume = cli.has("--resume");
  PLRUPART_ASSERT_MSG(!opts.resume || !opts.journal_dir.empty(),
                      "--resume requires --journal <dir>");

  CsvOutput out(cli);  // fail on a bad --csv path before simulating
  runner::SweepExecutor(opts).run_csv(std::move(jobs), out.stream());
  out.finish();
  return 0;
}

/// Reject misspelled flags, stray positionals and repeated flags: a silently
/// ignored `--asoc 99` (or the second of two `--instr`s) would otherwise
/// produce normal-looking CSV for the wrong configuration. Returns false
/// (after printing the offender) on error.
bool check_args(int argc, char** argv) {
  static constexpr std::string_view kValueFlags[] = {
      "--workload", "--benchmarks",  "--configs", "--instr",   "--warmup",
      "--l2-kb-sweep", "--assoc",    "--line",    "--interval", "--sampling",
      "--seed",     "--csv",         "--threads", "--trace",   "--sim-threads",
      "--timing",   "--journal"};
  static constexpr std::string_view kBoolFlags[] = {"--help",         "-h",
                                                    "--version",      "--list-workloads",
                                                    "--list-configs", "--progress",
                                                    "--resume"};
  std::vector<std::string_view> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto name = arg.substr(0, arg.find('='));
    const bool takes_value = std::find(std::begin(kValueFlags), std::end(kValueFlags),
                                       name) != std::end(kValueFlags);
    if (!takes_value && std::find(std::begin(kBoolFlags), std::end(kBoolFlags), name) ==
                            std::end(kBoolFlags)) {
      std::fprintf(stderr, "plrupart: unknown argument '%s' (see --help)\n", argv[i]);
      return false;
    }
    if (std::find(seen.begin(), seen.end(), name) != seen.end()) {
      std::fprintf(stderr, "plrupart: flag '%.*s' given more than once\n",
                   static_cast<int>(name.size()), name.data());
      return false;
    }
    seen.push_back(name);
    if (takes_value && arg.find('=') == std::string_view::npos) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "plrupart: flag '%s' requires a value\n", argv[i]);
        return false;
      }
      ++i;  // consume the value token
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  try {
    if (!check_args(argc, argv)) return 1;
    if (cli.has("--version")) {
      tools::print_version("plrupart");
      return 0;
    }
    if (cli.has("--help") || cli.has("-h") || argc == 1) {
      print_usage();
      return 0;
    }
    if (cli.has("--list-workloads")) {
      list_workloads();
      return 0;
    }
    if (cli.has("--list-configs")) {
      list_configs();
      return 0;
    }
    return run(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "plrupart: %s\n", e.what());
    return 1;
  }
}
