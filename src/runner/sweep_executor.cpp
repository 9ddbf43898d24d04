#include "plrupart/runner/sweep_executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <ostream>
#include <sstream>
#include <utility>

#include "plrupart/common/assert.hpp"
#include "plrupart/runner/journal.hpp"
#include "common/csv.hpp"
#include "common/parallel.hpp"

namespace plrupart::runner {

namespace {

/// Per-job throughput line on stderr ([n/total] <key> done ...).
void log_progress(const JobResult& jr, std::size_t n, std::size_t total, double secs) {
  // Simulated memory accesses per wall second for this job (counted
  // over the measured window), so sweep throughput — the quantity the
  // hot-path work optimizes — is visible in the field.
  std::uint64_t accesses = 0;
  for (const auto& th : jr.result.threads) accesses += th.mem.l1_accesses;
  const double rate = secs > 0.0 ? static_cast<double>(accesses) / secs : 0.0;
  if (jr.result.timing == sim::TimingMode::kTimed) {
    // Timed runs report simulated cycle throughput too — acc/s alone would
    // misleadingly undersell the (slower, event-driven) timed path.
    const double cyc_rate = secs > 0.0 ? jr.result.wall_cycles / secs : 0.0;
    std::fprintf(stderr, "plrupart: [%zu/%zu] %s done (%.1fM acc/s, %.1fM cyc/s)\n", n,
                 total, jr.spec.key().c_str(), rate / 1e6, cyc_rate / 1e6);
  } else if (jr.result.sim_shards > 1) {
    // A pipelined job: surface its front-end producer count (SimResult::
    // sim_shards) so scaling is visible in the field.
    std::fprintf(stderr, "plrupart: [%zu/%zu] %s done (%.1fM acc/s, %u shards)\n", n,
                 total, jr.spec.key().c_str(), rate / 1e6, jr.result.sim_shards);
  } else {
    std::fprintf(stderr, "plrupart: [%zu/%zu] %s done (%.1fM acc/s)\n", n, total,
                 jr.spec.key().c_str(), rate / 1e6);
  }
}

}  // namespace

sim::SimResult SweepExecutor::run_supervised(const RunSpec& spec, RunJournal* journal,
                                             std::size_t pos) const {
  try {
    sim::SimResult result = execute(spec);
    if (journal != nullptr) {
      JobResult jr;
      jr.spec = spec;
      jr.result = result;
      journal->record(pos, sweep_csv_rows(jr));
    }
    return result;
  } catch (const std::exception& e) {
    throw InvariantError("job " + spec.key() + ": " + e.what());
  }
}

template <class Sink>
void SweepExecutor::fan_out(std::vector<RunSpec>& jobs,
                            const std::vector<std::size_t>& todo, RunJournal* journal,
                            Sink&& sink) const {
  std::atomic<std::size_t> done{0};
  // Count every worker before any job starts, so that no job of a sweep
  // that fills the host takes producers or a helper the other workers need.
  const std::size_t threads = opts_.threads == 0 ? default_parallelism() : opts_.threads;
  const BusyThreads workers(std::min(threads, todo.size()));
  parallel_for(
      todo.size(),
      [&](std::size_t k) {
        const BusyThreads replay_loop = BusyThreads::worker_of(workers);
        const std::size_t i = todo[k];
        JobResult jr;
        // Moved, not copied: a per-job copy's allocations land among the
        // trace-reader windows and doubled the page faults of short
        // trace-backed jobs.
        jr.spec = std::move(jobs[i]);
        const auto t0 = std::chrono::steady_clock::now();
        jr.result = run_supervised(jr.spec, journal, i);
        if (opts_.progress) {
          const double secs =
              std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                  .count();
          log_progress(jr, done.fetch_add(1, std::memory_order_relaxed) + 1, todo.size(),
                       secs);
        }
        sink(i, std::move(jr));
      },
      threads);
}

std::vector<JobResult> SweepExecutor::run(std::vector<RunSpec> jobs) const {
  std::vector<std::size_t> all(jobs.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  std::vector<JobResult> out(jobs.size());
  fan_out(jobs, all, nullptr,
          [&](std::size_t i, JobResult&& jr) { out[i] = std::move(jr); });
  return out;
}

void SweepExecutor::run_csv(std::vector<RunSpec> jobs, std::ostream& os) const {
  if (opts_.journal_dir.empty()) {
    PLRUPART_ASSERT_MSG(!opts_.resume, "--resume requires --journal <dir>");
    const std::vector<JobResult> results = run(std::move(jobs));
    write_csv(os, results);
    return;
  }

  RunJournal journal(opts_.journal_dir, jobs, opts_.resume);
  std::vector<std::size_t> todo;
  todo.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!journal.complete(i)) todo.push_back(i);
  }
  if (opts_.progress && todo.size() < jobs.size()) {
    std::fprintf(stderr, "plrupart: resuming: %zu/%zu jobs already journaled\n",
                 jobs.size() - todo.size(), jobs.size());
  }
  // The journal already holds each job's rows; the in-memory result is dropped.
  fan_out(jobs, todo, &journal, [](std::size_t, JobResult&&) {});
  journal.write_final_csv(os);
}

const std::vector<std::string>& sweep_csv_header() {
  static const std::vector<std::string> header{
      "job",         "workload",  "config",      "l2_kb",     "seed",
      "core",        "benchmark", "instructions", "cycles",    "ipc",
      "l1_accesses", "l1_misses", "l2_accesses", "l2_misses", "l2_miss_rate",
      "throughput",  "wall_cycles", "repartitions"};
  return header;
}

const std::vector<std::string>& sweep_csv_header(sim::TimingMode mode) {
  if (mode == sim::TimingMode::kFunctional) return sweep_csv_header();
  static const std::vector<std::string> timed_header = [] {
    std::vector<std::string> h = sweep_csv_header();
    h.insert(h.end(), {"dram_reads", "dram_writebacks", "row_hits", "row_misses",
                       "bank_conflicts", "mshr_coalesced", "mshr_full_stalls",
                       "wb_full_stalls", "mshr_peak", "dram_bytes", "dram_bw"});
    return h;
  }();
  return timed_header;
}

namespace {

/// The single row-formatting path: write_csv and the journal both emit
/// through here, which is what makes a journal-assembled CSV byte-identical
/// to a directly-written one.
void append_job_rows(CsvWriter& csv, const JobResult& jr) {
  const auto& s = jr.spec;
  const auto& r = jr.result;
  for (std::size_t core = 0; core < r.threads.size(); ++core) {
    const auto& th = r.threads[core];
    const double miss_rate =
        th.mem.l2_accesses ? static_cast<double>(th.mem.l2_misses) /
                                 static_cast<double>(th.mem.l2_accesses)
                           : 0.0;
    if (r.timing == sim::TimingMode::kTimed) {
      // Timed schema: classic columns plus the overlay counters (job-global,
      // repeated on each core row so every row is self-contained).
      const auto& ts = r.timed;
      const double bw = r.wall_cycles > 0.0
                            ? static_cast<double>(ts.dram_bytes) / r.wall_cycles
                            : 0.0;
      csv.row_of(s.job_index, s.workload.id, s.config, s.l2.size_bytes / 1024, s.seed,
                 core, th.benchmark, th.instructions, th.cycles, th.ipc,
                 th.mem.l1_accesses, th.mem.l1_misses, th.mem.l2_accesses,
                 th.mem.l2_misses, miss_rate, r.throughput(), r.wall_cycles,
                 r.repartitions, ts.dram_reads, ts.dram_writebacks, ts.row_hits,
                 ts.row_misses, ts.bank_conflicts, ts.mshr_coalesced,
                 ts.mshr_full_stalls, ts.wb_full_stalls, ts.mshr_peak, ts.dram_bytes,
                 bw);
    } else {
      csv.row_of(s.job_index, s.workload.id, s.config, s.l2.size_bytes / 1024, s.seed,
                 core, th.benchmark, th.instructions, th.cycles, th.ipc,
                 th.mem.l1_accesses, th.mem.l1_misses, th.mem.l2_accesses,
                 th.mem.l2_misses, miss_rate, r.throughput(), r.wall_cycles,
                 r.repartitions);
    }
  }
}

}  // namespace

void write_csv(std::ostream& os, const std::vector<JobResult>& results) {
  // One header per file: the mode is uniform across a sweep (RunMatrix carries
  // one timing field). A mixed list would trip CsvWriter's width check.
  const sim::TimingMode mode =
      results.empty() ? sim::TimingMode::kFunctional : results.front().result.timing;
  CsvWriter csv(os, sweep_csv_header(mode));
  for (const auto& jr : results) append_job_rows(csv, jr);
}

std::string sweep_csv_rows(const JobResult& result) {
  std::ostringstream ss;
  CsvWriter csv(ss, sweep_csv_header(result.result.timing).size(), CsvWriter::NoHeader{});
  append_job_rows(csv, result);
  return ss.str();
}

}  // namespace plrupart::runner
