// SweepExecutor: fans RunSpecs out over the process thread pool and puts the
// results back in canonical job order, plus canonical CSV emission and the
// resilience layer: per-job retry/timeout supervision, deterministic fault
// injection, and the crash-safe journal behind --journal/--resume.
//
// Determinism contract: each job is a single-threaded deterministic
// simulation and every result lands at its own index, so the CSV written for
// a job list is byte-identical at any --threads value. The resilience layer
// preserves it: a journaled sweep killed at any instant and resumed produces a
// final CSV byte-identical to an uninterrupted run, and a retried job
// re-executes from scratch (same spec, same seed), so recovery never changes a
// number.
#pragma once

#include "plrupart/export.hpp"

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "plrupart/common/fault_inject.hpp"
#include "plrupart/runner/run_spec.hpp"

namespace plrupart::runner {

class RunJournal;

struct PLRUPART_EXPORT SweepOptions {
  std::size_t threads = 0;  ///< worker threads; 0 = one per hardware thread
  bool progress = false;    ///< per-job completion lines on stderr
  /// Extra attempts for jobs failing with TransientError (I/O failures,
  /// injected faults). 0 = fail on first error. Attempts beyond the budget
  /// surface the last error, annotated with the attempt count.
  std::uint32_t job_retries = 0;
  /// Base of the capped exponential backoff between attempts: attempt k
  /// sleeps base << min(k, 5) milliseconds. 0 disables sleeping (tests).
  std::uint32_t retry_backoff_ms = 100;
  /// Per-job watchdog (--job-timeout): a job exceeding this many wall seconds
  /// aborts with TimeoutError — which is NOT transient, so it is surfaced
  /// immediately rather than burning the retry budget. 0 = no deadline.
  double job_timeout_s = 0.0;
  /// Journal directory (--journal); empty = no journal. See RunJournal.
  std::string journal_dir{};
  /// Resume an existing journal (--resume): skip jobs already recorded.
  bool resume = false;
  /// Fault-injection probabilities (--fault-inject); all-zero = none.
  FaultSpec faults{};
  /// Root seed for fault plans. Each (job, attempt) derives its own plan
  /// seed, so fault sequences are replayable AND a retry sees different
  /// faults than the attempt it is recovering from (otherwise an injected
  /// fault would recur forever and no retry could ever succeed).
  std::uint64_t fault_seed = 1;
};

struct PLRUPART_EXPORT JobResult {
  RunSpec spec;
  sim::SimResult result;
};

class PLRUPART_EXPORT SweepExecutor {
 public:
  explicit SweepExecutor(SweepOptions opts = {}) : opts_(opts) {}

  /// Run every job; results come back in the order of `jobs` (canonical order
  /// when the list came from RunMatrix::expand()), regardless of which
  /// worker finished when. Supervision (retries, timeout, fault plans)
  /// applies; the journal does not (use run_csv for journaled sweeps — a
  /// resumed job has durable CSV bytes but no in-memory SimResult).
  [[nodiscard]] std::vector<JobResult> run(std::vector<RunSpec> jobs) const;

  /// Run the sweep and write the final CSV to `os`. Without a journal_dir
  /// this is run() + write_csv(). With one, each completed job is durably
  /// recorded as it finishes, already-recorded jobs are skipped on --resume,
  /// and the final CSV is assembled from the journal — byte-identical to an
  /// uninterrupted, unjournaled run.
  void run_csv(std::vector<RunSpec> jobs, std::ostream& os) const;

 private:
  [[nodiscard]] sim::SimResult run_supervised(const RunSpec& spec, RunJournal* journal,
                                              std::size_t pos) const;
  /// The one fan-out behind run() and run_csv(): run (and consume) jobs[i]
  /// for every i in `todo` on the worker pool, log each completion
  /// (--progress), and hand the result to `sink(i, JobResult&&)`.
  template <class Sink>
  void fan_out(std::vector<RunSpec>& jobs, const std::vector<std::size_t>& todo,
               RunJournal* journal, Sink&& sink) const;

  SweepOptions opts_;
};

/// Column names of the sweep CSV. Leading "job" column carries the canonical
/// full-matrix index.
[[nodiscard]] PLRUPART_EXPORT const std::vector<std::string>& sweep_csv_header();

/// Mode-aware schema: functional mode is the exact classic header above
/// (byte-identical output guarantee); timed mode appends the timed-overlay
/// columns (DRAM traffic, row-buffer outcomes, MSHR occupancy/stalls, and
/// bytes-per-cycle DRAM bandwidth — job-global, repeated on each core row).
[[nodiscard]] PLRUPART_EXPORT const std::vector<std::string>& sweep_csv_header(
    sim::TimingMode mode);

/// Emit one row per (job, core) in the given order.
PLRUPART_EXPORT void write_csv(std::ostream& os, const std::vector<JobResult>& results);

/// One job's CSV rows (no header), newline-terminated — the exact bytes
/// write_csv would emit for this job. The unit of journal persistence: the
/// final CSV of a resumed sweep is header + these fragments concatenated, so
/// sharing the formatting path IS the byte-identity argument.
[[nodiscard]] PLRUPART_EXPORT std::string sweep_csv_rows(const JobResult& result);

}  // namespace plrupart::runner
