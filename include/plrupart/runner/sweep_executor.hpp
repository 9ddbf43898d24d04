// SweepExecutor: fans RunSpecs out over the process thread pool and puts the
// results back in canonical job order, plus canonical CSV emission and the
// crash-safe journal behind --journal/--resume.
//
// Determinism contract: each job is a single-threaded deterministic
// simulation and every result lands at its own index, so the CSV written for
// a job list is byte-identical at any --threads value. The resilience layer
// preserves it: a journaled sweep killed at any instant and resumed produces a
// final CSV byte-identical to an uninterrupted run. The journal is the one
// recovery path: a job that fails (a bad trace, an I/O error) stops the sweep
// with an error naming the job, and --resume re-runs it from scratch (same
// spec, same seed), so recovery never changes a number.
#pragma once

#include "plrupart/export.hpp"

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "plrupart/runner/run_spec.hpp"

namespace plrupart::runner {

class RunJournal;

struct PLRUPART_EXPORT SweepOptions {
  std::size_t threads = 0;  ///< worker threads; 0 = one per CPU the process may use
  bool progress = false;    ///< per-job completion lines on stderr
  /// Journal directory (--journal); empty = no journal. See RunJournal.
  std::string journal_dir{};
  /// Resume an existing journal (--resume): skip jobs already recorded.
  bool resume = false;
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
  /// worker finished when. The journal does not apply (use run_csv for
  /// journaled sweeps — a resumed job has durable CSV bytes but no in-memory
  /// SimResult). A failed job throws InvariantError("job <key>: <what>").
  [[nodiscard]] std::vector<JobResult> run(std::vector<RunSpec> jobs) const;

  /// Run the sweep and write the final CSV to `os`. Without a journal_dir
  /// this is run() + write_csv(). With one, each completed job is durably
  /// recorded as it finishes, already-recorded jobs are skipped on --resume,
  /// and the final CSV is assembled from the journal — byte-identical to an
  /// uninterrupted, unjournaled run.
  void run_csv(std::vector<RunSpec> jobs, std::ostream& os) const;

 private:
  /// Run one job and journal its rows; any failure
  /// leaves as InvariantError("job <key>: <what>").
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
