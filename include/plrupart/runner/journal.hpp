// Crash-safe run journal: durable per-job progress for resumable sweeps.
//
// Layout of a journal directory (--journal <dir>):
//
//   MANIFEST            "plrupart-journal v1" + the job-list fingerprint and
//                       job count, written atomically before any job runs
//   job-<index>.rec     one record per completed job: a header (fingerprint,
//                       job index, key, payload byte count, FNV-1a checksum)
//                       followed by the job's verbatim CSV row bytes
//   *.tmp.<pid>         in-flight writes; a crash leaves at most these, and
//                       they are ignored on resume
//
// Every record is published with AtomicFile (tmp + fsync + rename), so at any
// kill point each job is either durably complete or absent — never truncated.
// On --resume the manifest and every present record are validated against the
// fingerprint of THIS run's job list (configs × workloads × sizes × seed; see
// jobs_fingerprint), completed jobs are skipped, and the final CSV is
// assembled from the journal in canonical order — byte-identical to an
// uninterrupted run, because records hold the exact bytes write_csv would
// have emitted.
#pragma once

#include "plrupart/export.hpp"

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "plrupart/runner/run_spec.hpp"

namespace plrupart::runner {

class PLRUPART_EXPORT RunJournal {
 public:
  /// Open the journal at `dir` (created if missing) for this job list.
  /// Fresh mode (resume == false) refuses a directory that already holds a
  /// manifest — resuming must be explicit. Resume mode requires a manifest
  /// whose fingerprint matches `jobs`, validates every present record, and
  /// marks the corresponding jobs complete. Throws InvariantError with an
  /// actionable message on any mismatch, stale journal, or corrupt record.
  RunJournal(std::filesystem::path dir, const std::vector<RunSpec>& jobs, bool resume);

  [[nodiscard]] std::size_t size() const noexcept { return complete_.size(); }
  [[nodiscard]] bool complete(std::size_t pos) const { return complete_.at(pos); }
  [[nodiscard]] std::size_t num_complete() const noexcept;
  [[nodiscard]] const std::filesystem::path& dir() const noexcept { return dir_; }

  /// Durably record job `pos`'s CSV row bytes (as produced by
  /// sweep_csv_rows). Thread-safe: jobs may record concurrently from sweep
  /// workers. A failed commit leaves the record absent, and a --resume
  /// re-runs the job.
  void record(std::size_t pos, const std::string& rows);

  /// Read back and re-validate job `pos`'s recorded row bytes.
  [[nodiscard]] std::string rows(std::size_t pos) const;

  /// Assemble the final CSV (header + every job's rows in list order) from
  /// the durable records; every job must be complete. Reading from disk —
  /// not from memory — makes the output provably reconstructible by a later
  /// resume.
  void write_final_csv(std::ostream& os) const;

  /// Path of job `pos`'s record file (exposed for tests and tooling).
  [[nodiscard]] std::filesystem::path record_path(std::size_t pos) const;

 private:
  void load_manifest_or_fail(std::size_t num_jobs) const;
  void write_manifest(std::size_t num_jobs) const;
  [[nodiscard]] std::string read_record_or_fail(std::size_t pos) const;

  std::filesystem::path dir_;
  std::uint64_t fingerprint_ = 0;
  /// Timing mode of the job list (uniform across a matrix): picks the final
  /// CSV's schema. Also folded into fingerprint_, so a functional journal can
  /// never be resumed as a timed sweep or vice versa.
  sim::TimingMode timing_ = sim::TimingMode::kFunctional;
  std::vector<std::uint64_t> job_indices_;  ///< canonical index per position
  std::vector<std::string> keys_;           ///< RunSpec::key per position
  std::vector<bool> complete_;
  mutable std::mutex mutex_;  ///< guards complete_ during concurrent record()
};

}  // namespace plrupart::runner
