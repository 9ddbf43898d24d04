// Crash-safe file publication: the one blessed place in the tree that is
// allowed to create/rename/delete files on the output path.
//
// AtomicFile buffers everything written to stream() in memory, and commit()
// publishes it in one durable step: write to `<target>.tmp.<pid>` with
// EINTR-safe full writes, fsync the file, rename(2) over the target, fsync
// the containing directory. Readers therefore see either the old complete
// file or the new complete file — never a truncated hybrid — and a SIGKILL
// at any instant leaves at worst a stray .tmp that the next run ignores.
// Nothing touches the filesystem before commit(), so an AtomicFile destroyed
// uncommitted publishes nothing.
//
// All I/O failures throw InvariantError with errno detail; a failed journal
// record leaves its job to --resume.
//
// The determinism lint (tools/lint/check_determinism.py, rule "atomic-file")
// bans raw std::rename/std::remove/fopen-for-write everywhere else, which is
// what keeps this the single audited crash-consistency point.
#pragma once

#include "plrupart/export.hpp"

#include <filesystem>
#include <sstream>
#include <string>
#include <string_view>

namespace plrupart {

class PLRUPART_EXPORT AtomicFile {
 public:
  /// Targets `target`; nothing touches the filesystem until commit().
  explicit AtomicFile(std::filesystem::path target);
  ~AtomicFile();

  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  /// Buffered output stream; bytes only reach disk on commit().
  [[nodiscard]] std::ostream& stream() noexcept { return buf_; }

  /// Durably publish the buffered bytes at the target path. Throws
  /// InvariantError (with errno detail) on any I/O failure or when the
  /// target exists and is not a regular file (then before any tmp file is
  /// created); either way the target is untouched.
  void commit();

  [[nodiscard]] bool committed() const noexcept { return committed_; }
  [[nodiscard]] const std::filesystem::path& target() const noexcept { return target_; }

  /// One-shot convenience: buffer `bytes` and commit.
  static void write_file(const std::filesystem::path& target, std::string_view bytes);

  /// Remove a file if present (e.g. a stale journal record or partial
  /// output), ignoring "does not exist". Throws InvariantError on other
  /// failures. Kept here so deletion stays inside the blessed utility.
  static void remove_file(const std::filesystem::path& path);

  /// Fail-fast probe: prove `target` is writable (create + unlink its tmp
  /// sibling) without touching the target itself, and refuse a target that
  /// exists and is not a regular file. Run before long work whose output
  /// lands at `target`, so an unwritable path fails in milliseconds instead
  /// of after hours.
  static void probe_writable(const std::filesystem::path& target);

 private:
  std::filesystem::path target_;
  std::ostringstream buf_;
  bool committed_ = false;
};

}  // namespace plrupart
