#include "plrupart/runner/journal.hpp"

#include <fstream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/atomic_file.hpp"
#include "plrupart/common/bits.hpp"
#include "plrupart/runner/sweep_executor.hpp"

namespace plrupart::runner {
namespace {

constexpr std::string_view kManifestMagic = "plrupart-journal v1";
constexpr std::string_view kRecordMagic = "plrupart-record v1";

std::string to_hex(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[v & 0xf];
    v >>= 4;
  }
  return out;
}

/// Read "<label> <value>" from the next line; the journal format is rigid
/// enough that anything else is corruption.
std::string expect_field(std::istream& in, std::string_view label,
                         const std::filesystem::path& file) {
  std::string line;
  if (!std::getline(in, line) || line.rfind(label, 0) != 0 ||
      line.size() < label.size() + 2 || line[label.size()] != ' ') {
    throw InvariantError("journal file " + file.string() + " is corrupt: expected a '" +
                         std::string(label) + " ...' line; remove the file (or the "
                         "whole journal directory) and re-run");
  }
  return line.substr(label.size() + 1);
}

std::uint64_t parse_hex(const std::string& text, const std::filesystem::path& file) {
  if (text.size() != 16)
    throw InvariantError("journal file " + file.string() + " is corrupt: bad hex field '" +
                         text + "'");
  std::uint64_t v = 0;
  for (const char c : text) {
    v <<= 4;
    if (c >= '0' && c <= '9')
      v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    else
      throw InvariantError("journal file " + file.string() +
                           " is corrupt: bad hex field '" + text + "'");
  }
  return v;
}

}  // namespace

RunJournal::RunJournal(std::filesystem::path dir, const std::vector<RunSpec>& jobs,
                       bool resume)
    : dir_(std::move(dir)), fingerprint_(jobs_fingerprint(jobs)) {
  PLRUPART_ASSERT_MSG(!jobs.empty(), "journal needs a non-empty job list");
  timing_ = jobs.front().timing;
  for (const auto& j : jobs) {
    PLRUPART_ASSERT_MSG(j.timing == timing_,
                        "journaled job list mixes timing modes (one CSV schema per "
                        "sweep)");
  }
  job_indices_.reserve(jobs.size());
  keys_.reserve(jobs.size());
  for (const auto& j : jobs) {
    job_indices_.push_back(j.job_index);
    keys_.push_back(j.key());
  }
  complete_.assign(jobs.size(), false);

  std::filesystem::create_directories(dir_);
  const bool have_manifest = std::filesystem::exists(dir_ / "MANIFEST");
  if (!resume) {
    if (have_manifest) {
      throw InvariantError(
          "journal directory " + dir_.string() + " already contains a journal; pass "
          "--resume to continue that sweep, or remove the directory for a fresh run");
    }
    write_manifest(jobs.size());
    return;
  }

  if (!have_manifest) {
    throw InvariantError("--resume: no journal found at " + dir_.string() +
                         " (missing MANIFEST); start the sweep once with --journal " +
                         dir_.string() + " before resuming it");
  }
  load_manifest_or_fail(jobs.size());

  // Mark every durably-recorded job complete; validate as we go so a corrupt
  // or foreign record fails NOW with a name, not mid-assembly later.
  for (std::size_t pos = 0; pos < complete_.size(); ++pos) {
    if (!std::filesystem::exists(record_path(pos))) continue;
    (void)read_record_or_fail(pos);
    complete_[pos] = true;
  }
}

std::size_t RunJournal::num_complete() const noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const bool c : complete_)
    if (c) ++n;
  return n;
}

std::filesystem::path RunJournal::record_path(std::size_t pos) const {
  return dir_ / ("job-" + std::to_string(job_indices_.at(pos)) + ".rec");
}

void RunJournal::write_manifest(std::size_t num_jobs) const {
  AtomicFile f(dir_ / "MANIFEST");
  f.stream() << kManifestMagic << '\n'
             << "fingerprint " << to_hex(fingerprint_) << '\n'
             << "jobs " << num_jobs << '\n';
  f.commit();
}

void RunJournal::load_manifest_or_fail(std::size_t num_jobs) const {
  const std::filesystem::path path = dir_ / "MANIFEST";
  std::ifstream in(path, std::ios::binary);
  PLRUPART_ASSERT_MSG(static_cast<bool>(in), "cannot open " + path.string());
  std::string line;
  if (!std::getline(in, line) || line != kManifestMagic) {
    throw InvariantError("--resume: " + path.string() + " is not a plrupart journal "
                         "manifest; remove the directory and start fresh");
  }
  const std::uint64_t fp = parse_hex(expect_field(in, "fingerprint", path), path);
  if (fp != fingerprint_) {
    throw InvariantError(
        "--resume: the journal manifest " + path.string() + " was recorded for a different "
        "sweep (its fingerprint " + to_hex(fp) + " != this run's " + to_hex(fingerprint_) +
        "). The run matrix — configs, workloads, L2 sizes, quotas, and seed — must match "
        "the original run exactly; fix the flags, or remove the directory to start over");
  }
  const std::string jobs_text = expect_field(in, "jobs", path);
  if (jobs_text != std::to_string(num_jobs)) {
    throw InvariantError("--resume: journal manifest " + path.string() + " lists " +
                         jobs_text + " jobs but this run has " + std::to_string(num_jobs) +
                         "; the job list must match the original run exactly");
  }
  // write_manifest ends the file with the jobs line's newline.
  if (in.eof() || in.peek() != std::ifstream::traits_type::eof()) {
    throw InvariantError("journal file " + path.string() + " is corrupt: it does not end "
                         "at the 'jobs' line; remove the whole journal directory and "
                         "re-run");
  }
}

void RunJournal::record(std::size_t pos, const std::string& rows) {
  AtomicFile f(record_path(pos));
  f.stream() << kRecordMagic << '\n'
             << "fingerprint " << to_hex(fingerprint_) << '\n'
             << "job " << job_indices_.at(pos) << '\n'
             << "key " << keys_.at(pos) << '\n'
             << "bytes " << rows.size() << '\n'
             << "crc " << to_hex(fnv1a64(rows)) << '\n';
  f.stream() << rows;
  f.commit();
  const std::lock_guard<std::mutex> lock(mutex_);
  complete_[pos] = true;
}

std::string RunJournal::read_record_or_fail(std::size_t pos) const {
  const std::filesystem::path path = record_path(pos);
  if (!std::filesystem::is_regular_file(path)) {
    throw InvariantError("journal record " + path.string() + " is not a regular file; "
                         "remove it to re-run that job");
  }
  std::ifstream in(path, std::ios::binary);
  PLRUPART_ASSERT_MSG(static_cast<bool>(in), "cannot open journal record " + path.string());
  std::string line;
  if (!std::getline(in, line) || line != kRecordMagic) {
    throw InvariantError("journal record " + path.string() + " is corrupt (bad magic); "
                         "remove it to re-run that job, or remove the directory to start "
                         "over");
  }
  const std::uint64_t fp = parse_hex(expect_field(in, "fingerprint", path), path);
  if (fp != fingerprint_) {
    throw InvariantError("journal record " + path.string() + " belongs to a different "
                         "sweep (fingerprint " + to_hex(fp) + " != " + to_hex(fingerprint_) +
                         "); remove it, or remove the directory to start over");
  }
  const std::string job_text = expect_field(in, "job", path);
  if (job_text != std::to_string(job_indices_.at(pos))) {
    throw InvariantError("journal record " + path.string() + " claims job index " +
                         job_text + ", expected " + std::to_string(job_indices_.at(pos)) +
                         "; remove it to re-run that job");
  }
  const std::string key_text = expect_field(in, "key", path);
  if (key_text != keys_.at(pos)) {
    throw InvariantError("journal record " + path.string() + " claims key '" + key_text +
                         "', expected '" + keys_.at(pos) + "'; remove it to re-run that "
                         "job");
  }
  const std::string bytes_text = expect_field(in, "bytes", path);
  const std::uint64_t crc = parse_hex(expect_field(in, "crc", path), path);
  std::string rows(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>{});
  if (bytes_text != std::to_string(rows.size())) {
    throw InvariantError("journal record " + path.string() + " is truncated: header "
                         "promises " + bytes_text + " payload bytes, file holds " +
                         std::to_string(rows.size()) + "; remove it to re-run that job");
  }
  if (fnv1a64(rows) != crc) {
    throw InvariantError("journal record " + path.string() + " fails its checksum; "
                         "remove it to re-run that job");
  }
  return rows;
}

std::string RunJournal::rows(std::size_t pos) const { return read_record_or_fail(pos); }

void RunJournal::write_final_csv(std::ostream& os) const {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t pos = 0; pos < complete_.size(); ++pos) {
      PLRUPART_ASSERT_MSG(complete_[pos], "job " + keys_[pos] + " (index " +
                                              std::to_string(job_indices_[pos]) +
                                              ") has no journal record");
    }
  }
  const auto& header = sweep_csv_header(timing_);
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (i > 0) os << ',';
    os << header[i];
  }
  os << '\n';
  for (std::size_t pos = 0; pos < complete_.size(); ++pos) os << read_record_or_fail(pos);
}

}  // namespace plrupart::runner
