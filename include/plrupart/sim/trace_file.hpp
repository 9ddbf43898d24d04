// Trace file I/O: stream recorded traces of any size and write new ones.
//
// This is the bridge to real workloads: anything that can emit
// (gap-instructions, address, read/write) tuples — a PIN tool, a ChampSim
// trace (see sim/trace_convert.hpp), another simulator — can drive this
// library. Two native formats exist, auto-detected by their header line:
// text v1 and the compact binary v2 (format details in sim/trace_codec.hpp).
//
// Everything here STREAMS: readers hold O(buffer) memory regardless of file
// size (multi-GB traces are the design point), and TraceWriter appends
// records without materializing the trace. Reading back a whole trace into a
// vector is the caller's (test's) business, not the API's.
//
// A reader's buffer is one read window (ByteReader, sim/trace_codec.hpp),
// 16 KiB by default. rewind() into the current window is free, so opening a
// FileTraceSource (header and first-record check, then rewind) fills the
// window once, and a trace no larger than the window loops without further
// reads. A v2 record is decoded in place when 2 * kMaxVarintBytes (20) bytes
// remain in the window, and byte-wise otherwise (near the window's end, and
// for the rare record with a 10-byte varint or an out-of-range gap), so the
// window refills at the same records, and every TraceError names the same
// offset, as with a byte-wise decode of every record.
#pragma once

#include "plrupart/export.hpp"

#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "plrupart/sim/mem_op.hpp"
#include "plrupart/sim/trace_codec.hpp"

namespace plrupart::sim {

/// One forward pass over a trace file, decoding records on the fly from a
/// fixed-size read window. Detects v1/v2 by the header line. Malformed
/// input raises TraceError at the offending record, never later and never UB.
class PLRUPART_EXPORT TraceReader {
 public:
  /// About 4.5k v2 records per refill.
  static constexpr std::size_t kDefaultBufferBytes = std::size_t{16} << 10;

  explicit TraceReader(const std::string& path,
                       std::size_t buffer_bytes = kDefaultBufferBytes);

  /// Decode the next record; nullopt at (clean) end of file. EOF inside a
  /// record is an error, not an end.
  [[nodiscard]] std::optional<MemOp> next();

  /// Rewind to the first record (same stream again, like a fresh reader).
  /// Free while the first record is still in the window.
  void rewind();

  [[nodiscard]] TraceFormat format() const noexcept { return format_; }
  [[nodiscard]] const std::string& path() const noexcept { return in_.path(); }
  /// Records decoded since construction or the last rewind().
  [[nodiscard]] std::uint64_t ops_read() const noexcept { return ops_; }
  /// Actual read-window size — what "O(buffer) memory" refers to.
  [[nodiscard]] std::size_t buffer_capacity() const noexcept {
    return in_.buffer_capacity();
  }

 private:
  friend class FileTraceSource;

  /// v2 only: decode the record at the cursor in place when the window holds
  /// at least 2 * kMaxVarintBytes unread bytes, its varints are at most
  /// kMaxVarintBytes - 1 bytes each and its gap fits 32 bits. Otherwise
  /// return false with the cursor unmoved, for the byte-wise decoders.
  [[nodiscard]] bool next_in_window(MemOp& op) noexcept;
  [[nodiscard]] std::optional<MemOp> next_text();
  [[nodiscard]] std::optional<MemOp> next_binary();
  [[noreturn]] void fail_line(const std::string& what) const;

  ByteReader in_;
  TraceFormat format_ = TraceFormat::kTextV1;
  std::uint64_t data_start_ = 0;  ///< file offset of the first record
  std::uint64_t line_ = 1;        ///< v1: current line number (header = line 1)
  cache::Addr prev_addr_ = 0;     ///< v2: delta-decoding state
  std::uint64_t ops_ = 0;
};

/// TraceSource over a trace file: streams records with O(buffer) memory and
/// loops back to the first record at end-of-file, so the simulator can run
/// past the recorded length (matching SyntheticTrace semantics); every lap
/// replays the same records.
///
/// Construction validates the header and the first record, so an unreadable
/// or empty trace fails fast, before any simulation starts. That check fills
/// the read window; the rewind after it stays inside the window.
class PLRUPART_EXPORT FileTraceSource final : public TraceSource {
 public:
  static constexpr std::size_t kDefaultBufferBytes = TraceReader::kDefaultBufferBytes;

  explicit FileTraceSource(const std::string& path,
                           std::size_t buffer_bytes = kDefaultBufferBytes);

  MemOp next() override;
  [[nodiscard]] std::string name() const override { return name_; }

  [[nodiscard]] TraceFormat format() const noexcept { return reader_.format(); }
  /// Operations handed out since construction (across loops).
  [[nodiscard]] std::uint64_t ops_delivered() const noexcept { return delivered_; }
  /// Times the source wrapped from end-of-file back to the first record.
  [[nodiscard]] std::uint64_t loops_completed() const noexcept { return loops_; }
  [[nodiscard]] std::size_t buffer_capacity() const noexcept {
    return reader_.buffer_capacity();
  }

 private:
  /// next() for every record next_in_window() declines: the byte-wise
  /// decode, plus the rewind at end of file.
  [[nodiscard]] MemOp next_bytewise();

  TraceReader reader_;
  std::string name_;
  std::uint64_t delivered_ = 0;
  std::uint64_t loops_ = 0;
};

/// Streaming trace writer: append records one at a time in either format,
/// buffered in ~64 KiB chunks. close() flushes and verifies the file is
/// healthy and non-empty; the destructor flushes too but cannot report
/// errors, so call close() whenever the file matters.
class PLRUPART_EXPORT TraceWriter {
 public:
  TraceWriter(const std::string& path, TraceFormat format);
  ~TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void append(const MemOp& op);
  void close();

  [[nodiscard]] std::uint64_t ops_written() const noexcept { return ops_; }
  [[nodiscard]] TraceFormat format() const noexcept { return format_; }

 private:
  void flush_chunk();

  std::string path_;
  std::ofstream out_;
  TraceFormat format_;
  std::string chunk_;
  cache::Addr prev_addr_ = 0;
  std::uint64_t ops_ = 0;
  bool closed_ = false;
};

/// Write `ops` to `path` in the given format (default: text v1).
PLRUPART_EXPORT void write_trace_file(const std::string& path, const std::vector<MemOp>& ops,
                      TraceFormat format = TraceFormat::kTextV1);

/// Open `path`, validate the header and the first record, and report the
/// detected format. Cheap (one small buffer) — the fail-fast check run on
/// every --trace file before a sweep starts.
PLRUPART_EXPORT TraceFormat probe_trace_file(const std::string& path);

/// Capture the first `count` operations of any source into a vector (the
/// source is advanced; reset it afterwards if order matters). Loads all
/// `count` ops into memory — a recording convenience for tests and examples,
/// not an ingestion path; large traces should flow TraceReader→TraceWriter.
[[nodiscard]] PLRUPART_EXPORT std::vector<MemOp> record_trace(TraceSource& source, std::size_t count);

}  // namespace plrupart::sim
