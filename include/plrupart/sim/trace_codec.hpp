// Low-level trace-format machinery shared by the streaming reader, the
// writer, and the format converter: the windowed byte reader, the
// varint/zigzag codec of the binary v2 format, and the format constants.
//
// ByteReader holds one fixed-size window of the file. A refill replaces the
// window with the next bytes; at end of file the last window stays, and a
// seek() to an offset still inside the window only moves the cursor. So the
// open-time header check followed by a rewind, and every lap of a file no
// larger than the window, read the file from disk once.
//
// Decoders read the window two ways. get()/peek() go byte by byte and refill
// when the window runs out; window()/skip() expose the unread bytes for a
// decode in place and never refill. The v2 reader decodes a record in place
// when at least 2 * kMaxVarintBytes bytes remain in the window (a record
// that fits in them) and byte-wise otherwise, so a window refills exactly
// where a byte-wise decode would refill it, and every error offset is the
// byte-wise one.
//
// Native trace formats (both start with a one-line text header):
//   v1 (text):    "# plrupart-trace v1\n" then one "<gap> <addr-hex> <R|W>"
//                 record per line; blank lines and '#' comments are ignored.
//   v2 (binary):  "# plrupart-trace v2\n" then back-to-back records of
//                 varint((gap << 1) | write) ++ varint(zigzag(addr - prev)),
//                 LEB128 varints, addresses delta-encoded against the
//                 previous record (prev = 0 at the first record).
// Both formats are strict: anything malformed — truncated header or record,
// bad digits, negative gaps, CR/CRLF line endings, varint overflow — raises
// TraceError with the file, position, and defect spelled out.
#pragma once

#include "plrupart/export.hpp"

#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "plrupart/common/assert.hpp"

namespace plrupart::sim {

/// Thrown for unreadable or malformed trace files. Derives from
/// InvariantError so existing catch sites keep working, but lets callers
/// (CLI, converter) distinguish input-data problems from library bugs.
class PLRUPART_EXPORT TraceError : public InvariantError {
 public:
  using InvariantError::InvariantError;
};

/// A trace read failed mid-stream (an fread error that is not EINTR). Unlike
/// TraceError, the file's bytes may be fine: a journaled sweep that dies of
/// it can be resumed once the read succeeds again.
class PLRUPART_EXPORT TraceIoError : public InvariantError {
 public:
  using InvariantError::InvariantError;
};

namespace detail {
struct PLRUPART_EXPORT FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f != nullptr) std::fclose(f);
  }
};
}  // namespace detail

enum class TraceFormat : std::uint8_t {
  kTextV1,    ///< line-oriented text, human-editable
  kBinaryV2,  ///< varint gap + delta-encoded addresses, ~4 bytes/record
};

inline constexpr std::string_view kTraceHeaderV1 = "# plrupart-trace v1";
inline constexpr std::string_view kTraceHeaderV2 = "# plrupart-trace v2";

/// LEB128 varints are capped at 10 bytes (ceil(64/7)); the 10th byte may
/// carry only the top bit of a 64-bit value.
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Windowed file reader: memory stays O(window) however large the file is.
/// The window size is honored exactly (down to 1 byte) so decoders must not
/// assume a whole record is ever contiguous in memory: an in-place decode
/// checks window() first and falls back to get() when the record may run
/// past it.
class PLRUPART_EXPORT ByteReader {
 public:
  static constexpr int kEof = -1;

  ByteReader(std::string path, std::size_t buffer_bytes);

  /// Next byte as 0..255, or kEof at end of file. Throws TraceIoError on an
  /// I/O error (distinct from EOF); interrupted reads (EINTR) are retried.
  int get() {
    if (pos_ == len_ && !fill()) return kEof;
    return static_cast<unsigned char>(buf_[pos_++]);
  }

  /// Like get() without consuming.
  int peek() {
    if (pos_ == len_ && !fill()) return kEof;
    return static_cast<unsigned char>(buf_[pos_]);
  }

  /// The unread bytes of the current window, for decoders that parse in
  /// place. Never refills: an empty span means the next get() would.
  [[nodiscard]] std::span<const unsigned char> window() const noexcept {
    return {reinterpret_cast<const unsigned char*>(buf_.data()) + pos_, len_ - pos_};
  }

  /// Consume `n` bytes of window(); `n` must not exceed its size.
  void skip(std::size_t n) noexcept { pos_ += n; }

  /// Reposition to an absolute file offset. An offset inside the current
  /// window only moves the cursor; any other drops the window and seeks the
  /// file, so the next get() refills from there.
  void seek(std::uint64_t file_offset);

  /// File offset of the next byte get() would return.
  [[nodiscard]] std::uint64_t offset() const noexcept {
    return base_ + static_cast<std::uint64_t>(pos_);
  }

  [[nodiscard]] std::size_t buffer_capacity() const noexcept { return buf_.size(); }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  [[nodiscard]] bool fill();

  std::string path_;
  std::unique_ptr<std::FILE, detail::FileCloser> in_;
  std::vector<char> buf_;
  std::size_t pos_ = 0;   ///< next unread byte in buf_
  std::size_t len_ = 0;   ///< valid bytes in buf_
  std::uint64_t base_ = 0;  ///< file offset of buf_[0]
  bool eof_ = false;        ///< the window ends at end of file
};

/// Append `v` to `out` as an LEB128 varint (1-10 bytes).
inline void append_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>(static_cast<unsigned char>(v) | 0x80u));
    v >>= 7;
  }
  out.push_back(static_cast<char>(static_cast<unsigned char>(v)));
}

/// Decode one LEB128 varint. Throws TraceError on EOF inside the varint and
/// on overflow (more than 10 bytes, or value bits beyond 64).
[[nodiscard]] PLRUPART_EXPORT std::uint64_t read_varint(ByteReader& in);

[[nodiscard]] constexpr std::uint64_t zigzag_encode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] constexpr std::int64_t zigzag_decode(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>((v >> 1) ^ (0 - (v & 1)));
}

[[nodiscard]] constexpr std::string_view trace_format_name(TraceFormat f) noexcept {
  return f == TraceFormat::kTextV1 ? "v1" : "v2";
}

/// Header line (without the newline) that opens a file of format `f`.
[[nodiscard]] constexpr std::string_view trace_format_header(TraceFormat f) noexcept {
  return f == TraceFormat::kTextV1 ? kTraceHeaderV1 : kTraceHeaderV2;
}

}  // namespace plrupart::sim
