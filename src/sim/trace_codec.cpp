#include "plrupart/sim/trace_codec.hpp"

#include <cerrno>
#include <cstring>
#include <utility>

namespace plrupart::sim {

ByteReader::ByteReader(std::string path, std::size_t buffer_bytes)
    : path_(std::move(path)), buf_(buffer_bytes > 0 ? buffer_bytes : 1) {
  // Opening a FIFO blocks until a writer arrives, and a signal meanwhile
  // fails the open with EINTR: retry it, as fill() retries an EINTR read.
  do {
    errno = 0;
    in_.reset(std::fopen(path_.c_str(), "rb"));
  } while (in_ == nullptr && errno == EINTR);
  if (in_ == nullptr) throw TraceError("cannot open trace file '" + path_ + "'");
}

bool ByteReader::fill() {
  // At end of file the last window stays in place, so seek() back into it
  // needs no I/O.
  if (eof_) return false;
  const std::uint64_t next_base = base_ + static_cast<std::uint64_t>(len_);
  for (;;) {
    errno = 0;
    const std::size_t n = std::fread(buf_.data(), 1, buf_.size(), in_.get());
    if (n > 0) {
      // A short count with EINTR is a partial success: hand back what we got
      // and clear the error so the next refill resumes where this one left off.
      // A short count at end of file makes this the last window.
      if (std::ferror(in_.get()) != 0 && errno == EINTR) {
        std::clearerr(in_.get());
      } else if (std::feof(in_.get()) != 0) {
        eof_ = true;
      }
      base_ = next_base;
      pos_ = 0;
      len_ = n;
      return true;
    }
    // Check ferror before feof: an interrupted read can leave both unset-able
    // orders ambiguous, and a real error must never be misread as end of file.
    if (std::ferror(in_.get()) != 0) {
      if (errno == EINTR) {
        std::clearerr(in_.get());
        continue;  // interrupted before any bytes arrived: just retry
      }
      throw TraceIoError("I/O error reading trace file '" + path_ + "' near byte " +
                         std::to_string(next_base) + ": " + std::strerror(errno));
    }
    eof_ = true;
    return false;
  }
}

void ByteReader::seek(std::uint64_t file_offset) {
  if (file_offset >= base_ && file_offset - base_ <= len_) {
    pos_ = static_cast<std::size_t>(file_offset - base_);
    return;
  }
  std::clearerr(in_.get());
  if (::fseeko(in_.get(), static_cast<off_t>(file_offset), SEEK_SET) != 0)
    throw TraceError("cannot seek to byte " + std::to_string(file_offset) +
                     " in trace file '" + path_ + "'");
  eof_ = false;
  base_ = file_offset;
  pos_ = 0;
  len_ = 0;
}

std::uint64_t read_varint(ByteReader& in) {
  std::uint64_t result = 0;
  for (std::size_t i = 0; i < kMaxVarintBytes; ++i) {
    const int c = in.get();
    if (c == ByteReader::kEof)
      throw TraceError("trace file '" + in.path() + "': truncated record at byte " +
                       std::to_string(in.offset()) + " (EOF inside a varint)");
    const auto byte = static_cast<std::uint64_t>(c & 0x7f);
    // The 10th byte may only carry bit 63: anything larger (or a further
    // continuation bit, checked below) cannot fit a 64-bit value.
    if (i == kMaxVarintBytes - 1 && byte > 1)
      throw TraceError("trace file '" + in.path() + "': varint overflow at byte " +
                       std::to_string(in.offset()) + " (value exceeds 64 bits)");
    result |= byte << (7 * i);
    if ((c & 0x80) == 0) return result;
  }
  throw TraceError("trace file '" + in.path() + "': varint overflow at byte " +
                   std::to_string(in.offset()) + " (more than " +
                   std::to_string(kMaxVarintBytes) + " bytes)");
}

}  // namespace plrupart::sim
