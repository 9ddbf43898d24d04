#include "plrupart/sim/trace_file.hpp"

#include <charconv>
#include <limits>
#include <utility>

#include "plrupart/common/assert.hpp"
#include "common/path.hpp"

namespace plrupart::sim {

namespace {

constexpr std::size_t kWriterFlushBytes = 64 * 1024;
constexpr std::uint64_t kMaxGap = std::numeric_limits<std::uint32_t>::max();
constexpr std::size_t kMaxAddrHexDigits = 16;
/// Window bytes a v2 record decoded in place may span: two varints of any
/// length, so the decode needs no bounds check inside the record.
constexpr std::size_t kInPlaceBytes = 2 * kMaxVarintBytes;

/// Decode the LEB128 varint at `p` into `v` if it is at most
/// kMaxVarintBytes - 1 bytes long (at most 63 bits, so it cannot overflow);
/// returns its length, or 0 for a longer varint, which is left to the
/// byte-wise read_varint and its overflow checks.
[[nodiscard]] std::size_t decode_short_varint(const unsigned char* p,
                                              std::uint64_t& v) noexcept {
  std::uint64_t result = 0;
  for (std::size_t i = 0; i < kMaxVarintBytes - 1; ++i) {
    const std::uint64_t byte = p[i];
    result |= (byte & 0x7f) << (7 * i);
    if (byte < 0x80) {
      v = result;
      return i + 1;
    }
  }
  return 0;
}

[[nodiscard]] constexpr bool is_blank(int c) noexcept { return c == ' ' || c == '\t'; }

[[nodiscard]] constexpr int hex_value(int c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

// ---------------------------------------------------------------------------
// TraceReader
// ---------------------------------------------------------------------------

TraceReader::TraceReader(const std::string& path, std::size_t buffer_bytes)
    : in_(path, buffer_bytes) {
  // Header line: exactly "# plrupart-trace v1" or "... v2" plus '\n'. Parsed
  // byte-wise so a CRLF or truncated header is reported as such instead of
  // surfacing later as a confusing record error.
  std::string header;
  for (;;) {
    const int c = in_.get();
    if (c == ByteReader::kEof)
      throw TraceError("trace file '" + path + "': truncated header (EOF before the "
                       "end of the header line)");
    if (c == '\r')
      throw TraceError("trace file '" + path + "': header line ends in CR — CRLF/"
                       "mixed line endings are not supported; convert the line "
                       "endings to LF first (e.g. dos2unix)");
    if (c == '\n') break;
    if (header.size() > kTraceHeaderV1.size())
      throw TraceError("trace file '" + path + "': missing plrupart-trace header");
    header.push_back(static_cast<char>(c));
  }
  if (header == kTraceHeaderV1) {
    format_ = TraceFormat::kTextV1;
  } else if (header == kTraceHeaderV2) {
    format_ = TraceFormat::kBinaryV2;
  } else {
    throw TraceError("trace file '" + path + "': missing plrupart-trace header (first "
                     "line is '" + header + "')");
  }
  data_start_ = in_.offset();
  line_ = 2;
}

void TraceReader::rewind() {
  in_.seek(data_start_);
  line_ = 2;
  prev_addr_ = 0;
  ops_ = 0;
}

bool TraceReader::next_in_window(MemOp& op) noexcept {
  const auto window = in_.window();
  if (format_ != TraceFormat::kBinaryV2 || window.size() < kInPlaceBytes) return false;
  std::uint64_t meta = 0;
  std::uint64_t delta = 0;
  const std::size_t meta_len = decode_short_varint(window.data(), meta);
  if (meta_len == 0 || (meta >> 1) > kMaxGap) return false;
  const std::size_t delta_len = decode_short_varint(window.data() + meta_len, delta);
  if (delta_len == 0) return false;
  in_.skip(meta_len + delta_len);
  prev_addr_ += static_cast<cache::Addr>(zigzag_decode(delta));
  op = MemOp{.addr = prev_addr_, .write = (meta & 1) != 0,
             .gap_instrs = static_cast<std::uint32_t>(meta >> 1)};
  ++ops_;
  return true;
}

std::optional<MemOp> TraceReader::next() {
  if (MemOp op; next_in_window(op)) return op;
  auto op = format_ == TraceFormat::kTextV1 ? next_text() : next_binary();
  if (op) ++ops_;
  return op;
}

void TraceReader::fail_line(const std::string& what) const {
  throw TraceError("trace file '" + in_.path() + "', line " + std::to_string(line_) +
                   ": " + what);
}

std::optional<MemOp> TraceReader::next_text() {
  for (;;) {
    int c = in_.get();
    if (c == ByteReader::kEof) return std::nullopt;
    if (c == '\n') {  // blank line
      ++line_;
      continue;
    }
    if (c == '#') {  // comment: discard to end of line (bytes are not stored)
      while ((c = in_.get()) != ByteReader::kEof && c != '\n') {
      }
      ++line_;
      if (c == ByteReader::kEof) return std::nullopt;
      continue;
    }
    if (c == '\r')
      fail_line("CR line ending — CRLF/mixed line endings are not supported; "
                "convert the line endings to LF first (e.g. dos2unix)");
    if (is_blank(c)) continue;  // leading whitespace

    // <gap>: unsigned decimal. A leading '-' is called out explicitly — the
    // old istream-based parser silently wrapped negative gaps to huge values.
    if (c == '-') fail_line("negative gap (gap must be a non-negative instruction count)");
    if (c < '0' || c > '9') fail_line("bad gap (expected a decimal digit, got '" +
                                      std::string(1, static_cast<char>(c)) + "')");
    std::uint64_t gap = static_cast<std::uint64_t>(c - '0');
    while ((c = in_.peek()) >= '0' && c <= '9') {
      gap = gap * 10 + static_cast<std::uint64_t>(c - '0');
      if (gap > kMaxGap) fail_line("gap out of range (exceeds 2^32-1)");
      (void)in_.get();
    }

    // Field separator.
    c = in_.get();
    if (c == ByteReader::kEof || c == '\n') fail_line("truncated record (missing address)");
    if (c == '\r') fail_line("CR line ending — CRLF/mixed line endings are not supported");
    if (!is_blank(c)) fail_line("malformed record (expected whitespace after the gap)");
    while (is_blank(in_.peek())) (void)in_.get();

    // <addr-hex>: up to 16 hex digits, no 0x prefix.
    cache::Addr addr = 0;
    std::size_t digits = 0;
    while (hex_value(in_.peek()) >= 0) {
      if (++digits > kMaxAddrHexDigits) fail_line("address has more than 16 hex digits");
      addr = (addr << 4) | static_cast<cache::Addr>(hex_value(in_.get()));
    }
    if (digits == 0) {
      c = in_.peek();
      if (c == ByteReader::kEof || c == '\n')
        fail_line("truncated record (missing address)");
      fail_line("bad address (expected hex digits, got '" +
                std::string(1, static_cast<char>(c)) + "')");
    }

    // Separator, then <R|W>.
    c = in_.get();
    if (c == ByteReader::kEof || c == '\n') fail_line("truncated record (missing R/W flag)");
    if (c == '\r') fail_line("CR line ending — CRLF/mixed line endings are not supported");
    if (!is_blank(c)) fail_line("malformed record (expected whitespace after the address)");
    while (is_blank(in_.peek())) (void)in_.get();
    c = in_.get();
    if (c == ByteReader::kEof || c == '\n') fail_line("truncated record (missing R/W flag)");
    if (c != 'R' && c != 'W')
      fail_line("bad R/W flag '" + std::string(1, static_cast<char>(c)) + "'");
    const bool write = c == 'W';

    // End of record: optional trailing blanks, then newline or EOF.
    while (is_blank(in_.peek())) (void)in_.get();
    c = in_.get();
    if (c == '\r') fail_line("CR line ending — CRLF/mixed line endings are not supported");
    if (c != ByteReader::kEof && c != '\n')
      fail_line("trailing characters after the R/W flag");
    if (c == '\n') ++line_;

    return MemOp{.addr = addr, .write = write,
                 .gap_instrs = static_cast<std::uint32_t>(gap)};
  }
}

std::optional<MemOp> TraceReader::next_binary() {
  if (in_.peek() == ByteReader::kEof) return std::nullopt;  // clean record boundary
  const std::uint64_t meta = read_varint(in_);
  const std::uint64_t gap = meta >> 1;
  if (gap > kMaxGap)
    throw TraceError("trace file '" + in_.path() + "': gap out of range (exceeds "
                     "2^32-1) at byte " + std::to_string(in_.offset()));
  // EOF between the two varints of a record is mid-record: read_varint
  // reports it as a truncated record.
  const std::uint64_t delta = read_varint(in_);
  prev_addr_ += static_cast<cache::Addr>(zigzag_decode(delta));
  return MemOp{.addr = prev_addr_, .write = (meta & 1) != 0,
               .gap_instrs = static_cast<std::uint32_t>(gap)};
}

// ---------------------------------------------------------------------------
// FileTraceSource
// ---------------------------------------------------------------------------

FileTraceSource::FileTraceSource(const std::string& path, std::size_t buffer_bytes)
    : reader_(path, buffer_bytes), name_(path_basename(path)) {
  // Validate up front that there is at least one record, preserving the
  // historical "empty trace file" construction-time failure.
  if (!reader_.next())
    throw TraceError("empty trace file '" + path + "' (header but no records)");
  reader_.rewind();
}

MemOp FileTraceSource::next() {
  if (MemOp op; reader_.next_in_window(op)) {
    ++delivered_;
    return op;
  }
  return next_bytewise();
}

MemOp FileTraceSource::next_bytewise() {
  auto op = reader_.next();
  if (!op) {
    ++loops_;
    reader_.rewind();
    op = reader_.next();  // non-empty was checked at construction
    PLRUPART_ASSERT_MSG(op.has_value(), "trace became empty on rewind: " + name_);
  }
  ++delivered_;
  return *op;
}

void FileTraceSource::reset() { reader_.rewind(); }

// ---------------------------------------------------------------------------
// TraceWriter
// ---------------------------------------------------------------------------

TraceWriter::TraceWriter(const std::string& path, TraceFormat format)
    : path_(path), out_(path, std::ios::binary), format_(format) {
  if (!out_.good()) throw TraceError("cannot write trace file '" + path + "'");
  chunk_.reserve(kWriterFlushBytes + 64);
  chunk_.append(trace_format_header(format));
  chunk_.push_back('\n');
}

TraceWriter::~TraceWriter() {
  if (!closed_) flush_chunk();  // best effort; errors are only visible via close()
}

void TraceWriter::flush_chunk() {
  if (!chunk_.empty()) {
    out_.write(chunk_.data(), static_cast<std::streamsize>(chunk_.size()));
    chunk_.clear();
  }
}

void TraceWriter::append(const MemOp& op) {
  PLRUPART_ASSERT_MSG(!closed_, "append() on a closed TraceWriter: " + path_);
  if (format_ == TraceFormat::kTextV1) {
    char buf[32];
    auto [gap_end, gap_ec] = std::to_chars(buf, buf + sizeof buf, op.gap_instrs);
    PLRUPART_ASSERT(gap_ec == std::errc{});
    chunk_.append(buf, gap_end);
    chunk_.push_back(' ');
    auto [addr_end, addr_ec] = std::to_chars(buf, buf + sizeof buf, op.addr, 16);
    PLRUPART_ASSERT(addr_ec == std::errc{});
    chunk_.append(buf, addr_end);
    chunk_.push_back(' ');
    chunk_.push_back(op.write ? 'W' : 'R');
    chunk_.push_back('\n');
  } else {
    append_varint(chunk_, (static_cast<std::uint64_t>(op.gap_instrs) << 1) |
                              (op.write ? 1u : 0u));
    append_varint(chunk_, zigzag_encode(static_cast<std::int64_t>(op.addr - prev_addr_)));
    prev_addr_ = op.addr;
  }
  ++ops_;
  if (chunk_.size() >= kWriterFlushBytes) flush_chunk();
}

void TraceWriter::close() {
  PLRUPART_ASSERT_MSG(!closed_, "double close() on TraceWriter: " + path_);
  if (ops_ == 0)
    throw TraceError("refusing to finalize empty trace '" + path_ +
                     "' (no records appended)");
  flush_chunk();
  out_.flush();
  if (!out_.good()) throw TraceError("short write to trace file '" + path_ + "'");
  closed_ = true;
}

// ---------------------------------------------------------------------------
// Free functions
// ---------------------------------------------------------------------------

void write_trace_file(const std::string& path, const std::vector<MemOp>& ops,
                      TraceFormat format) {
  PLRUPART_ASSERT_MSG(!ops.empty(), "refusing to write an empty trace");
  TraceWriter writer(path, format);
  for (const auto& op : ops) writer.append(op);
  writer.close();
}

TraceFormat probe_trace_file(const std::string& path) {
  TraceReader reader(path, 4096);
  if (!reader.next())
    throw TraceError("empty trace file '" + path + "' (header but no records)");
  return reader.format();
}

std::vector<MemOp> record_trace(TraceSource& source, std::size_t count) {
  PLRUPART_ASSERT(count > 0);
  std::vector<MemOp> ops;
  ops.reserve(count);
  for (std::size_t i = 0; i < count; ++i) ops.push_back(source.next());
  return ops;
}

}  // namespace plrupart::sim
