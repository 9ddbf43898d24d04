#include "plrupart/sim/trace_convert.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <system_error>

#include "plrupart/sim/trace_file.hpp"

namespace plrupart::sim {

namespace {

/// The converter holds one reader, not one per simulated core, so it keeps
/// the large read chunk trace readers used before their 64 KiB window.
constexpr std::size_t kConvertBufferBytes = std::size_t{1} << 20;

/// True when the writer has hit the op cap (0 = unlimited).
[[nodiscard]] bool at_cap(const TraceWriter& writer, std::uint64_t max_ops) {
  return max_ops != 0 && writer.ops_written() >= max_ops;
}

ConvertStats convert_native(const std::string& in_path, TraceWriter& writer,
                            std::uint64_t max_ops) {
  ConvertStats stats;
  TraceReader reader(in_path, kConvertBufferBytes);
  while (!at_cap(writer, max_ops)) {
    const auto op = reader.next();
    if (!op) break;
    ++stats.records_in;
    writer.append(*op);
  }
  return stats;
}

// ---------------------------------------------------------------------------
// ChampSim binary input_instr records.
// ---------------------------------------------------------------------------

/// Layout of ChampSim's 64-byte little-endian input_instr record.
constexpr std::size_t kChampSimRecordBytes = 64;
constexpr std::size_t kChampSimDestMemOffset = 16;  ///< 2 x u64 store addresses
constexpr std::size_t kChampSimSrcMemOffset = 32;   ///< 4 x u64 load addresses
constexpr std::size_t kChampSimDestMemCount = 2;
constexpr std::size_t kChampSimSrcMemCount = 4;

[[nodiscard]] std::uint64_t load_le_u64(const unsigned char* p) noexcept {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

ConvertStats convert_champsim(const std::string& in_path, TraceWriter& writer,
                              std::uint64_t max_ops) {
  ConvertStats stats;
  ByteReader in(in_path, kConvertBufferBytes);
  std::array<unsigned char, kChampSimRecordBytes> rec{};
  // Non-memory instructions accumulate here and ride on the next memory op.
  // Saturates at 2^32-1: a 4-billion-instruction memory-free stretch carries
  // no cache-relevant information beyond "very long".
  std::uint64_t gap = 0;
  while (!at_cap(writer, max_ops)) {
    const int first = in.get();
    if (first == ByteReader::kEof) break;
    rec[0] = static_cast<unsigned char>(first);
    for (std::size_t i = 1; i < kChampSimRecordBytes; ++i) {
      const int c = in.get();
      if (c == ByteReader::kEof)
        throw TraceError("ChampSim trace '" + in_path + "': truncated record at byte " +
                         std::to_string(in.offset()) + " (file size is not a multiple "
                         "of the 64-byte input_instr record)");
      rec[i] = static_cast<unsigned char>(c);
    }
    ++stats.records_in;

    bool instr_has_mem = false;
    const auto emit = [&](std::uint64_t addr, bool write) {
      if (addr == 0 || at_cap(writer, max_ops)) return;
      const auto clamped =
          static_cast<std::uint32_t>(std::min<std::uint64_t>(
              gap, std::numeric_limits<std::uint32_t>::max()));
      writer.append(MemOp{.addr = addr, .write = write, .gap_instrs = clamped});
      gap = 0;
      instr_has_mem = true;
    };
    for (std::size_t i = 0; i < kChampSimSrcMemCount; ++i)
      emit(load_le_u64(rec.data() + kChampSimSrcMemOffset + 8 * i), false);
    for (std::size_t i = 0; i < kChampSimDestMemCount; ++i)
      emit(load_le_u64(rec.data() + kChampSimDestMemOffset + 8 * i), true);
    if (!instr_has_mem) ++gap;
  }
  return stats;
}

// ---------------------------------------------------------------------------
// PIN-style text address traces.
// ---------------------------------------------------------------------------

/// Whole-token hex parse, tolerating an 0x/0X prefix and a trailing ':'.
[[nodiscard]] std::uint64_t parse_pin_hex(std::string tok, const std::string& path,
                                          std::uint64_t lineno, const char* what) {
  if (!tok.empty() && tok.back() == ':') tok.pop_back();
  std::string_view sv = tok;
  if (sv.size() >= 2 && sv[0] == '0' && (sv[1] == 'x' || sv[1] == 'X'))
    sv.remove_prefix(2);
  std::uint64_t value = 0;
  const auto* begin = sv.data();
  const auto* end = begin + sv.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value, 16);
  if (sv.empty() || ec != std::errc{} || ptr != end)
    throw TraceError("PIN trace '" + path + "', line " + std::to_string(lineno) +
                     ": bad " + what + " '" + tok + "'");
  return value;
}

ConvertStats convert_pin(const std::string& in_path, TraceWriter& writer,
                         std::uint64_t max_ops) {
  ConvertStats stats;
  std::ifstream in(in_path, std::ios::binary);
  if (!in.good()) throw TraceError("cannot open trace file '" + in_path + "'");
  std::string line;
  std::uint64_t lineno = 0;
  while (!at_cap(writer, max_ops) && std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();  // CRLF input
    if (line.empty() || line[0] == '#') continue;  // pinatrace ends with "#eof"
    ++stats.records_in;
    std::istringstream fields(line);
    std::string ip_tok, rw_tok, addr_tok;
    if (!(fields >> ip_tok >> rw_tok >> addr_tok))
      throw TraceError("PIN trace '" + in_path + "', line " + std::to_string(lineno) +
                       ": expected '<ip>: <R|W> <addr>'");
    (void)parse_pin_hex(ip_tok, in_path, lineno, "instruction pointer");
    if (rw_tok != "R" && rw_tok != "W")
      throw TraceError("PIN trace '" + in_path + "', line " + std::to_string(lineno) +
                       ": bad R/W flag '" + rw_tok + "'");
    const auto addr = parse_pin_hex(addr_tok, in_path, lineno, "address");
    writer.append(MemOp{.addr = addr, .write = rw_tok == "W", .gap_instrs = 0});
  }
  if (in.bad()) throw TraceError("I/O error reading trace file '" + in_path + "'");
  return stats;
}

/// Resolve kAuto: native if the first line is a plrupart-trace header.
[[nodiscard]] ExternalTraceKind detect_kind(const std::string& in_path) {
  std::ifstream in(in_path, std::ios::binary);
  if (!in.good()) throw TraceError("cannot open trace file '" + in_path + "'");
  std::string first_line;
  std::getline(in, first_line);
  if (first_line == kTraceHeaderV1 || first_line == kTraceHeaderV2)
    return ExternalTraceKind::kNative;
  throw TraceError("cannot auto-detect the format of '" + in_path + "' (no "
                   "plrupart-trace header); pass an explicit input kind "
                   "(champsim or pin)");
}

}  // namespace

ConvertStats convert_trace(const std::string& in_path, const std::string& out_path,
                           ExternalTraceKind kind, TraceFormat out_format,
                           std::uint64_t max_ops) {
  // Opening the output truncates it — an in-place conversion would destroy
  // the input before a single record is read (and the failure cleanup below
  // would then delete it). Compare resolved paths so `./x` vs `x` is caught.
  {
    std::error_code in_ec, out_ec;
    const auto in_canon = std::filesystem::weakly_canonical(in_path, in_ec);
    const auto out_canon = std::filesystem::weakly_canonical(out_path, out_ec);
    if (in_path == out_path || (!in_ec && !out_ec && in_canon == out_canon))
      throw TraceError("refusing to convert '" + in_path + "' onto itself (the "
                       "output would truncate the input; pick a different output "
                       "path)");
  }
  if (kind == ExternalTraceKind::kAuto) kind = detect_kind(in_path);
  // On any failure the partial output is deleted: v2 has no trailer, so a
  // truncated-but-valid-looking trace left on disk would be indistinguishable
  // from a complete one to everything downstream.
  try {
    TraceWriter writer(out_path, out_format);
    ConvertStats stats;
    switch (kind) {
      case ExternalTraceKind::kNative:
        stats = convert_native(in_path, writer, max_ops);
        break;
      case ExternalTraceKind::kChampSim:
        stats = convert_champsim(in_path, writer, max_ops);
        break;
      case ExternalTraceKind::kPin:
        stats = convert_pin(in_path, writer, max_ops);
        break;
      case ExternalTraceKind::kAuto:
        PLRUPART_ASSERT_MSG(false, "detect_kind() must resolve kAuto");
    }
    if (writer.ops_written() == 0)
      throw TraceError("input trace '" + in_path + "' yields no memory operations; "
                       "refusing to write an empty trace");
    writer.close();
    stats.ops_out = writer.ops_written();
    stats.kind = kind;
    stats.out_format = out_format;
    return stats;
  } catch (...) {
    std::error_code ec;  // best effort; the original error is what matters
    std::filesystem::remove(out_path, ec);  // determinism-lint: allow(non-throwing cleanup in catch; AtomicFile::remove_file would mask the error)
    throw;
  }
}

ExternalTraceKind trace_kind_from_name(const std::string& name) {
  if (name == "auto") return ExternalTraceKind::kAuto;
  if (name == "native") return ExternalTraceKind::kNative;
  if (name == "champsim") return ExternalTraceKind::kChampSim;
  if (name == "pin") return ExternalTraceKind::kPin;
  throw TraceError("unknown input trace kind '" + name +
                   "' (expected auto, native, champsim, or pin)");
}

TraceFormat trace_format_from_name(const std::string& name) {
  if (name == "v1") return TraceFormat::kTextV1;
  if (name == "v2") return TraceFormat::kBinaryV2;
  throw TraceError("unknown trace format '" + name + "' (expected v1 or v2)");
}

}  // namespace plrupart::sim
