// The streaming trace path under stress: malformed inputs of every kind must
// fail with a clear TraceError (never UB — this suite runs under the
// PLRUPART_SANITIZE job), random op streams must round-trip byte-exactly
// through both formats at any buffer size (including buffers smaller than one
// record), and a >=100 MB trace must stream with O(buffer) resident memory.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <unistd.h>
#include <vector>

#include "plrupart/common/rng.hpp"
#include "plrupart/sim/trace_codec.hpp"
#include "plrupart/sim/trace_file.hpp"

namespace plrupart::sim {
namespace {

class TraceStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("plrupart_stream_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const char* name) const { return (dir_ / name).string(); }

  /// Write raw bytes verbatim (no header is added).
  [[nodiscard]] std::string raw_file(const char* name, const std::string& bytes) const {
    const auto p = path(name);
    std::ofstream out(p, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return p;
  }

  /// Stream every record of `p`; malformed input throws out of here.
  static std::vector<MemOp> drain(const std::string& p, std::size_t buffer = 4096) {
    TraceReader reader(p, buffer);
    std::vector<MemOp> ops;
    while (auto op = reader.next()) ops.push_back(*op);
    return ops;
  }

  /// EXPECT that draining `bytes` throws a TraceError mentioning `what`.
  void expect_rejects(const std::string& bytes, const std::string& what) {
    const auto p = raw_file("bad.trace", bytes);
    try {
      (void)drain(p);
      FAIL() << "expected TraceError mentioning '" << what << "' for: " << bytes;
    } catch (const TraceError& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << "error message '" << e.what() << "' does not mention '" << what << "'";
    }
  }

  std::filesystem::path dir_;
};

constexpr const char* kV1 = "# plrupart-trace v1\n";
constexpr const char* kV2 = "# plrupart-trace v2\n";

// ---------------------------------------------------------------------------
// Malformed input: every defect fails loudly with the defect spelled out.
// ---------------------------------------------------------------------------

TEST_F(TraceStreamTest, RejectsTruncatedHeader) {
  expect_rejects("# plrupart-tr", "truncated header");
  expect_rejects("", "truncated header");
  expect_rejects("# plrupart-trace v1", "truncated header");  // no newline
}

TEST_F(TraceStreamTest, RejectsUnknownHeader) {
  expect_rejects("# plrupart-trace v9\n1 a R\n", "missing plrupart-trace header");
  expect_rejects("5 1a2b R\n", "missing plrupart-trace header");
}

TEST_F(TraceStreamTest, RejectsCrlfHeader) {
  expect_rejects("# plrupart-trace v1\r\n1 a R\n", "CRLF");
}

TEST_F(TraceStreamTest, RejectsMixedLineEndings) {
  // First record clean, second carries a CRLF ending: the error must name the
  // line ending, not mis-parse the record.
  expect_rejects(std::string(kV1) + "1 a R\n2 b W\r\n", "CRLF");
}

TEST_F(TraceStreamTest, RejectsNegativeGap) {
  expect_rejects(std::string(kV1) + "-5 1a2b R\n", "negative gap");
}

TEST_F(TraceStreamTest, RejectsGapOutOfRange) {
  expect_rejects(std::string(kV1) + "4294967296 1a2b R\n", "gap out of range");
}

TEST_F(TraceStreamTest, RejectsBadHexAddress) {
  expect_rejects(std::string(kV1) + "5 zz R\n", "bad address");
  expect_rejects(std::string(kV1) + "5 1a2bg R\n", "malformed record");  // g ends the hex run
  expect_rejects(std::string(kV1) + "5 11112222333344445 R\n", "more than 16 hex digits");
}

TEST_F(TraceStreamTest, RejectsMidRecordEofInText) {
  expect_rejects(std::string(kV1) + "5", "truncated record");
  expect_rejects(std::string(kV1) + "5 ", "truncated record");
  expect_rejects(std::string(kV1) + "5 1a2b", "truncated record");
  expect_rejects(std::string(kV1) + "5 1a2b ", "truncated record");
}

TEST_F(TraceStreamTest, RejectsBadFlagAndTrailingJunk) {
  expect_rejects(std::string(kV1) + "5 1a2b X\n", "bad R/W flag");
  expect_rejects(std::string(kV1) + "5 1a2b R junk\n", "trailing characters");
}

TEST_F(TraceStreamTest, RejectsMidRecordEofInBinary) {
  // A lone continuation byte: EOF inside the first varint.
  expect_rejects(std::string(kV2) + std::string(1, '\x80'), "EOF inside a varint");
  // A complete meta varint but no address delta: EOF between the varints of
  // one record is still mid-record.
  expect_rejects(std::string(kV2) + std::string(1, '\x04'), "truncated record");
}

TEST_F(TraceStreamTest, RejectsVarintOverflow) {
  // 9 continuation bytes then a 10th byte with more than bit 63 set.
  expect_rejects(std::string(kV2) + std::string(9, '\x80') + '\x02', "varint overflow");
  // 10 continuation bytes: the varint never terminates within the cap.
  expect_rejects(std::string(kV2) + std::string(10, '\x80'), "varint overflow");
}

TEST_F(TraceStreamTest, RejectsBinaryGapOutOfRange) {
  // meta = 2^33 encodes gap = 2^32, one past the uint32 ceiling.
  std::string bytes(kV2);
  append_varint(bytes, std::uint64_t{1} << 33);
  append_varint(bytes, 0);
  expect_rejects(bytes, "gap out of range");
}

TEST_F(TraceStreamTest, EmptyTraceFailsAtConstruction) {
  EXPECT_THROW(FileTraceSource{raw_file("e1.trace", kV1)}, TraceError);
  EXPECT_THROW(FileTraceSource{raw_file("e2.trace", kV2)}, TraceError);
  // Comments and blank lines only: still no records.
  EXPECT_THROW(FileTraceSource{raw_file("e3.trace", std::string(kV1) + "\n# note\n\n")},
               TraceError);
  EXPECT_THROW(probe_trace_file(raw_file("e4.trace", kV1)), TraceError);
}

TEST_F(TraceStreamTest, MalformedFirstRecordFailsAtConstruction) {
  // FileTraceSource probes the first record up front, so a sweep over a bad
  // trace dies before simulation, not mid-run.
  EXPECT_THROW(FileTraceSource{raw_file("b.trace", std::string(kV1) + "bogus\n")},
               TraceError);
}

// ---------------------------------------------------------------------------
// Round-trip properties: random streams, both formats, any buffer size.
// ---------------------------------------------------------------------------

/// Random ops exercising the codec's edges: small v2 deltas, sign-flipping
/// huge deltas, zero and max addresses, zero and max gaps.
std::vector<MemOp> random_ops(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<MemOp> ops;
  ops.reserve(n);
  cache::Addr prev = 0x4000'0000;
  for (std::size_t i = 0; i < n; ++i) {
    MemOp op;
    switch (rng.next_below(4)) {
      case 0: op.addr = prev + 64 * rng.next_below(32); break;        // small +delta
      case 1: op.addr = prev - 64 * rng.next_below(32); break;        // small -delta
      case 2: op.addr = rng.next_u64() & 0xffff'ffff'ffff; break;     // 48-bit jump
      default: op.addr = rng.next_u64(); break;                       // full 64-bit
    }
    prev = op.addr;
    op.write = rng.next_bool(0.3);
    const auto kind = rng.next_below(8);
    op.gap_instrs = kind == 0   ? 0
                    : kind == 1 ? std::numeric_limits<std::uint32_t>::max()
                                : static_cast<std::uint32_t>(rng.next_below(2000));
    ops.push_back(op);
  }
  // Pin the absolute extremes regardless of what the Rng produced.
  ops[0].addr = 0;
  ops[n / 2].addr = ~cache::Addr{0};
  return ops;
}

TEST_F(TraceStreamTest, RoundTripsBothFormatsAtAnyBufferSize) {
  const auto ops = random_ops(3000, 1234);
  for (const auto format : {TraceFormat::kTextV1, TraceFormat::kBinaryV2}) {
    const auto p = path(format == TraceFormat::kTextV1 ? "rt.v1.trace" : "rt.v2.trace");
    write_trace_file(p, ops, format);
    // Buffer sizes below one record force records to straddle refills; 1 is
    // the degenerate byte-at-a-time case.
    for (const std::size_t buffer : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                                     std::size_t{64}, std::size_t{4096},
                                     std::size_t{1} << 20}) {
      const auto got = drain(p, buffer);
      ASSERT_EQ(got.size(), ops.size()) << "buffer " << buffer;
      for (std::size_t i = 0; i < ops.size(); ++i) {
        ASSERT_EQ(got[i].addr, ops[i].addr) << "op " << i << " buffer " << buffer;
        ASSERT_EQ(got[i].write, ops[i].write) << "op " << i << " buffer " << buffer;
        ASSERT_EQ(got[i].gap_instrs, ops[i].gap_instrs)
            << "op " << i << " buffer " << buffer;
      }
    }
  }
}

TEST_F(TraceStreamTest, LoopingReplayIsIdenticalEveryLap) {
  const auto ops = random_ops(257, 77);
  const auto p = path("loop.v2.trace");
  write_trace_file(p, ops, TraceFormat::kBinaryV2);
  FileTraceSource src(p, 128);  // refills many times per lap
  for (int lap = 0; lap < 3; ++lap) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const auto got = src.next();
      ASSERT_EQ(got.addr, ops[i].addr) << "lap " << lap << " op " << i;
      ASSERT_EQ(got.gap_instrs, ops[i].gap_instrs) << "lap " << lap << " op " << i;
    }
  }
  EXPECT_EQ(src.loops_completed(), 2u);
  EXPECT_EQ(src.ops_delivered(), 3 * ops.size());
}

TEST_F(TraceStreamTest, V2IsSubstantiallySmallerThanV1) {
  // The point of v2: sequential/strided traces (the common capture shape)
  // cost a few bytes per record instead of a text line.
  std::vector<MemOp> ops;
  ops.reserve(10'000);
  for (std::size_t i = 0; i < 10'000; ++i)
    ops.push_back(MemOp{.addr = 0x1000'0000 + 64 * i, .write = (i & 3) == 0,
                        .gap_instrs = static_cast<std::uint32_t>(i % 7)});
  write_trace_file(path("s.v1.trace"), ops, TraceFormat::kTextV1);
  write_trace_file(path("s.v2.trace"), ops, TraceFormat::kBinaryV2);
  const auto v1 = std::filesystem::file_size(path("s.v1.trace"));
  const auto v2 = std::filesystem::file_size(path("s.v2.trace"));
  EXPECT_LT(v2 * 3, v1) << "v2 should be <1/3 the size of v1 on strided traces";
}

// ---------------------------------------------------------------------------
// O(buffer) memory on a >=100 MB trace.
// ---------------------------------------------------------------------------

/// Peak resident set (VmHWM) in KiB, or -1 when /proc is unavailable.
long vm_hwm_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) return std::stol(line.substr(6));
  }
  return -1;
}

TEST_F(TraceStreamTest, StreamsHundredMegabyteTraceWithSmallBuffer) {
  // Write ~105 MB of v1 text one record at a time (the writer streams too),
  // then replay it through a 256 KiB buffer and require the peak RSS not to
  // grow by more than a slack factor over that buffer — the old
  // load-everything reader would add >300 MB here (6-byte MemOp vector plus
  // parse-time strings).
  constexpr std::uint64_t kRecords = 7'000'000;
  constexpr std::size_t kBuffer = 256 * 1024;
  const auto p = path("big.v1.trace");
  std::uint64_t expected_sum = 0;
  MemOp first{};
  {
    TraceWriter writer(p, TraceFormat::kTextV1);
    Rng rng(4242);
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      MemOp op;
      // Bit 39 pins every address at 10 hex digits -> ~15 bytes per line.
      op.addr = (rng.next_u64() & 0xff'ffff'ffff) | (cache::Addr{1} << 39);
      op.write = (i & 7) == 0;
      op.gap_instrs = static_cast<std::uint32_t>(i & 7);
      if (i == 0) first = op;
      expected_sum += op.addr;
      writer.append(op);
    }
    writer.close();
  }
  ASSERT_GE(std::filesystem::file_size(p), std::uint64_t{100} * 1024 * 1024)
      << "fixture must exceed 100 MB for the O(buffer) claim to mean anything";

  const long hwm_before = vm_hwm_kib();
  FileTraceSource src(p, kBuffer);
  EXPECT_LE(src.buffer_capacity(), kBuffer);
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < kRecords; ++i) sum += src.next().addr;
  EXPECT_EQ(sum, expected_sum) << "streamed records must match what was written";
  const auto wrapped = src.next();  // one lap more: rewind still works at scale
  EXPECT_EQ(wrapped.addr, first.addr);
  EXPECT_EQ(src.loops_completed(), 1u);

  const long hwm_after = vm_hwm_kib();
  if (hwm_before > 0 && hwm_after > 0) {
    // 32 MiB of slack absorbs allocator/sanitizer noise while still being
    // ~10x below what materializing the 7M-record trace would cost.
    EXPECT_LE(hwm_after - hwm_before, 32 * 1024)
        << "streaming a " << std::filesystem::file_size(p) / (1024 * 1024)
        << " MB trace grew peak RSS from " << hwm_before << " KiB to " << hwm_after
        << " KiB — reader memory is not O(buffer)";
  }
}

}  // namespace
}  // namespace plrupart::sim
