// The trace reader's read window: a trace is read from disk once per window,
// so the open-time check, rewinds into the window and every lap of a trace
// shorter than the window cost no refill (pinned by overwriting the file with
// 0xFF bytes once it is open: a refill would read them and fail with a
// varint overflow); and the decoded stream never depends on the window size,
// for well-formed and mutated inputs alike.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <tuple>
#include <unistd.h>
#include <vector>

#include "plrupart/common/assert.hpp"
#include "plrupart/common/rng.hpp"
#include "plrupart/sim/trace_codec.hpp"
#include "plrupart/sim/trace_file.hpp"
#include "support/byte_mutator.hpp"

namespace plrupart::sim {
namespace {

/// The default read window before it became 16 KiB: still a window every
/// fixture below fits in, and one more size the mutants are decoded at.
constexpr std::size_t k64KiB = std::size_t{64} << 10;

class TraceWindowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("plrupart_window_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const char* name) const { return (dir_ / name).string(); }

  static void write_bytes(const std::string& p, const std::string& bytes) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  [[nodiscard]] static std::string read_bytes(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }

  /// Overwrite an open trace in place (same inode, same length) with 0xFF
  /// bytes: any later refill decodes an over-long varint (v2) or a bad digit
  /// (v1) and throws TraceError.
  static void poison_in_place(const std::string& p) {
    const auto size = std::filesystem::file_size(p);
    std::fstream out(p, std::ios::binary | std::ios::in | std::ios::out);
    const std::string ff(size, '\xff');
    out.write(ff.data(), static_cast<std::streamsize>(ff.size()));
  }

  std::filesystem::path dir_;
};

/// Strided runs with occasional 64-bit jumps, so v2 records vary from 2 to
/// 15 bytes and straddle every small window.
std::vector<MemOp> mixed_ops(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<MemOp> ops(n);
  cache::Addr prev = 0x1000'0000;
  for (auto& op : ops) {
    op.addr = rng.next_bool(0.25) ? rng.next_u64() : prev + 64 * rng.next_below(16);
    prev = op.addr;
    op.write = rng.next_bool(0.3);
    op.gap_instrs = static_cast<std::uint32_t>(rng.next_below(rng.next_bool(0.1) ? 1u << 30 : 40));
  }
  return ops;
}

// ---------------------------------------------------------------------------
// Read-once contract
// ---------------------------------------------------------------------------

TEST_F(TraceWindowTest, LongTraceRefillsOnlyAfterTheFirstWindow) {
  const auto ops = mixed_ops(20'000, 2);
  const auto p = path("long.v2.trace");
  write_trace_file(p, ops, TraceFormat::kBinaryV2);

  // Count the records that end inside the first window by encoding them the
  // way TraceWriter does.
  constexpr std::size_t kWindow = FileTraceSource::kDefaultBufferBytes;
  std::string bytes(kTraceHeaderV2);
  bytes.push_back('\n');
  std::size_t in_window = 0;
  cache::Addr prev = 0;
  for (const auto& op : ops) {
    append_varint(bytes, (std::uint64_t{op.gap_instrs} << 1) | (op.write ? 1u : 0u));
    append_varint(bytes, zigzag_encode(static_cast<std::int64_t>(op.addr - prev)));
    prev = op.addr;
    if (bytes.size() <= kWindow) ++in_window;
  }
  ASSERT_EQ(read_bytes(p), bytes);
  ASSERT_GT(bytes.size(), kWindow) << "the trace must outgrow one window";

  FileTraceSource src(p);  // header check + rewind: all inside the opening fill
  poison_in_place(p);
  for (std::size_t i = 0; i < in_window; ++i)
    ASSERT_EQ(src.next().addr, ops[i].addr) << "record " << i << " is in the first window";
  EXPECT_THROW((void)src.next(), TraceError) << "the next record needs a refill";
}

TEST_F(TraceWindowTest, ShortTraceLapsWithoutRefill) {
  const auto ops = mixed_ops(400, 3);
  for (const auto format : {TraceFormat::kTextV1, TraceFormat::kBinaryV2}) {
    const auto p = path(format == TraceFormat::kTextV1 ? "laps.v1.trace" : "laps.v2.trace");
    write_trace_file(p, ops, format);
    ASSERT_LT(std::filesystem::file_size(p), k64KiB);

    FileTraceSource src(p, k64KiB);
    poison_in_place(p);
    for (int lap = 0; lap < 100; ++lap) {
      for (std::size_t i = 0; i < ops.size(); ++i)
        ASSERT_EQ(src.next().addr, ops[i].addr) << trace_format_name(format) << " lap "
                                                << lap << " op " << i;
    }
    EXPECT_EQ(src.loops_completed(), 99u);
  }
}

// ---------------------------------------------------------------------------
// Window independence over mutated inputs
// ---------------------------------------------------------------------------

constexpr std::uint64_t kLaps = 3;

/// What a source yields over kLaps laps: the op stream, or the ops before
/// the TraceError that stopped it plus its message.
struct Outcome {
  std::vector<std::tuple<cache::Addr, bool, std::uint32_t>> ops;
  std::string error;
};

Outcome replay(const std::string& p, std::size_t window, std::size_t max_ops) {
  Outcome out;
  try {
    FileTraceSource src(p, window);
    for (;;) {
      const auto op = src.next();
      if (src.loops_completed() == kLaps) break;
      out.ops.emplace_back(op.addr, op.write, op.gap_instrs);
      if (out.ops.size() > max_ops) {
        out.error = "runaway: more records than the file has bytes";
        break;
      }
    }
  } catch (const TraceError& e) {
    out.error = e.what();
  }
  return out;
}

/// v2 bytes of 200 ordinary records, raw `edge` bytes, then 200 more: a
/// window holding the whole file meets `edge` mid-window, where records are
/// decoded in place.
std::string v2_bytes_around(const std::string& edge) {
  std::string bytes(kTraceHeaderV2);
  bytes.push_back('\n');
  cache::Addr prev = 0;
  const auto put = [&](const std::vector<MemOp>& ops) {
    for (const auto& op : ops) {
      append_varint(bytes, (std::uint64_t{op.gap_instrs} << 1) | (op.write ? 1u : 0u));
      append_varint(bytes, zigzag_encode(static_cast<std::int64_t>(op.addr - prev)));
      prev = op.addr;
    }
  };
  put(mixed_ops(200, 6));
  bytes += edge;
  put(mixed_ops(200, 7));
  return bytes;
}

TEST_F(TraceWindowTest, MutatedTracesDecodeIdenticallyAtEveryWindowSize) {
  // Fixtures: the checked-in v1 conversion golden plus generated v1 and v2
  // traces larger than a 4 KiB window, so every window size below refills
  // at a different set of offsets; then hand-built v2 traces whose edge
  // records sit mid-window: address deltas of 9 and 10 varint bytes and a
  // gap of 2^32-1 (all well-formed), a gap of 2^32, and a varint whose 10th
  // byte overflows 64 bits.
  const auto gen_v1 = path("fixture.v1.trace");
  const auto gen_v2 = path("fixture.v2.trace");
  write_trace_file(gen_v1, mixed_ops(300, 4), TraceFormat::kTextV1);
  write_trace_file(gen_v2, mixed_ops(1000, 5), TraceFormat::kBinaryV2);
  // Edge ops: address deltas of 2^62-1, 2^62 and -2^62-1 (9-, 10- and
  // 10-byte varints) and gaps of 2^32-1 (5-byte varints).
  auto edge_ops = mixed_ops(200, 6);
  constexpr cache::Addr kTwo62 = cache::Addr{1} << 62;
  const cache::Addr a = edge_ops.back().addr;
  edge_ops.push_back({.addr = a + kTwo62 - 1, .write = true, .gap_instrs = 0xffff'ffff});
  edge_ops.push_back({.addr = a + 2 * kTwo62 - 1, .write = false, .gap_instrs = 3});
  edge_ops.push_back({.addr = a + kTwo62 - 2, .write = false, .gap_instrs = 0xffff'ffff});
  for (const auto& op : mixed_ops(200, 7)) edge_ops.push_back(op);
  const auto edge_v2 = path("edges.v2.trace");
  write_trace_file(edge_v2, edge_ops, TraceFormat::kBinaryV2);

  std::string gap_2_32;  // meta varint of a gap of 2^32, then a delta
  append_varint(gap_2_32, std::uint64_t{1} << 33);
  gap_2_32.push_back('\x02');
  const std::string overflow_10th = std::string(9, '\xff') + '\x02';
  struct Fixture {
    std::string bytes;
    const char* error;  ///< what the unmutated fixture fails with, or nullptr
  };
  const std::vector<Fixture> fixtures = {
      {read_bytes(PLRUPART_TEST_SUPPORT_DIR "/champsim_small.golden.v1.trace"), nullptr},
      {read_bytes(gen_v1), nullptr},
      {read_bytes(gen_v2), nullptr},
      {read_bytes(edge_v2), nullptr},
      {v2_bytes_around(gap_2_32), "gap out of range (exceeds 2^32-1) at byte "},
      {v2_bytes_around(overflow_10th + '\x02'), "varint overflow at byte "},
      {v2_bytes_around(std::string("\x04") + overflow_10th), "varint overflow at byte "}};
  ASSERT_GT(fixtures[1].bytes.size(), 4096u);
  ASSERT_GT(fixtures[2].bytes.size(), 4096u);
  for (const auto& f : fixtures)
    ASSERT_LT(f.bytes.size(), k64KiB);

  constexpr std::size_t kMutantsPerFixture = 150;
  // 19-21 bytes straddle the in-place decode's 2 * kMaxVarintBytes threshold.
  const std::size_t windows[] = {
      1, 7, 19, 20, 21, 4096, FileTraceSource::kDefaultBufferBytes, k64KiB};
  const auto p = path("mutant.trace");
  Rng rng(20'101);
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  for (std::size_t f = 0; f < fixtures.size(); ++f) {
    for (std::size_t m = 0; m < kMutantsPerFixture; ++m) {
      const auto bytes =
          m == 0 ? fixtures[f].bytes : testing::mutate_bytes(fixtures[f].bytes, rng);
      write_bytes(p, bytes);
      const std::size_t max_ops = kLaps * (bytes.size() + 1);
      const auto reference = replay(p, windows[0], max_ops);
      for (std::size_t w = 1; w < std::size(windows); ++w) {
        const auto got = replay(p, windows[w], max_ops);
        ASSERT_EQ(got.error, reference.error)
            << "fixture " << f << " mutant " << m << " window " << windows[w];
        ASSERT_EQ(got.ops, reference.ops)
            << "fixture " << f << " mutant " << m << " window " << windows[w];
      }
      ASSERT_EQ(reference.error.find("runaway"), std::string::npos)
          << "fixture " << f << " mutant " << m;
      if (reference.error.empty()) {
        ++decoded;
      } else {
        ++rejected;
      }
      if (m == 0 && fixtures[f].error == nullptr) {
        EXPECT_TRUE(reference.error.empty()) << reference.error;
      } else if (m == 0) {
        EXPECT_NE(reference.error.find(fixtures[f].error), std::string::npos)
            << reference.error;
        EXPECT_EQ(reference.ops.size(), 200u) << "the edge record follows 200 others";
      }
    }
  }
  // The edge records decode to exactly what was written.
  write_bytes(p, fixtures[3].bytes);
  const auto edges =
      replay(p, FileTraceSource::kDefaultBufferBytes, kLaps * edge_ops.size());
  ASSERT_EQ(edges.ops.size(), kLaps * edge_ops.size()) << edges.error;
  for (std::size_t i = 0; i < edge_ops.size(); ++i) {
    EXPECT_EQ(edges.ops[i], std::make_tuple(edge_ops[i].addr, edge_ops[i].write,
                                            edge_ops[i].gap_instrs))
        << "record " << i;
  }
  // Both outcomes must be common, or the mutator is not exercising anything.
  EXPECT_GT(decoded, fixtures.size() * 10);
  EXPECT_GT(rejected, fixtures.size() * 10);
}

}  // namespace
}  // namespace plrupart::sim
