// Trace file I/O: format round trips, looping playback semantics, error
// handling. FileTraceSource STREAMS (O(buffer) memory, no size() — a
// streaming source cannot know its length without a full pass); deep
// malformed-input and large-file coverage lives in test_trace_stream.cpp.
#include "plrupart/sim/trace_file.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "plrupart/workloads/catalog.hpp"
#include "plrupart/workloads/generators.hpp"

namespace plrupart::sim {
namespace {

class TraceFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("plrupart_trace_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const char* name) const { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(TraceFileTest, RoundTripPreservesEveryFieldInBothFormats) {
  const std::vector<MemOp> ops{
      {.addr = 0x1000, .write = false, .gap_instrs = 3},
      {.addr = 0xdeadbeef, .write = true, .gap_instrs = 0},
      {.addr = 0xffffffffffff, .write = false, .gap_instrs = 1000},
  };
  for (const auto format : {TraceFormat::kTextV1, TraceFormat::kBinaryV2}) {
    const auto p = path(format == TraceFormat::kTextV1 ? "t.v1.trace" : "t.v2.trace");
    write_trace_file(p, ops, format);
    FileTraceSource src(p);
    EXPECT_EQ(src.format(), format);
    for (const auto& expected : ops) {
      const auto got = src.next();
      EXPECT_EQ(got.addr, expected.addr);
      EXPECT_EQ(got.write, expected.write);
      EXPECT_EQ(got.gap_instrs, expected.gap_instrs);
    }
    // One full pass delivered; the next op wraps back to the first record.
    EXPECT_EQ(src.next().addr, ops[0].addr);
    EXPECT_EQ(src.loops_completed(), 1u);
    EXPECT_EQ(src.ops_delivered(), ops.size() + 1);
  }
}

TEST_F(TraceFileTest, LoopsAtEndOfTrace) {
  write_trace_file(path("loop.trace"), {{.addr = 0x40, .write = false, .gap_instrs = 1},
                                        {.addr = 0x80, .write = true, .gap_instrs = 2}});
  FileTraceSource src(path("loop.trace"));
  EXPECT_EQ(src.next().addr, 0x40ULL);
  EXPECT_EQ(src.next().addr, 0x80ULL);
  EXPECT_EQ(src.next().addr, 0x40ULL) << "source must wrap";
}

TEST_F(TraceFileTest, RecordedSyntheticTraceReplaysIdentically) {
  const auto& profile = workloads::benchmark("gzip");
  const auto ops = record_trace(*workloads::make_trace(profile, 0, 7), 5000);
  write_trace_file(path("gzip.trace"), ops, TraceFormat::kBinaryV2);

  const auto original = workloads::make_trace(profile, 0, 7);
  FileTraceSource replay(path("gzip.trace"));
  for (int i = 0; i < 5000; ++i) {
    const auto a = original->next();
    const auto b = replay.next();
    ASSERT_EQ(a.addr, b.addr) << "op " << i;
    ASSERT_EQ(a.write, b.write) << "op " << i;
    ASSERT_EQ(a.gap_instrs, b.gap_instrs) << "op " << i;
  }
}

TEST_F(TraceFileTest, CommentsAndBlankLinesIgnored) {
  std::ofstream out(path("c.trace"));
  out << "# plrupart-trace v1\n\n# a comment\n5 1a2b R\n\n";
  out.close();
  FileTraceSource src(path("c.trace"));
  EXPECT_EQ(src.next().addr, 0x1a2bULL);
  EXPECT_EQ(src.next().addr, 0x1a2bULL) << "the only record wraps onto itself";
  EXPECT_EQ(src.loops_completed(), 1u);
}

TEST_F(TraceFileTest, ProbeReportsFormatAndValidatesEagerly) {
  write_trace_file(path("p1.trace"), {{.addr = 0x40}}, TraceFormat::kTextV1);
  write_trace_file(path("p2.trace"), {{.addr = 0x40}}, TraceFormat::kBinaryV2);
  EXPECT_EQ(probe_trace_file(path("p1.trace")), TraceFormat::kTextV1);
  EXPECT_EQ(probe_trace_file(path("p2.trace")), TraceFormat::kBinaryV2);
  EXPECT_THROW(probe_trace_file(path("nope.trace")), TraceError);
}

TEST_F(TraceFileTest, RejectsMissingHeader) {
  std::ofstream out(path("bad.trace"));
  out << "5 1a2b R\n";
  out.close();
  EXPECT_THROW(FileTraceSource{path("bad.trace")}, InvariantError);
}

TEST_F(TraceFileTest, RejectsMalformedRecords) {
  for (const char* body : {"xyz 1a2b R", "5 zz R", "5 1a2b X", "5", "-1 1a2b R"}) {
    std::ofstream out(path("bad.trace"));
    out << "# plrupart-trace v1\n" << body << "\n";
    out.close();
    EXPECT_THROW(FileTraceSource{path("bad.trace")}, InvariantError) << body;
  }
}

TEST_F(TraceFileTest, RejectsMissingAndEmptyFiles) {
  EXPECT_THROW(FileTraceSource{path("nope.trace")}, InvariantError);
  std::ofstream out(path("empty.trace"));
  out << "# plrupart-trace v1\n";
  out.close();
  EXPECT_THROW(FileTraceSource{path("empty.trace")}, InvariantError);
  EXPECT_THROW(write_trace_file(path("w.trace"), {}), InvariantError);
}

TEST_F(TraceFileTest, TraceWriterStreamsAndChecksOnClose) {
  const auto p = path("w.trace");
  TraceWriter writer(p, TraceFormat::kBinaryV2);
  for (std::uint32_t i = 0; i < 100'000; ++i)  // several flush chunks
    writer.append(MemOp{.addr = 0x1000 + 64ull * i, .write = false, .gap_instrs = i & 1});
  EXPECT_EQ(writer.ops_written(), 100'000u);
  writer.close();
  TraceReader reader(p);
  std::uint64_t n = 0;
  while (reader.next()) ++n;
  EXPECT_EQ(n, 100'000u);

  // close() on an empty writer refuses to produce an unreadable file.
  TraceWriter empty(path("e.trace"), TraceFormat::kTextV1);
  EXPECT_THROW(empty.close(), TraceError);
}

}  // namespace
}  // namespace plrupart::sim
