// Synthetic trace generation: determinism, address-space discipline, pacing,
// pattern semantics, phase behavior.
#include "plrupart/workloads/generators.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "plrupart/common/bits.hpp"
#include "plrupart/workloads/catalog.hpp"

namespace plrupart::workloads {
namespace {

BenchmarkProfile tiny_profile() {
  BenchmarkProfile p;
  p.name = "test";
  p.mem_fraction = 0.25;
  p.write_fraction = 0.3;
  p.components = {ComponentSpec{.kind = PatternKind::kRandomRegion,
                                .region_bytes = 64 * 1024,
                                .stride_bytes = 128,
                                .weight = 1.0}};
  return p;
}

TEST(SyntheticTrace, DeterministicPerSeed) {
  SyntheticTrace a(tiny_profile(), 0, 42), b(tiny_profile(), 0, 42), c(tiny_profile(), 0, 43);
  bool diverged = false;
  for (int i = 0; i < 1000; ++i) {
    const auto oa = a.next();
    const auto ob = b.next();
    EXPECT_EQ(oa.addr, ob.addr);
    EXPECT_EQ(oa.write, ob.write);
    EXPECT_EQ(oa.gap_instrs, ob.gap_instrs);
    if (oa.addr != c.next().addr) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(SyntheticTrace, AddressesStayInsideRegions) {
  auto profile = tiny_profile();
  profile.components.push_back(ComponentSpec{.kind = PatternKind::kSequentialStream,
                                             .region_bytes = 32 * 1024,
                                             .stride_bytes = 128,
                                             .weight = 0.5});
  const std::uint64_t base = 1ULL << 40;
  SyntheticTrace t(profile, base, 9);
  const std::uint64_t span = 64 * 1024 + 32 * 1024;
  for (int i = 0; i < 20000; ++i) {
    const auto a = t.next().addr;
    ASSERT_GE(a, base);
    ASSERT_LT(a, base + span);
  }
}

TEST(SyntheticTrace, GapPacingMatchesMemFraction) {
  SyntheticTrace t(tiny_profile(), 0, 3);  // mem_fraction 0.25 -> mean gap 3
  std::uint64_t gaps = 0;
  constexpr int n = 10000;
  for (int i = 0; i < n; ++i) gaps += t.next().gap_instrs;
  const double instr_per_op = 1.0 + static_cast<double>(gaps) / n;
  EXPECT_NEAR(1.0 / instr_per_op, 0.25, 0.01) << "memory ops per instruction";
}

TEST(SyntheticTrace, WriteFractionRespected) {
  SyntheticTrace t(tiny_profile(), 0, 5);
  int writes = 0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) writes += t.next().write ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(writes) / n, 0.3, 0.02);
}

TEST(SyntheticTrace, SequentialStreamWrapsInOrder) {
  BenchmarkProfile p = tiny_profile();
  p.components = {ComponentSpec{.kind = PatternKind::kSequentialStream,
                                .region_bytes = 1024,  // 8 lines of 128B
                                .stride_bytes = 128,
                                .weight = 1.0}};
  SyntheticTrace t(p, 0, 1);
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t l = 0; l < 8; ++l) {
      EXPECT_EQ(t.next().addr, l * 128) << "round " << round;
    }
  }
}

TEST(SyntheticTrace, StridedLoopVisitsStridedLines) {
  BenchmarkProfile p = tiny_profile();
  p.components = {ComponentSpec{.kind = PatternKind::kStridedLoop,
                                .region_bytes = 2048,  // 16 lines
                                .stride_bytes = 512,   // 4 lines
                                .weight = 1.0}};
  SyntheticTrace t(p, 0, 1);
  EXPECT_EQ(t.next().addr, 0ULL);
  EXPECT_EQ(t.next().addr, 512ULL);
  EXPECT_EQ(t.next().addr, 1024ULL);
  EXPECT_EQ(t.next().addr, 1536ULL);
  EXPECT_EQ(t.next().addr, 0ULL) << "wraps at the region";
}

TEST(SyntheticTrace, RandomRegionCoversItsLines) {
  BenchmarkProfile p = tiny_profile();
  p.components[0].region_bytes = 1024;  // 8 lines
  SyntheticTrace t(p, 0, 17);
  std::set<cache::Addr> seen;
  for (int i = 0; i < 500; ++i) seen.insert(t.next().addr / 128);
  EXPECT_EQ(seen.size(), 8U);
}

TEST(SyntheticTrace, PhaseRotationShiftsDominantComponent) {
  BenchmarkProfile p = tiny_profile();
  p.components = {ComponentSpec{.kind = PatternKind::kRandomRegion,
                                .region_bytes = 1024,
                                .stride_bytes = 128,
                                .weight = 0.95},
                  ComponentSpec{.kind = PatternKind::kRandomRegion,
                                .region_bytes = 1024,
                                .stride_bytes = 128,
                                .weight = 0.05}};
  p.phase_period_ops = 1000;
  SyntheticTrace t(p, 0, 23);
  // Phase 0: component 0 (region [0,1024)) dominates.
  int low = 0;
  for (int i = 0; i < 1000; ++i) low += (t.next().addr < 1024) ? 1 : 0;
  EXPECT_GT(low, 800);
  EXPECT_EQ(t.phase(), 1ULL);
  // Phase 1: weights rotate; component 1 (region [1024, 2048)) dominates.
  int high = 0;
  for (int i = 0; i < 1000; ++i) high += (t.next().addr >= 1024) ? 1 : 0;
  EXPECT_GT(high, 800);
}

TEST(SyntheticTrace, MakeTraceSeparatesCores) {
  const auto t0 = make_trace(tiny_profile(), 0, 9);
  const auto t1 = make_trace(tiny_profile(), 1, 9);
  for (int i = 0; i < 100; ++i) {
    const auto a0 = t0->next().addr;
    const auto a1 = t1->next().addr;
    EXPECT_LT(a0, 2ULL << 40);
    EXPECT_GE(a1, 2ULL << 40);
  }
}

TEST(SyntheticTrace, RejectsDegenerateProfiles) {
  BenchmarkProfile p = tiny_profile();
  p.components.clear();
  EXPECT_THROW(SyntheticTrace(p, 0, 1), InvariantError);
  p = tiny_profile();
  p.mem_fraction = 0.0;
  EXPECT_THROW(SyntheticTrace(p, 0, 1), InvariantError);
  p = tiny_profile();
  p.components[0].region_bytes = 32;  // below one line
  EXPECT_THROW(SyntheticTrace(p, 0, 1), InvariantError);
}

/// FNV-1a over the first `ops` records (addr, gap, write; little-endian).
std::uint64_t stream_digest(SyntheticTrace& t, int ops) {
  std::uint64_t h = kFnv1a64Init;
  for (int i = 0; i < ops; ++i) {
    const sim::MemOp op = t.next();
    char buf[13];
    for (int b = 0; b < 8; ++b) buf[b] = static_cast<char>(op.addr >> (8 * b));
    for (int b = 0; b < 4; ++b) buf[8 + b] = static_cast<char>(op.gap_instrs >> (8 * b));
    buf[12] = static_cast<char>(op.write ? 1 : 0);
    h = fnv1a64(std::string_view(buf, sizeof buf), h);
  }
  return h;
}

// Pins the exact op stream of every catalog profile: any change to the
// generator's arithmetic (hoisted divisions, wrap-around cursors, phase
// rotation) that shifts a single address, gap or write flag fails here.
TEST(SyntheticTrace, CatalogStreamsArePinned) {
  const std::map<std::string, std::uint64_t> expected = {
      {"applu", 0xf5fe0067aacc177dULL},   {"apsi", 0x19fb00d6e7209ab0ULL},
      {"art", 0x3270678465f4e0e6ULL},     {"bzip2", 0x265571ca889e0635ULL},
      {"crafty", 0xa4b831182ea5a465ULL},  {"eon", 0x5e6564a798560f63ULL},
      {"equake", 0x3b8c37bdafc17562ULL},  {"facerec", 0xb4948218006855a9ULL},
      {"fma3d", 0xd9d59549bc5259eaULL},   {"galgel", 0xd691769033dba321ULL},
      {"gap", 0x72210c089a3ed266ULL},     {"gcc", 0x4cb9fc1b1e8602fdULL},
      {"gzip", 0xc2d6a0b2c2c60bb7ULL},    {"lucas", 0xd8bb92e368e34aacULL},
      {"mcf", 0x30da3c2ef4594522ULL},     {"mesa", 0xee98819b85fbb420ULL},
      {"mgrid", 0x41c2c516f5649834ULL},   {"parser", 0xfe835e1b3472ee44ULL},
      {"perlbmk", 0x130d96a3df855228ULL}, {"sixtrack", 0xe4ba9753eb26e2e1ULL},
      {"swim", 0x5e8445b90bed06f5ULL},    {"twolf", 0x3ac22fc1556e3110ULL},
      {"vortex", 0x26a2bab3817f05bcULL},  {"vpr", 0x730050cc2d928b92ULL},
      {"wupwise", 0x32f7bea713be1657ULL},
  };
  ASSERT_EQ(catalog().size(), 25U);
  for (const BenchmarkProfile& p : catalog()) {
    SyntheticTrace t(p, std::uint64_t{1} << 40, /*seed=*/1);
    const std::uint64_t got = stream_digest(t, 100000);
    char hex[19];
    std::snprintf(hex, sizeof hex, "0x%016llx", static_cast<unsigned long long>(got));
    const auto it = expected.find(p.name);
    if (it == expected.end()) {
      ADD_FAILURE() << "no pinned digest for " << p.name << " (" << hex << ")";
      continue;
    }
    EXPECT_EQ(it->second, got) << p.name << " stream drifted: " << hex;
  }
}

// The catalog's phase periods (>= 1.5M ops) lie beyond the pinned window, so
// one more profile pins phase rotation over three components, a one-line
// stream, a stride longer than its region, skewed picks and L1 scratch ops.
TEST(SyntheticTrace, EdgeProfileStreamIsPinned) {
  BenchmarkProfile p = tiny_profile();
  p.l1_fraction = 0.2;
  p.phase_period_ops = 777;
  p.components = {ComponentSpec{.kind = PatternKind::kSequentialStream,
                                .region_bytes = 128,
                                .stride_bytes = 128,
                                .weight = 0.5},
                  ComponentSpec{.kind = PatternKind::kStridedLoop,
                                .region_bytes = 8 * 128,
                                .stride_bytes = 10 * 128,
                                .weight = 0.3},
                  ComponentSpec{.kind = PatternKind::kPointerChase,
                                .region_bytes = 64 * 1024,
                                .stride_bytes = 128,
                                .weight = 0.2,
                                .skew = 2.0}};
  SyntheticTrace t(p, 0, 1);
  EXPECT_EQ(stream_digest(t, 100000), 0x4a59214d9fab5777ULL);
}

}  // namespace
}  // namespace plrupart::workloads
