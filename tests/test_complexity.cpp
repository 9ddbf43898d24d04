// Table I reproduction: these tests pin the paper's bracketed numbers
// (16-way 2MB L2, 128B lines, 2 cores, 47 tag bits).
#include "plrupart/power/complexity.hpp"

#include <gtest/gtest.h>

namespace plrupart::power {
namespace {

using cache::ReplacementKind;

ComplexityParams paper_params() {
  return ComplexityParams::from_geometry(cache::paper_l2_geometry(), 2, 47);
}

TEST(TableIa, LruStorageIs8KB) {
  const auto s = replacement_storage(ReplacementKind::kLru, paper_params(), false);
  EXPECT_EQ(s.per_set_bits, 16U * 4U);  // A log2(A) = 64 bits per set
  EXPECT_EQ(s.total_bits, 65536ULL);
  EXPECT_DOUBLE_EQ(s.total_kib(), 8.0);
}

TEST(TableIa, NruStorageIs2KBPlusPointer) {
  const auto s = replacement_storage(ReplacementKind::kNru, paper_params(), false);
  EXPECT_EQ(s.per_set_bits, 16ULL);  // A used bits
  EXPECT_EQ(s.global_bits, 4ULL);    // log2(A) replacement pointer
  EXPECT_EQ(s.total_bits, 16384ULL + 4ULL);
  EXPECT_NEAR(s.total_kib(), 2.0, 0.001);
}

TEST(TableIa, BtStorageIs1Point875KB) {
  const auto s = replacement_storage(ReplacementKind::kTreePlru, paper_params(), false);
  EXPECT_EQ(s.per_set_bits, 15ULL);  // A-1 tree bits
  EXPECT_EQ(s.total_bits, 15360ULL);
  EXPECT_DOUBLE_EQ(s.total_kib(), 1.875);
}

TEST(TableIa, PartitioningAddsOwnerMasks) {
  const auto p = paper_params();
  const auto lru = replacement_storage(ReplacementKind::kLru, p, true);
  EXPECT_EQ(lru.global_bits, 2ULL * 16);  // A x N owner mask bits
  const auto nru = replacement_storage(ReplacementKind::kNru, p, true);
  EXPECT_EQ(nru.global_bits, 4ULL + 2ULL * 16);  // pointer + masks
  // BT: up + down vectors of log2(A) bits per core — 8 bits per core, the
  // "slight increase" the paper reports.
  const auto bt = replacement_storage(ReplacementKind::kTreePlru, p, true);
  EXPECT_EQ(bt.global_bits, 2ULL * 2 * 4);
  EXPECT_EQ(partitioning_global_bits(ReplacementKind::kTreePlru, 16, 1), 8ULL);
}

TEST(TableIa, OwnerCounterSchemeBitsPerSet) {
  // Paper §II-B.1: A log2(N) owner bits + N log2(A) counter bits per set.
  EXPECT_EQ(owner_counter_bits_per_set(16, 2), 16ULL * 1 + 2ULL * 4);
  EXPECT_EQ(owner_counter_bits_per_set(16, 8), 16ULL * 3 + 8ULL * 4);
  EXPECT_EQ(owner_counter_bits_per_set(16, 1), 0ULL + 1ULL * 4);
}

TEST(TableIb, TagComparisonIs752Bits) {
  for (const auto kind :
       {ReplacementKind::kLru, ReplacementKind::kNru, ReplacementKind::kTreePlru}) {
    EXPECT_EQ(event_costs(kind, paper_params()).tag_comparison, 752ULL);
  }
}

TEST(TableIb, UpdateWithoutPartitioning) {
  const auto p = paper_params();
  EXPECT_EQ(event_costs(ReplacementKind::kLru, p).update_unpartitioned, 64ULL);
  // NRU: A-1 used bits (15) + log2(A) pointer bits (4).
  EXPECT_EQ(event_costs(ReplacementKind::kNru, p).update_unpartitioned, 19ULL);
  EXPECT_EQ(event_costs(ReplacementKind::kTreePlru, p).update_unpartitioned, 4ULL);
}

TEST(TableIb, PartitionedVictimSearch) {
  const auto p = paper_params();
  // Find owned lines: N x A = 32 bits for LRU and NRU; BT is solved by the
  // up/down vectors.
  EXPECT_EQ(event_costs(ReplacementKind::kLru, p).find_owned_lines, 32ULL);
  EXPECT_EQ(event_costs(ReplacementKind::kNru, p).find_owned_lines, 32ULL);
  EXPECT_EQ(event_costs(ReplacementKind::kTreePlru, p).find_owned_lines, 0ULL);

  // LRU victim among owned lines: (A-1) x log2(A). The paper's bracket says
  // 52; the formula it prints gives 60 — we implement the formula and record
  // the discrepancy in plrupart/power/complexity.hpp.
  EXPECT_EQ(event_costs(ReplacementKind::kLru, p).find_victim_in_owned, 60ULL);
  EXPECT_EQ(event_costs(ReplacementKind::kNru, p).find_victim_in_owned, 19ULL);
  // BT: log2(A) BT bits + log2(A) up bits + log2(A) down bits.
  EXPECT_EQ(event_costs(ReplacementKind::kTreePlru, p).find_victim_in_owned, 12ULL);
}

TEST(TableIb, ProfilingReadCosts) {
  const auto p = paper_params();
  EXPECT_EQ(event_costs(ReplacementKind::kLru, p).profiling_read, 4ULL);
  EXPECT_EQ(event_costs(ReplacementKind::kNru, p).profiling_read, 16ULL);
  // XOR 2 log2(A) + SUB 2 log2(A).
  EXPECT_EQ(event_costs(ReplacementKind::kTreePlru, p).profiling_read, 16ULL);
}

TEST(TableIb, DataReadIsLineSize) {
  EXPECT_EQ(event_costs(ReplacementKind::kLru, paper_params()).data_read, 1024ULL);
}

TEST(AtdStorage, PaperFigures) {
  // 3.25KB per core: 32 sets x 16 ways x (47 tag + 1 valid + 4 LRU) bits.
  const auto bits = atd_storage_bits(ReplacementKind::kLru, paper_params(), 32);
  EXPECT_EQ(bits, 26624ULL);
  EXPECT_DOUBLE_EQ(static_cast<double>(bits) / 8 / 1024, 3.25);

  // The unsampled full ATD the paper calls prohibitive: 53,248 bytes for the
  // introduction's example corresponds to 8 such 6.5KB-per-1024-set slices;
  // our formula reproduces the per-core full-directory figure.
  const auto full = atd_storage_bits(ReplacementKind::kLru, paper_params(), 1);
  EXPECT_EQ(full, 26624ULL * 32);
}

TEST(AtdStorage, PseudoLruAtdsAreSmaller) {
  const auto p = paper_params();
  const auto lru = atd_storage_bits(ReplacementKind::kLru, p, 32);
  const auto nru = atd_storage_bits(ReplacementKind::kNru, p, 32);
  const auto bt = atd_storage_bits(ReplacementKind::kTreePlru, p, 32);
  EXPECT_LT(nru, lru);
  EXPECT_LT(bt, lru);
}

TEST(ComplexityParams, FromGeometry) {
  const auto p = paper_params();
  EXPECT_EQ(p.associativity, 16U);
  EXPECT_EQ(p.sets, 1024ULL);
  EXPECT_EQ(p.line_bytes, 128U);
  EXPECT_EQ(p.tag_bits, 47U);
}

TEST(Complexity, ScalesAcrossAssociativity) {
  // Sanity at other associativities: LRU grows superlinearly, BT stays A-1.
  EXPECT_EQ(replacement_bits_per_set(ReplacementKind::kLru, 4), 8ULL);
  EXPECT_EQ(replacement_bits_per_set(ReplacementKind::kLru, 64), 64ULL * 6);
  EXPECT_EQ(replacement_bits_per_set(ReplacementKind::kTreePlru, 64), 63ULL);
  EXPECT_EQ(replacement_bits_per_set(ReplacementKind::kNru, 64), 64ULL);
}

}  // namespace
}  // namespace plrupart::power
