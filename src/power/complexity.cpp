#include "plrupart/power/complexity.hpp"

#include "plrupart/common/bits.hpp"

namespace plrupart::power {

namespace {
[[nodiscard]] std::uint64_t log2u(std::uint32_t v) { return ilog2_exact(v); }
}  // namespace

ComplexityParams ComplexityParams::from_geometry(const cache::Geometry& g,
                                                 std::uint32_t cores,
                                                 std::uint32_t tag_bits) {
  g.validate();
  return ComplexityParams{.associativity = g.associativity,
                          .sets = g.sets(),
                          .cores = cores,
                          .tag_bits = tag_bits,
                          .line_bytes = g.line_bytes};
}

std::uint64_t replacement_bits_per_set(cache::ReplacementKind kind,
                                       std::uint32_t a) {
  switch (kind) {
    case cache::ReplacementKind::kLru:
      return static_cast<std::uint64_t>(a) * log2u(a);  // A log2(A)
    case cache::ReplacementKind::kNru:
      return a;  // one used bit per line
    case cache::ReplacementKind::kTreePlru:
      return a - 1;  // tree bits
    case cache::ReplacementKind::kSrrip:
      return 2ULL * a;  // 2-bit RRPV per line
  }
  return 0;
}

std::uint64_t replacement_global_bits(cache::ReplacementKind kind, std::uint32_t a) {
  // Only NRU keeps cache-global replacement state: the shared pointer.
  return kind == cache::ReplacementKind::kNru ? log2u(a) : 0;
}

std::uint64_t partitioning_global_bits(cache::ReplacementKind kind, std::uint32_t a,
                                       std::uint32_t n) {
  switch (kind) {
    case cache::ReplacementKind::kLru:
    case cache::ReplacementKind::kNru:
      // A-bit owner mask per core.
      return static_cast<std::uint64_t>(a) * n;
    case cache::ReplacementKind::kTreePlru:
      // log2(A)-bit up and down vectors per core (no owner masks needed).
      return 2ULL * log2u(a) * n;
    case cache::ReplacementKind::kSrrip:
      return static_cast<std::uint64_t>(a) * n;
  }
  return 0;
}

std::uint64_t owner_counter_bits_per_set(std::uint32_t a, std::uint32_t n) {
  // A·log2(N) owner-core bits + N counters of log2(A) bits each. With one
  // core log2(1) = 0: no owner tracking is needed.
  const std::uint64_t owner_bits = n > 1 ? static_cast<std::uint64_t>(a) * log2u(n) : 0;
  return owner_bits + static_cast<std::uint64_t>(n) * log2u(a);
}

StorageBreakdown replacement_storage(cache::ReplacementKind kind,
                                     const ComplexityParams& p, bool with_partitioning) {
  StorageBreakdown s;
  s.per_set_bits = replacement_bits_per_set(kind, p.associativity);
  s.global_bits = replacement_global_bits(kind, p.associativity);
  if (with_partitioning)
    s.global_bits += partitioning_global_bits(kind, p.associativity, p.cores);
  s.total_bits = s.per_set_bits * p.sets + s.global_bits;
  return s;
}

EventCosts event_costs(cache::ReplacementKind kind, const ComplexityParams& p) {
  const std::uint32_t a = p.associativity;
  const std::uint64_t lg = log2u(a);
  EventCosts e;
  e.tag_comparison = static_cast<std::uint64_t>(a) * p.tag_bits;
  e.data_read = static_cast<std::uint64_t>(p.line_bytes) * 8;
  switch (kind) {
    case cache::ReplacementKind::kLru:
      // Hit in the LRU position: every line's position shifts.
      e.update_unpartitioned = static_cast<std::uint64_t>(a) * lg;
      e.find_owned_lines = static_cast<std::uint64_t>(p.cores) * a;
      // Scan the other lines' LRU bits: (A-1)·log2(A). The paper prints 52
      // for A=16; the formula gives 60 (see header).
      e.find_victim_in_owned = static_cast<std::uint64_t>(a - 1) * lg;
      e.profiling_read = lg;  // read the line's LRU bits
      break;
    case cache::ReplacementKind::kNru:
      // All used bits reset except the accessed one, plus the pointer.
      e.update_unpartitioned = (a - 1) + lg;
      e.find_owned_lines = static_cast<std::uint64_t>(p.cores) * a;
      e.find_victim_in_owned = (a - 1) + lg;  // used bits + pointer
      e.profiling_read = a;                   // count the used bits
      break;
    case cache::ReplacementKind::kTreePlru:
      // One path of the tree.
      e.update_unpartitioned = lg;
      e.find_owned_lines = 0;  // solved by the up/down vectors
      e.find_victim_in_owned = lg + lg + lg;  // BT bits + up + down vectors
      e.profiling_read = 2 * lg + 2 * lg;     // XOR 2·log2(A) + SUB 2·log2(A)
      break;
    case cache::ReplacementKind::kSrrip:
      // Worst case: an aging sweep rewrites every scoped RRPV (2 bits each).
      e.update_unpartitioned = 2ULL * a;
      e.find_owned_lines = static_cast<std::uint64_t>(p.cores) * a;
      e.find_victim_in_owned = 2ULL * a;
      e.profiling_read = 2;  // read the line's RRPV
      break;
  }
  return e;
}

std::uint64_t atd_storage_bits(cache::ReplacementKind kind, const ComplexityParams& p,
                               std::uint32_t sampling_ratio) {
  PLRUPART_ASSERT(sampling_ratio >= 1);
  PLRUPART_ASSERT(p.sets % sampling_ratio == 0);
  const std::uint64_t sets = p.sets / sampling_ratio;
  const std::uint64_t entries = sets * p.associativity;
  // Tag + valid per entry plus the replacement metadata of the ATD itself.
  std::uint64_t per_entry = p.tag_bits + 1;
  std::uint64_t per_set = 0;
  std::uint64_t global = 0;
  switch (kind) {
    case cache::ReplacementKind::kLru:
      per_entry += log2u(p.associativity);
      break;
    case cache::ReplacementKind::kNru:
      per_entry += 1;
      global = log2u(p.associativity);
      break;
    case cache::ReplacementKind::kTreePlru:
      per_set = p.associativity - 1;
      break;
    case cache::ReplacementKind::kSrrip:
      per_entry += 2;
      break;
  }
  return entries * per_entry + sets * per_set + global;
}

}  // namespace plrupart::power
