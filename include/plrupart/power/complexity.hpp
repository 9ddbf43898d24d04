// Hardware complexity model: the formulas of the paper's Table I.
//
// Storage (Table I(a)): replacement-supporting bits per set for LRU, NRU and
// BT, without partitioning and with the partitioning extensions (global
// replacement masks / owner counters / BT up-down vectors).
//
// Event costs (Table I(b)): bits read or updated per cache event — tag
// comparison, position update, partitioned victim search, profiling-logic
// stack-distance estimation, data readout.
//
// Known paper inconsistency: Table I(b) prints "A−1 × log2(A) (52 bits)" for
// LRU find-LRU-in-owned-lines; (16−1)·4 = 60. We implement the formula, and
// bench_table1_complexity prints both numbers.
#pragma once

#include "plrupart/export.hpp"

#include <cstdint>

#include "plrupart/cache/geometry.hpp"
#include "plrupart/cache/replacement.hpp"

namespace plrupart::power {

/// Parameters the Table I bracketed numbers assume: 16-way 2MB L2, 128B
/// lines, 2 cores, 64-bit architecture with 47 tag bits.
struct PLRUPART_EXPORT ComplexityParams {
  std::uint32_t associativity = 16;
  std::uint64_t sets = 1024;
  std::uint32_t cores = 2;
  std::uint32_t tag_bits = 47;
  std::uint32_t line_bytes = 128;

  [[nodiscard]] static ComplexityParams from_geometry(const cache::Geometry& g,
                                                      std::uint32_t cores,
                                                      std::uint32_t tag_bits = 47);
};

// --- Table I(a): storage ---------------------------------------------------

/// Replacement bits per set, no partitioning.
[[nodiscard]] PLRUPART_EXPORT std::uint64_t replacement_bits_per_set(cache::ReplacementKind kind,
                                                     std::uint32_t associativity);

/// Cache-global replacement state outside the sets (NRU replacement pointer).
[[nodiscard]] PLRUPART_EXPORT std::uint64_t replacement_global_bits(cache::ReplacementKind kind,
                                                    std::uint32_t associativity);

/// Cache-global partitioning state with the mask/vector schemes: per-core
/// owner masks (LRU/NRU: A bits per core) or BT up/down vectors (2·log2(A)
/// bits per core).
[[nodiscard]] PLRUPART_EXPORT std::uint64_t partitioning_global_bits(cache::ReplacementKind kind,
                                                     std::uint32_t associativity,
                                                     std::uint32_t cores);

/// Per-set partitioning state of the owner-counter scheme (paper §II-B.1):
/// A·log2(N) owner bits + N·log2(A) counter bits.
[[nodiscard]] PLRUPART_EXPORT std::uint64_t owner_counter_bits_per_set(std::uint32_t associativity,
                                                       std::uint32_t cores);

struct PLRUPART_EXPORT StorageBreakdown {
  std::uint64_t per_set_bits = 0;      ///< replacement bits in every set
  std::uint64_t global_bits = 0;       ///< pointer / masks / vectors
  std::uint64_t total_bits = 0;        ///< per_set * sets + global
  [[nodiscard]] double total_kib() const {
    return static_cast<double>(total_bits) / 8.0 / 1024.0;
  }
};

/// Full Table I(a) row: storage for a replacement scheme, with or without
/// mask-based partitioning.
[[nodiscard]] PLRUPART_EXPORT StorageBreakdown replacement_storage(cache::ReplacementKind kind,
                                                   const ComplexityParams& p,
                                                   bool with_partitioning);

// --- Table I(b): bits touched per event ------------------------------------

struct PLRUPART_EXPORT EventCosts {
  std::uint64_t tag_comparison = 0;          ///< A x TAG bits
  std::uint64_t update_unpartitioned = 0;    ///< worst-case position update
  std::uint64_t find_owned_lines = 0;        ///< N x A (0 where not needed)
  std::uint64_t find_victim_in_owned = 0;    ///< worst-case partitioned search
  std::uint64_t profiling_read = 0;          ///< stack-distance estimation
  std::uint64_t data_read = 0;               ///< line size in bits
};

[[nodiscard]] PLRUPART_EXPORT EventCosts event_costs(cache::ReplacementKind kind, const ComplexityParams& p);

/// The paper's ATD area figure: per-core sampled ATD storage in bits
/// (tag + valid + per-entry replacement share). 3.25KB for the baseline
/// LRU setup with 1/32 sampling.
[[nodiscard]] PLRUPART_EXPORT std::uint64_t atd_storage_bits(cache::ReplacementKind kind,
                                             const ComplexityParams& p,
                                             std::uint32_t sampling_ratio);

}  // namespace plrupart::power
