// Per-thread profiling logic: ATD + (e)SDH.
//
// One Profiler instance exists per core. On every L2 access by that core the
// simulator calls record_access(); if the set is sampled the ATD reports a hit
// estimate or a miss, and the profiler updates the SDH. The ATD runs the L2's
// own replacement policy, so the policy decides what a hit records:
//
//   LRU   — the exact stack distance (the classical SDH of [22]).
//   NRU   — the paper's §III-A eSDH: registers r1..r_ceil(S*U).
//   BT    — the paper's §III-B eSDH from ID/XOR/SUB on the tree bits.
//   SRRIP — (extension) the far edge of the line's RRPV quartile.
//
// Every policy but NRU delivers its estimate fully formed in
// StackEstimate::point, so only NRU needs a rule of its own.
#pragma once

#include "plrupart/export.hpp"

#include <cstdint>
#include <string>
#include <vector>

#include "plrupart/core/atd.hpp"
#include "plrupart/core/miss_curve.hpp"
#include "plrupart/core/sdh.hpp"

namespace plrupart::core {

/// How the NRU eSDH turns the [1, U] estimate interval into register updates.
enum class NruUpdateMode : std::uint8_t {
  /// Paper rule ("we increase both SDH registers r1 and r2, assuming the
  /// stack distance to be 2"): increment every register r1..r_ceil(S*U).
  /// Viewed through misses_with_ways, this spreads one unit of marginal
  /// utility across each of the first ceil(S*U) ways.
  kRange,
  /// Ablation: one increment at ceil(S * U) only — concentrates the entire
  /// utility at the interval's endpoint.
  kPoint,
  /// Ablation: spread 1/U weight over r1..rU (kept in an idealized
  /// fractional side histogram that integer SDH registers could not hold, so
  /// this mode has no hardware counterpart).
  kSmear,
  /// Ablation for the used-bit==0 case: like kRange, but also record
  /// distance A when the used bit is 0 (the paper records nothing).
  kPointRecordUnused,
};

class PLRUPART_EXPORT Profiler {
 public:
  /// `esdh_scale` (S, in (0, 1]) and `nru_mode` apply to an NRU ATD only.
  Profiler(const cache::Geometry& l2_geometry, cache::ReplacementKind atd_replacement,
           std::uint32_t sampling_ratio, double esdh_scale = 1.0,
           NruUpdateMode nru_mode = NruUpdateMode::kRange);

  /// Feed one L2 access (line-granular address) from the owner thread.
  void record_access(cache::Addr line_addr) {
    const auto obs = atd_.access(line_addr);
    if (!obs) return;  // set not sampled
    if (!obs->hit)
      sdh_.record_miss();
    else if (kind_ == cache::ReplacementKind::kNru)
      record_nru_hit(obs->estimate);
    else
      sdh_.record_hit(obs->estimate.point);
  }

  /// Miss curve in profiled-access units (multiply by the ATD's sampling
  /// ratio for absolute L2-access units). In kSmear mode it is the
  /// fractional one.
  [[nodiscard]] MissCurve curve() const;

  /// Interval-boundary decay (divide every SDH register by two).
  void decay();

  [[nodiscard]] const Sdh& sdh() const noexcept { return sdh_; }
  [[nodiscard]] const Atd& atd() const noexcept { return atd_; }
  /// "SDH-LRU", "eSDH-NRU(S=<scale>)", "eSDH-BT" or "eSDH-SRRIP".
  [[nodiscard]] std::string name() const;

 private:
  /// Paper §III-A: the used bit bounds the distance to [1, U] or [U+1, A].
  void record_nru_hit(const cache::StackEstimate& est);

  Atd atd_;
  Sdh sdh_;
  cache::ReplacementKind kind_;
  double scale_;
  NruUpdateMode nru_mode_;
  std::vector<double> smear_;  // fractional registers, NRU kSmear mode only
};

}  // namespace plrupart::core
