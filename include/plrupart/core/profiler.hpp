// Per-thread profiling logic: ATD + (e)SDH.
//
// One Profiler instance exists per core. On every L2 access by that core the
// simulator calls record_access(); if the set is sampled the ATD reports a hit
// estimate or a miss, and the policy-specific subclass updates the SDH:
//
//   LruProfiler — exact stack distances (the classical scheme of [22]).
//   NruProfiler — the paper's §III-A eSDH with scaling factor S.
//   BtProfiler  — the paper's §III-B eSDH from ID/XOR/SUB on the tree bits.
#pragma once

#include "plrupart/export.hpp"

#include <cstdint>
#include <memory>
#include <string>

#include "plrupart/core/atd.hpp"
#include "plrupart/core/miss_curve.hpp"
#include "plrupart/core/sdh.hpp"

namespace plrupart::core {

class PLRUPART_EXPORT Profiler {
 public:
  Profiler(const cache::Geometry& l2_geometry, cache::ReplacementKind atd_replacement,
           std::uint32_t sampling_ratio, std::uint64_t seed)
      : atd_(l2_geometry, atd_replacement, sampling_ratio, seed),
        sdh_(l2_geometry.associativity) {}
  virtual ~Profiler() = default;

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Feed one L2 access (line-granular address) from the owner thread.
  void record_access(cache::Addr line_addr) {
    const auto obs = atd_.access(line_addr);
    if (!obs) return;  // set not sampled
    if (obs->hit)
      on_atd_hit(obs->estimate);
    else
      sdh_.record_miss();
  }

  /// Miss curve in profiled-access units; multiply by sampling_scale() for
  /// absolute L2-access units.
  [[nodiscard]] virtual MissCurve curve() const { return MissCurve::from_sdh(sdh_); }

  [[nodiscard]] double sampling_scale() const noexcept {
    return static_cast<double>(atd_.sampling_ratio());
  }

  /// Interval-boundary decay (divide every SDH register by two).
  virtual void decay() { sdh_.decay_halve(); }

  [[nodiscard]] const Sdh& sdh() const noexcept { return sdh_; }
  [[nodiscard]] const Atd& atd() const noexcept { return atd_; }
  [[nodiscard]] virtual std::string name() const = 0;

  virtual void reset() {
    atd_.reset();
    sdh_.clear();
  }

 protected:
  /// Policy-specific SDH update for a sampled ATD hit.
  virtual void on_atd_hit(const cache::StackEstimate& est) = 0;

  Atd atd_;
  Sdh sdh_;
};

/// Exact profiling on a true-LRU ATD: record the precise stack distance.
class PLRUPART_EXPORT LruProfiler final : public Profiler {
 public:
  LruProfiler(const cache::Geometry& geo, std::uint32_t sampling_ratio,
              std::uint64_t seed = 0x5eed)
      : Profiler(geo, cache::ReplacementKind::kLru, sampling_ratio, seed) {}

  [[nodiscard]] std::string name() const override { return "SDH-LRU"; }

 private:
  void on_atd_hit(const cache::StackEstimate& est) override {
    sdh_.record_hit(est.point);
  }
};

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

class PLRUPART_EXPORT NruProfiler final : public Profiler {
 public:
  NruProfiler(const cache::Geometry& geo, std::uint32_t sampling_ratio, double scale,
              NruUpdateMode mode = NruUpdateMode::kRange, std::uint64_t seed = 0x5eed);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double scale() const noexcept { return scale_; }

  [[nodiscard]] MissCurve smear_curve() const;  // only meaningful in kSmear mode
  /// In kSmear mode the decision curve is the fractional one.
  [[nodiscard]] MissCurve curve() const override {
    return mode_ == NruUpdateMode::kSmear ? smear_curve() : Profiler::curve();
  }
  void decay() override;
  void reset() override;

 private:
  void on_atd_hit(const cache::StackEstimate& est) override;

  double scale_;
  NruUpdateMode mode_;
  std::vector<double> smear_;  // fractional registers, kSmear mode only
};

/// BT eSDH: estimate = A - (ID xor path-bits); the estimate arrives fully
/// formed in StackEstimate::point from TreePlru::estimate_position.
class PLRUPART_EXPORT BtProfiler final : public Profiler {
 public:
  BtProfiler(const cache::Geometry& geo, std::uint32_t sampling_ratio,
             std::uint64_t seed = 0x5eed)
      : Profiler(geo, cache::ReplacementKind::kTreePlru, sampling_ratio, seed) {}

  [[nodiscard]] std::string name() const override { return "eSDH-BT"; }

 private:
  void on_atd_hit(const cache::StackEstimate& est) override {
    sdh_.record_hit(est.point);
  }
};

/// SRRIP eSDH (extension): the RRPV quartile estimate arrives in
/// StackEstimate::point from cache::Srrip::estimate_position; recording its
/// far edge mirrors the NRU estimator's upper-bound convention.
class PLRUPART_EXPORT SrripProfiler final : public Profiler {
 public:
  SrripProfiler(const cache::Geometry& geo, std::uint32_t sampling_ratio,
                std::uint64_t seed = 0x5eed)
      : Profiler(geo, cache::ReplacementKind::kSrrip, sampling_ratio, seed) {}

  [[nodiscard]] std::string name() const override { return "eSDH-SRRIP"; }

 private:
  void on_atd_hit(const cache::StackEstimate& est) override {
    sdh_.record_hit(est.point);
  }
};

/// Which profiler variant a partitioned-cache configuration uses.
enum class ProfilerKind : std::uint8_t {
  kAuto,      ///< match the L2 replacement policy (the paper's setups)
  kLruExact,  ///< idealized: exact LRU ATD regardless of the L2 policy
  kNru,
  kBt,
  kSrrip,     ///< extension: RRPV-quartile estimates
};

[[nodiscard]] PLRUPART_EXPORT std::unique_ptr<Profiler> make_profiler(
    ProfilerKind kind, cache::ReplacementKind l2_replacement,
    const cache::Geometry& geo, std::uint32_t sampling_ratio, double esdh_scale,
    NruUpdateMode nru_mode, std::uint64_t seed);

}  // namespace plrupart::core
