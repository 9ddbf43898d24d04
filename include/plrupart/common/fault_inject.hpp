// Deterministic fault injection: make every recovery path a first-class,
// replayable scenario.
//
// A FaultSpec names per-site failure probabilities (parsed from the CLI
// --fault-inject grammar); a FaultPlan binds a spec to a seed and answers,
// statelessly, whether the counter-th opportunity at a site fails. Decisions are pure functions of
// (seed, site, lane, counter), so a given (root seed, job) replays the exact
// same fault sequence on any machine and at any thread count —
// failures found in the field reproduce under a debugger, and CI can assert
// recovery behavior byte-for-byte.
//
// Sites:
//   read    ByteReader::fill() — a trace-stream read fails mid-run
//   write   journal/CSV record commit (AtomicFile) — a result write fails
//   worker  a front-end producer fails at a core's op (--sim-threads > 1);
//           lane = core, counter = the core's op index, so the schedule is
//           the same at every K, and the fault surfaces when the replay
//           reaches that op
//
// Injected faults throw InjectedFault, which fails the job exactly like a
// real I/O failure: the sweep stops with the job and the site named, and a
// journaled sweep recovers by re-running with --resume and without the fault.
#pragma once

#include "plrupart/export.hpp"

#include <array>
#include <cstdint>
#include <string>

#include "plrupart/common/assert.hpp"
#include "plrupart/common/rng.hpp"

namespace plrupart {

/// Thrown at an injected fault site, to exercise the journal/resume path.
class PLRUPART_EXPORT InjectedFault : public InvariantError {
 public:
  using InvariantError::InvariantError;
};

enum class FaultSite : std::uint8_t { kRead = 0, kWrite = 1, kWorker = 2 };

[[nodiscard]] constexpr const char* fault_site_name(FaultSite s) noexcept {
  switch (s) {
    case FaultSite::kRead: return "read";
    case FaultSite::kWrite: return "write";
    case FaultSite::kWorker: return "worker";
  }
  return "?";
}

/// Per-site failure probabilities. Value type; all-zero means "no injection".
struct PLRUPART_EXPORT FaultSpec {
  std::array<double, 3> probability{};  ///< indexed by FaultSite

  [[nodiscard]] double of(FaultSite s) const noexcept {
    return probability[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] bool any() const noexcept {
    for (const double p : probability)
      if (p > 0.0) return true;
    return false;
  }

  /// Parse the --fault-inject grammar: a comma-separated list of
  /// `<site>:<probability>` items, site in {read, write, worker}, probability
  /// a decimal in [0, 1]. Example: "read:0.002,worker:1e-5". Repeated sites,
  /// unknown sites, and out-of-range probabilities throw InvariantError.
  static FaultSpec parse(const std::string& text);
};

/// A spec bound to a seed: the deterministic oracle every instrumented site
/// consults. Immutable and stateless — safe to share across threads; callers
/// supply their own opportunity counters (and a lane id when several actors
/// of the same site run concurrently, e.g. one per simulated core).
class PLRUPART_EXPORT FaultPlan {
 public:
  FaultPlan(FaultSpec spec, std::uint64_t seed) noexcept : spec_(spec), seed_(seed) {}

  [[nodiscard]] bool armed(FaultSite s) const noexcept { return spec_.of(s) > 0.0; }
  [[nodiscard]] const FaultSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Does the `counter`-th opportunity at `site` (on `lane`) fail? Pure
  /// function of (seed, site, lane, counter): replayable anywhere.
  [[nodiscard]] bool should_fire(FaultSite site, std::uint64_t counter,
                                 std::uint64_t lane = 0) const noexcept {
    const double p = spec_.of(site);
    if (p <= 0.0) return false;
    const std::uint64_t h = derive_seed(
        derive_seed(seed_, (static_cast<std::uint64_t>(site) << 32) ^ lane), counter);
    return static_cast<double>(h >> 11) * 0x1.0p-53 < p;
  }

  /// should_fire, but throws InjectedFault naming the site and `context` when
  /// it fires. The one-liner instrumented sites call.
  void maybe_throw(FaultSite site, std::uint64_t counter, std::uint64_t lane,
                   const std::string& context) const;

 private:
  FaultSpec spec_;
  std::uint64_t seed_;
};

}  // namespace plrupart
