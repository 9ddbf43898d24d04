// SIMD dispatch tiers for the tag-filtering hot paths.
//
// The per-access cost of the L2/ATD lookup is dominated by equality scans over
// small arrays: the packed 1-byte partial-tag filter of SetAssocCache, the
// full-tag compare of the sampled ATD, and the SRRIP distant-line scan. All
// three are the exact shape x86 `vpcmpeqb`/`vpcmpeqq` + movemask batching
// wants: 32 lanes compared per instruction instead of 8 per SWAR word.
//
// The library ships the kernels in two tiers:
//
//   kSwar  — SWAR over uint64_t words. Always available, and the only tier
//            on non-x86-64 targets or CPUs without AVX2.
//   kAvx2  — 256-bit vpcmpeqb/vpcmpeqq + movemask. Requires the build to
//            enable PLRUPART_SIMD (on by default on x86-64 GCC/Clang) and
//            the CPU to report AVX2.
//
// Selection is runtime (cpuid), once per process: `best_dispatch_tier()` is
// the preferred available tier and seeds `active_dispatch_tier()`, which
// every cache/ATD/policy instance samples at construction. The environment
// variable `PLRUPART_FORCE_DISPATCH=swar|avx2` overrides the choice
// process-wide (it is how CI pins each path deterministically); forcing a
// tier the build or CPU cannot run fails loudly instead of silently degrading.
//
// Bit-identity contract: both tiers compute the same function — the caches'
// replacement decisions, statistics, and CSV output are byte-identical across
// tiers (proven by the GoldenEquivalence replay suite against the frozen
// reference model and the forced-dispatch CI leg), so the tier is purely a
// throughput knob.
#pragma once

#include "plrupart/export.hpp"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace plrupart::cache {

// The numeric values are the BM_CacheAccessDispatch tier arguments.
enum class DispatchTier : std::uint8_t {
  kSwar = 1,
  kAvx2 = 2,
};

[[nodiscard]] PLRUPART_EXPORT std::string to_string(DispatchTier t);

/// Parse "swar" / "avx2" (the PLRUPART_FORCE_DISPATCH spellings); nullopt
/// for anything else.
[[nodiscard]] PLRUPART_EXPORT std::optional<DispatchTier> parse_dispatch_tier(
    std::string_view name);

/// True iff this build carries the tier's kernels AND the running CPU can
/// execute them. kSwar is always available.
[[nodiscard]] PLRUPART_EXPORT bool dispatch_tier_available(DispatchTier t) noexcept;

/// Preferred available tier on this machine: kAvx2 when it can run, else
/// kSwar.
[[nodiscard]] PLRUPART_EXPORT DispatchTier best_dispatch_tier() noexcept;

/// The tier new cache/ATD/policy instances adopt. Defaults to
/// best_dispatch_tier(); PLRUPART_FORCE_DISPATCH (checked once, on first use)
/// overrides it, and set_active_dispatch_tier() overrides both. Throws
/// InvariantError if the forced tier is not available.
[[nodiscard]] PLRUPART_EXPORT DispatchTier active_dispatch_tier();

/// Force the process-wide tier (tests, benchmarks). Throws InvariantError when
/// the tier is unavailable. Only instances constructed afterwards see it.
PLRUPART_EXPORT void set_active_dispatch_tier(DispatchTier t);

}  // namespace plrupart::cache
