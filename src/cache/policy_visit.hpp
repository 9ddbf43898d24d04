// Static dispatch over the closed set of replacement policies.
//
// The virtual ReplacementPolicy interface stays the stable public seam for
// tests, tools and profilers, but paying a virtual call (and losing inlining)
// for every on_hit/on_fill/choose_victim/estimate_position on the simulation
// hot path is the single largest per-access cost. Every shipped policy is
// `final`, so downcasting once per access and calling through the concrete
// type devirtualizes and inlines the whole policy update into the caller —
// `visit_policy` is the one place that downcast lives.
//
// The kind is passed in by the caller (caches cache it at construction)
// instead of read from the virtual `kind()` so the dispatch itself is a plain
// switch on a register value.
#pragma once

#include <cstdint>
#include <type_traits>

#include "cache/simd/simd_kernels.hpp"
#include "plrupart/cache/dispatch.hpp"
#include "plrupart/cache/lru.hpp"
#include "plrupart/cache/nru.hpp"
#include "plrupart/cache/random_repl.hpp"
#include "plrupart/cache/replacement.hpp"
#include "plrupart/cache/srrip.hpp"
#include "plrupart/cache/tree_plru.hpp"

namespace plrupart::cache {

/// Victim selection pinned to SIMD dispatch tier `D`: policies whose victim
/// scan has a vector kernel (SRRIP's distant-line byte scan) route it through
/// the tier's kernel via Srrip::choose_victim_scan; everything else — and the
/// portable kSwar tier — takes the policy's plain choose_victim, unchanged.
/// Bit-identical across tiers: the scan kernels compute the same match mask,
/// so the same victim is picked (asserted by the GoldenEquivalence matrix).
/// The kAvx2 branch holds intrinsics and may only be instantiated from the TU
/// compiled with -mavx2 (src/cache/simd/access_avx2.cpp).
template <DispatchTier D, class Policy>
std::uint32_t choose_victim_dispatch(Policy& pol, std::uint64_t set, WayMask allowed) {
#if defined(__AVX2__)
  if constexpr (std::is_same_v<Policy, Srrip> && D == DispatchTier::kAvx2) {
    return pol.choose_victim_scan(
        set, allowed, [](const std::uint8_t* v, std::uint32_t n, std::uint8_t needle) {
          return simd::byte_match_avx2_impl(v, n, needle);
        });
  }
#endif
  return pol.choose_victim(set, allowed);
}

/// Invoke `fn` with `policy` downcast to its concrete type. `kind` must match
/// the policy's actual kind — callers assert that once at construction, not
/// per access; all branches must return the same type.
template <class Fn>
decltype(auto) visit_policy(ReplacementKind kind, ReplacementPolicy& policy, Fn&& fn) {
  switch (kind) {
    case ReplacementKind::kLru:
      return fn(static_cast<TrueLru&>(policy));
    case ReplacementKind::kNru:
      return fn(static_cast<Nru&>(policy));
    case ReplacementKind::kTreePlru:
      return fn(static_cast<TreePlru&>(policy));
    case ReplacementKind::kRandom:
      return fn(static_cast<RandomRepl&>(policy));
    case ReplacementKind::kSrrip:
      return fn(static_cast<Srrip&>(policy));
  }
  PLRUPART_ASSERT_MSG(false, "unknown replacement kind");
  return fn(static_cast<TrueLru&>(policy));  // unreachable; keeps the compiler happy
}

}  // namespace plrupart::cache
