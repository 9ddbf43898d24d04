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

#include "plrupart/cache/lru.hpp"
#include "plrupart/cache/nru.hpp"
#include "plrupart/cache/random_repl.hpp"
#include "plrupart/cache/replacement.hpp"
#include "plrupart/cache/srrip.hpp"
#include "plrupart/cache/tree_plru.hpp"

namespace plrupart::cache {

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
