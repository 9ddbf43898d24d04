// Runtime dispatch-tier selection (see plrupart/cache/dispatch.hpp).
//
// kAvx2 availability is the AND of two gates: the build carries the kernels
// (PLRUPART_SIMD_AVX2, defined by CMake only when the PLRUPART_SIMD option is
// on, the target is x86-64, and the compiler takes -mavx2) and the running
// CPU reports the feature (cpuid via __builtin_cpu_supports). The active
// tier is process-wide, initialized once on first use from
// PLRUPART_FORCE_DISPATCH or best_dispatch_tier().
#include "plrupart/cache/dispatch.hpp"

#include <atomic>
#include <cstdlib>

#include "plrupart/common/assert.hpp"

namespace plrupart::cache {

std::string to_string(DispatchTier t) {
  switch (t) {
    case DispatchTier::kSwar:
      return "swar";
    case DispatchTier::kAvx2:
      return "avx2";
  }
  return "?";
}

std::optional<DispatchTier> parse_dispatch_tier(std::string_view name) {
  if (name == "swar") return DispatchTier::kSwar;
  if (name == "avx2") return DispatchTier::kAvx2;
  return std::nullopt;
}

bool dispatch_tier_available(DispatchTier t) noexcept {
  switch (t) {
    case DispatchTier::kSwar:
      return true;
    case DispatchTier::kAvx2:
#if defined(PLRUPART_SIMD_AVX2)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

DispatchTier best_dispatch_tier() noexcept {
  return dispatch_tier_available(DispatchTier::kAvx2) ? DispatchTier::kAvx2
                                                      : DispatchTier::kSwar;
}

namespace {

DispatchTier initial_tier() {
  const char* env = std::getenv("PLRUPART_FORCE_DISPATCH");
  if (env != nullptr && *env != '\0') {
    const auto forced = parse_dispatch_tier(env);
    PLRUPART_ASSERT_MSG(forced.has_value(),
                        std::string("PLRUPART_FORCE_DISPATCH: unknown tier '") + env +
                            "' (want swar|avx2)");
    PLRUPART_ASSERT_MSG(dispatch_tier_available(*forced),
                        "PLRUPART_FORCE_DISPATCH: tier '" + to_string(*forced) +
                            "' is not available in this build / on this CPU");
    return *forced;
  }
  return best_dispatch_tier();
}

std::atomic<DispatchTier>& active_tier_storage() {
  // Magic static: first caller pays the env/cpuid probe; a bad forced tier
  // throws out of that first call (and out of every later one — the static
  // is only considered initialized once initial_tier() returns).
  static std::atomic<DispatchTier> tier{initial_tier()};
  return tier;
}

}  // namespace

DispatchTier active_dispatch_tier() {
  return active_tier_storage().load(std::memory_order_relaxed);
}

void set_active_dispatch_tier(DispatchTier t) {
  PLRUPART_ASSERT_MSG(dispatch_tier_available(t),
                      "dispatch tier '" + to_string(t) +
                          "' is not available in this build / on this CPU");
  active_tier_storage().store(t, std::memory_order_relaxed);
}

}  // namespace plrupart::cache
