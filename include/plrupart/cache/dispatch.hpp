// The tag-scan tier report. The library has one tag-scan path, the portable
// SWAR scans of plrupart/common/bits.hpp, so the tier is always kSwar.
//
// This header stays only for the frozen end-to-end benchmark harness
// (bench/e2e/harness/e2e_harness.cpp), which prints
// to_string(active_dispatch_tier()) in its `info` line.
#pragma once

#include <cstdint>
#include <string>

namespace plrupart::cache {

enum class DispatchTier : std::uint8_t {
  kSwar = 1,
};

[[nodiscard]] inline std::string to_string(DispatchTier /*t*/) { return "swar"; }

[[nodiscard]] inline DispatchTier active_dispatch_tier() noexcept {
  return DispatchTier::kSwar;
}

}  // namespace plrupart::cache
