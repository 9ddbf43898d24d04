// SPEC CPU 2000 benchmark catalog (synthetic substitutes).
//
// 25 profiles covering every benchmark named in the paper's Table II. The
// parameters are not measurements; they encode each benchmark's published
// qualitative cache personality (working-set size, streaming vs. reuse,
// latency sensitivity) so that partitioning decisions face the same kinds of
// miss curves the paper's traces produced. SPEC's traces are licensed and
// cannot ship with the repo; captured traces run through --trace instead
// (README "Real trace workloads").
#pragma once

#include "plrupart/export.hpp"

#include <string>
#include <vector>

#include "plrupart/workloads/generators.hpp"

namespace plrupart::workloads {

/// All catalog entries, alphabetical by name.
[[nodiscard]] PLRUPART_EXPORT const std::vector<BenchmarkProfile>& catalog();

/// Look up one benchmark by Table II name ("perl" aliases "perlbmk").
/// Throws InvariantError for unknown names.
[[nodiscard]] PLRUPART_EXPORT const BenchmarkProfile& benchmark(const std::string& name);

[[nodiscard]] PLRUPART_EXPORT bool has_benchmark(const std::string& name);

}  // namespace plrupart::workloads
