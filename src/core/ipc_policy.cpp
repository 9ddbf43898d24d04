#include "plrupart/core/ipc_policy.hpp"

namespace plrupart::core {

void IpcModel::validate() const {
  PLRUPART_ASSERT(instr_per_l2_access > 0.0);
  PLRUPART_ASSERT(base_ipc > 0.0);
  PLRUPART_ASSERT(l2_hit_penalty >= 0.0 && mem_penalty >= 0.0);
  PLRUPART_ASSERT(stall_fraction >= 0.0 && stall_fraction <= 1.0);
}

double IpcModel::predicted_ipc(const MissCurve& curve, std::uint32_t ways) const {
  const double accesses = curve.accesses();
  if (accesses <= 0.0) return base_ipc;  // no L2 traffic observed: core-bound
  const double misses = curve.misses(ways);
  const double hits = accesses - misses;
  const double instructions = accesses * instr_per_l2_access;
  // Same accounting as sim::CoreModel: issue cycles plus the exposed slice of
  // each L2-hit / memory penalty.
  const double cycles = instructions / base_ipc +
                        hits * l2_hit_penalty * stall_fraction +
                        misses * mem_penalty * stall_fraction;
  return instructions / cycles;
}

std::string to_string(IpcObjective o) {
  switch (o) {
    case IpcObjective::kThroughput:
      return "throughput";
    case IpcObjective::kWeightedSpeedup:
      return "weighted-speedup";
    case IpcObjective::kHarmonicMean:
      return "harmonic-mean";
  }
  return "?";
}

Partition ipc_partition(const std::vector<MissCurve>& curves, std::uint32_t total_ways,
                        const std::vector<IpcModel>& models, IpcObjective objective) {
  PLRUPART_ASSERT_MSG(curves.size() == models.size(),
                      "curve count must match the IPC models");
  for (const auto& m : models) m.validate();
  // The additive per-thread cost the DP minimizes (lower = better).
  const auto cost = [&](std::uint32_t core, std::uint32_t ways) {
    const IpcModel& m = models[core];
    const MissCurve& curve = curves[core];
    const double ipc = m.predicted_ipc(curve, ways);
    switch (objective) {
      case IpcObjective::kThroughput:
        return -ipc;
      case IpcObjective::kWeightedSpeedup:
        return -ipc / m.predicted_ipc(curve, curve.max_ways());
      case IpcObjective::kHarmonicMean:
        // Maximizing N / sum(iso/ipc) == minimizing sum(iso/ipc).
        return m.predicted_ipc(curve, curve.max_ways()) / ipc;
    }
    return 0.0;
  };
  return min_cost_partition(static_cast<std::uint32_t>(curves.size()), total_ways, cost);
}

}  // namespace plrupart::core
