// qos_colocation: protecting a latency-critical tenant with the QoS policy.
//
// Scenario from the paper's QoS discussion (§VI, FlexDCP/VPC line of work):
// a latency-critical service (cache-sensitive) is co-located with batch jobs
// (streaming/thrashing). Compare three L2 managements:
//
//   1. unpartitioned pseudo-LRU  — batch traffic tramples the service;
//   2. MinMisses                 — best total throughput, no guarantees;
//   3. QoS(core 0, factor f)     — the service's misses are capped at f x its
//                                  full-cache miss count, the rest is
//                                  MinMisses-distributed among the batch jobs.
//
//   $ qos_colocation [--factor 1.1] [--instr 1000000] [--service twolf]
#include <cstdio>

#include "common/cli.hpp"
#include "plrupart/core/qos.hpp"
#include "plrupart/sim/cmp_simulator.hpp"
#include "plrupart/workloads/catalog.hpp"
#include "plrupart/workloads/generators.hpp"

using namespace plrupart;

namespace {

struct Setup {
  std::string service = "twolf";
  std::vector<std::string> batch{"art", "mcf", "swim"};
  std::uint64_t instr = 1'000'000;
  double factor = 1.1;
};

sim::SimResult run_one(const Setup& s, const char* label, bool partitioned,
                       core::IntervalController::DecideFn decide =
                           core::min_misses_optimal) {
  sim::SimConfig cfg;
  cfg.hierarchy.l1d =
      cache::Geometry{.size_bytes = 32 * 1024, .associativity = 2, .line_bytes = 128};
  cfg.hierarchy.l2 = core::CpaConfig::from_acronym(partitioned ? "M-0.75N" : "NOPART-N",
                                                   static_cast<std::uint32_t>(
                                                       1 + s.batch.size()),
                                                   cache::paper_l2_geometry());
  cfg.hierarchy.l2.decide = std::move(decide);
  cfg.instr_limit = s.instr;
  cfg.warmup_instr = s.instr / 2;

  std::vector<std::unique_ptr<sim::TraceSource>> traces;
  const auto& svc = workloads::benchmark(s.service);
  cfg.cores.push_back(svc.core);
  traces.push_back(workloads::make_trace(svc, 0, 11));
  for (std::uint32_t i = 0; i < s.batch.size(); ++i) {
    const auto& prof = workloads::benchmark(s.batch[i]);
    cfg.cores.push_back(prof.core);
    traces.push_back(workloads::make_trace(prof, i + 1, 11));
  }

  sim::CmpSimulator sim(std::move(cfg), std::move(traces));
  const auto r = sim.run();

  double batch_ipc = 0.0;
  for (std::size_t i = 1; i < r.threads.size(); ++i) batch_ipc += r.threads[i].ipc;
  std::printf("%-24s %13.3f %15.2f%% %12.3f %12.3f\n", label, r.threads[0].ipc,
              100.0 * static_cast<double>(r.threads[0].mem.l2_misses) /
                  static_cast<double>(std::max<std::uint64_t>(1,
                                                              r.threads[0].mem.l2_accesses)),
              batch_ipc, r.throughput());
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  Setup s;
  s.service = cli.get_string("--service", "twolf");
  s.instr = static_cast<std::uint64_t>(cli.get_int("--instr", 1'000'000));
  s.factor = cli.get_double("--factor", 1.1);

  std::printf("QoS co-location: %s (service, core 0) vs %zu batch thrashers on a\n"
              "shared 2MB L2 with NRU replacement (M-0.75N substrate)\n\n",
              s.service.c_str(), s.batch.size());
  std::printf("%-24s %13s %16s %12s %12s\n", "policy", "service IPC",
              "service L2 miss", "batch IPC", "throughput");

  const auto unprotected = run_one(s, "unpartitioned", false);
  const auto minmisses = run_one(s, "MinMisses", true);
  char qos_label[64];
  std::snprintf(qos_label, sizeof qos_label, "QoS(factor %.2f)", s.factor);
  const core::QosTarget target{.core = 0, .factor = s.factor};
  const auto qos = run_one(s, qos_label, true,
                           [target](const std::vector<core::MissCurve>& curves,
                                    std::uint32_t ways) {
                             return core::qos_partition(curves, ways, target);
                           });

  std::printf("\nservice speedup vs unpartitioned: MinMisses %+.1f%%, QoS %+.1f%%\n",
              100.0 * (minmisses.threads[0].ipc / unprotected.threads[0].ipc - 1.0),
              100.0 * (qos.threads[0].ipc / unprotected.threads[0].ipc - 1.0));
  return 0;
}
