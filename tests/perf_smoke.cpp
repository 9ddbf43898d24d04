// Tier-1 throughput smoke gate for the cache access hot paths.
//
// L2 leg: replays identical pre-generated streams through the optimized
// SetAssocCache and the frozen pre-refactor ReferenceCache (virtual dispatch
// + AoS lines, tests/support/reference_cache.hpp) in the same process, and
// requires the optimized path to keep a comfortable lead for the two
// pseudo-LRU policies the paper centres on, at 16 and 32 ways.
//
// The measured refactor advantage is ~1.6-2.7x; the gate only demands
// 1.25x, so ordinary machine noise passes and a large hot-path regression
// fails tier-1 instead of waiting for a human to rerun the benchmarks. A
// small one can pass: the reference's three per-access divisions (its
// address split) put BT 16-way at a median 1.28x and fail about a third of
// runs, and a single `%` for the set index is not seen. Both sides run
// under the same load: each rep times the two sides one pass at a time, in
// turn, with the side that goes first alternating by rep, so a burst of
// host speed or contention lands on both; the gate takes each side's best
// rep of three.
//
// L1 leg: the private-L1 LruFilter against a 2-way true-LRU SetAssocCache
// (the general cache it replaced in MemoryHierarchy) on a stream with about
// 50% hits. It measures ~10x; the gate demands 3x and equal hit counts.
#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

#include "plrupart/cache/cache.hpp"
#include "plrupart/cache/lru_filter.hpp"
#include "plrupart/common/rng.hpp"
#include "support/reference_cache.hpp"

using namespace plrupart;

namespace {

constexpr double kRequiredSpeedup = 1.25;
constexpr double kRequiredL1Speedup = 3.0;
constexpr std::size_t kStream = 1 << 16;
constexpr int kPasses = 6;  // per rep and side: ~400k accesses in 6 slices
constexpr int kReps = 3;    // best-of

struct Stream {
  std::vector<cache::Addr> addr;
  std::vector<cache::CoreId> core;
};

Stream make_stream(const cache::Geometry& geo) {
  Stream s;
  s.addr.resize(kStream);
  s.core.resize(kStream);
  Rng rng(3);
  for (std::size_t i = 0; i < kStream; ++i) {
    s.addr[i] = rng.next_below(32 * geo.lines()) * geo.line_bytes;
    s.core[i] = static_cast<cache::CoreId>(i & 1);
  }
  return s;
}

/// Seconds each side takes for kPasses slices, run one slice at a time in
/// turn; rep parity picks the side that goes first.
template <class SliceA, class SliceB>
std::pair<double, double> time_interleaved(int rep, SliceA slice_a, SliceB slice_b) {
  double a = 0.0;
  double b = 0.0;
  for (int pass = 0; pass < kPasses; ++pass) {
    if (rep % 2 == 0) {
      a += slice_a();
      b += slice_b();
    } else {
      b += slice_b();
      a += slice_a();
    }
  }
  return {a, b};
}

/// Seconds for one pass of the stream through `c`.
template <class Cache>
double measure_seconds(Cache& c, const Stream& s) {
  std::uint64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kStream; ++i) {
    sink += c.access(s.core[i], s.addr[i], false).way;
  }
  const auto t1 = std::chrono::steady_clock::now();
  // Keep the accumulated way sum observable so the loop cannot be elided.
  if (sink == 0xdeadbeef) std::printf("(unreachable %llu)\n",
                                      static_cast<unsigned long long>(sink));
  return std::chrono::duration<double>(t1 - t0).count();
}

bool check(cache::ReplacementKind kind, std::uint32_t ways) {
  const cache::Geometry geo{.size_bytes = 1024ULL * ways * 128,
                            .associativity = ways, .line_bytes = 128};
  const Stream s = make_stream(geo);

  double best_opt = 1e30;
  double best_ref = 1e30;
  for (int rep = 0; rep < kReps; ++rep) {
    cache::SetAssocCache opt(geo, kind, 2, cache::EnforcementMode::kWayMasks);
    opt.set_way_mask(0, way_range_mask(0, ways / 2));
    opt.set_way_mask(1, way_range_mask(ways / 2, ways / 2));
    testing::ReferenceCache ref(geo, kind, 2, cache::EnforcementMode::kWayMasks);
    ref.set_way_mask(0, way_range_mask(0, ways / 2));
    ref.set_way_mask(1, way_range_mask(ways / 2, ways / 2));
    const auto [t_opt, t_ref] =
        time_interleaved(rep, [&] { return measure_seconds(opt, s); },
                         [&] { return measure_seconds(ref, s); });
    if (t_opt < best_opt) best_opt = t_opt;
    if (t_ref < best_ref) best_ref = t_ref;
  }

  const double accesses = static_cast<double>(kStream) * kPasses;
  const double speedup = best_ref / best_opt;
  const bool ok = speedup >= kRequiredSpeedup;
  std::printf("%-6s %2u-way: optimized %7.2f M acc/s, reference %7.2f M acc/s, "
              "speedup %.2fx (need >= %.2fx) %s\n",
              to_string(kind).c_str(), ways, accesses / best_opt / 1e6,
              accesses / best_ref / 1e6, speedup, kRequiredSpeedup,
              ok ? "OK" : "FAIL");
  return ok;
}

/// Seconds for one replay of `addr` through `hit(addr) -> bool`; the hits
/// are added to `hits` (which also keeps the loop observable).
template <class HitFn>
double time_hits(HitFn hit, const std::vector<cache::Addr>& addr, std::uint64_t& hits) {
  const auto t0 = std::chrono::steady_clock::now();
  for (const cache::Addr a : addr) hits += hit(a) ? 1 : 0;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

bool check_l1() {
  const cache::Geometry geo{.size_bytes = 32 * 1024, .associativity = 2, .line_bytes = 128};
  // Uniform over twice the L1's lines: about half the accesses hit.
  std::vector<cache::Addr> addr(kStream);
  Rng rng(5);
  for (auto& a : addr) a = rng.next_below(2 * geo.lines()) * geo.line_bytes;

  double best_filter = 1e30;
  double best_general = 1e30;
  std::uint64_t hits_filter = 0;
  std::uint64_t hits_general = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    cache::SetAssocCache general(geo, cache::ReplacementKind::kLru, 1,
                                 cache::EnforcementMode::kNone);
    cache::LruFilter filter(geo);
    hits_filter = 0;
    hits_general = 0;
    const auto filter_hit = [&](cache::Addr a) { return filter.access(a); };
    const auto general_hit = [&](cache::Addr a) { return general.access(0, a, false).hit; };
    const auto [t_filter, t_general] =
        time_interleaved(rep, [&] { return time_hits(filter_hit, addr, hits_filter); },
                         [&] { return time_hits(general_hit, addr, hits_general); });
    if (t_general < best_general) best_general = t_general;
    if (t_filter < best_filter) best_filter = t_filter;
  }

  const double accesses = static_cast<double>(kStream) * kPasses;
  const double speedup = best_general / best_filter;
  const bool same = hits_filter == hits_general;
  const bool ok = speedup >= kRequiredL1Speedup && same;
  std::printf("L1 LRU  2-way: LruFilter %7.2f M acc/s, SetAssocCache %7.2f M acc/s, "
              "speedup %.2fx (need >= %.2fx), hit ratio %.2f%s %s\n",
              accesses / best_filter / 1e6, accesses / best_general / 1e6, speedup,
              kRequiredL1Speedup, static_cast<double>(hits_filter) / accesses,
              same ? "" : " (hit counts differ)", ok ? "OK" : "FAIL");
  return ok;
}

}  // namespace

int main() {
  bool ok = true;
  for (const auto kind : {cache::ReplacementKind::kNru, cache::ReplacementKind::kTreePlru}) {
    for (const std::uint32_t ways : {16U, 32U}) ok &= check(kind, ways);
  }
  ok &= check_l1();
  if (!ok) {
    std::printf("perf smoke gate FAILED: an optimized access path lost its lead "
                "over the implementation it replaced\n");
    return 1;
  }
  std::printf("perf smoke gate OK\n");
  return 0;
}
