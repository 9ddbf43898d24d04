#include "plrupart/workloads/generators.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

namespace plrupart::workloads {

namespace {
constexpr std::uint64_t kLineBytes = 128;  // matches the paper's line size

[[nodiscard]] std::uint64_t align_up(std::uint64_t v, std::uint64_t a) {
  return (v + a - 1) / a * a;
}
}  // namespace

SyntheticTrace::SyntheticTrace(BenchmarkProfile profile, std::uint64_t base_addr,
                               std::uint64_t seed)
    : profile_(std::move(profile)), base_addr_(base_addr), rng_(seed) {
  PLRUPART_ASSERT_MSG(!profile_.components.empty(), "profile needs >= 1 component");
  PLRUPART_ASSERT(profile_.mem_fraction > 0.0 && profile_.mem_fraction <= 1.0);
  PLRUPART_ASSERT(profile_.write_fraction >= 0.0 && profile_.write_fraction <= 1.0);
  profile_.core.validate();

  PLRUPART_ASSERT(profile_.l1_fraction >= 0.0 && profile_.l1_fraction < 1.0);
  mean_gap_ = (1.0 - profile_.mem_fraction) / profile_.mem_fraction;

  // Carve disjoint, line-aligned sub-regions: the L1 scratch region first,
  // then the components.
  std::uint64_t offset = 0;
  if (profile_.l1_fraction > 0.0) {
    PLRUPART_ASSERT(profile_.l1_region_bytes >= kLineBytes);
    offset = align_up(profile_.l1_region_bytes, kLineBytes);
  }
  for (const auto& c : profile_.components) {
    PLRUPART_ASSERT_MSG(c.region_bytes >= kLineBytes, "component region below one line");
    PLRUPART_ASSERT(c.weight > 0.0);
    bases_.push_back(base_addr_ + offset);
    offset += align_up(c.region_bytes, kLineBytes);
    total_weight_ += c.weight;
    // A scan visits line (k * stride) mod lines at its k-th access; the
    // cursor advances by the stride reduced mod lines and wraps by one
    // subtraction instead of a modulo per access.
    Cursor cur;
    cur.lines = c.region_bytes / kLineBytes;
    const std::uint64_t stride_lines =
        c.kind == PatternKind::kStridedLoop
            ? std::max<std::uint64_t>(1, c.stride_bytes / kLineBytes)
            : 1;
    cur.step = stride_lines % cur.lines;
    cursors_.push_back(cur);
  }
  phase_left_ = profile_.phase_period_ops;
}

std::size_t SyntheticTrace::pick_component() {
  const std::size_t n = profile_.components.size();
  if (n == 1) return 0;
  // Phase behavior: rotate which component each weight applies to, so the
  // dominant working set changes across phases. rot_ == phase() % n.
  double r = rng_.next_double() * total_weight_;
  std::size_t j = rot_;
  for (std::size_t i = 0; i < n; ++i) {
    const double w = profile_.components[j].weight;
    if (r < w) return i;
    r -= w;
    if (++j == n) j = 0;
  }
  return n - 1;
}

cache::Addr SyntheticTrace::component_address(std::size_t idx) {
  const ComponentSpec& c = profile_.components[idx];
  Cursor& cur = cursors_[idx];
  std::uint64_t line_off = 0;
  switch (c.kind) {
    case PatternKind::kSequentialStream:
    case PatternKind::kStridedLoop: {
      line_off = cur.pos;
      cur.pos += cur.step;
      if (cur.pos >= cur.lines) cur.pos -= cur.lines;
      break;
    }
    case PatternKind::kRandomRegion:
    case PatternKind::kPointerChase: {
      if (c.skew == 1.0) {
        line_off = rng_.next_below(cur.lines);
      } else {
        const double u = rng_.next_double();
        line_off = static_cast<std::uint64_t>(static_cast<double>(cur.lines) *
                                              std::pow(u, c.skew));
        if (line_off >= cur.lines) line_off = cur.lines - 1;
      }
      break;
    }
  }
  return bases_[idx] + line_off * kLineBytes;
}

sim::MemOp SyntheticTrace::next() {
  sim::MemOp op;
  // Deterministic fractional pacing of non-memory instructions: on average
  // (1 - f) / f gap instructions per memory op.
  gap_carry_ += mean_gap_;
  op.gap_instrs = static_cast<std::uint32_t>(gap_carry_);
  gap_carry_ -= op.gap_instrs;

  if (profile_.l1_fraction > 0.0 && rng_.next_bool(profile_.l1_fraction)) {
    const std::uint64_t lines = profile_.l1_region_bytes / kLineBytes;
    op.addr = base_addr_ + rng_.next_below(lines) * kLineBytes;
  } else {
    const std::size_t idx = pick_component();
    op.addr = component_address(idx);
  }
  op.write = rng_.next_bool(profile_.write_fraction);
  ++ops_;
  if (phase_left_ != 0 && --phase_left_ == 0) {
    phase_left_ = profile_.phase_period_ops;
    if (++rot_ == profile_.components.size()) rot_ = 0;
  }
  return op;
}

std::unique_ptr<SyntheticTrace> make_trace(const BenchmarkProfile& profile,
                                           std::uint32_t core_id, std::uint64_t seed) {
  // 1 TiB per thread keeps address spaces disjoint at any modeled cache size.
  const std::uint64_t base = (static_cast<std::uint64_t>(core_id) + 1) << 40;
  return std::make_unique<SyntheticTrace>(profile, base, derive_seed(seed, core_id));
}

}  // namespace plrupart::workloads
