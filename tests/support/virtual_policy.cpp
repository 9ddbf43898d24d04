#include "virtual_policy.hpp"

#include <utility>

#include "plrupart/cache/cache.hpp"

namespace plrupart::testing {

namespace {
/// Forwards each hook to a P held by value; P's hook inlines into the
/// override, so a call through VirtualPolicy costs one indirect call.
template <class P>
class VirtualPolicyOf final : public VirtualPolicy {
 public:
  template <class... Args>
  explicit VirtualPolicyOf(Args&&... args) : p_(std::forward<Args>(args)...) {}

  void on_hit(std::uint64_t set, std::uint32_t way, WayMask allowed) override {
    p_.on_hit(set, way, allowed);
  }
  void on_fill(std::uint64_t set, std::uint32_t way, WayMask allowed) override {
    p_.on_fill(set, way, allowed);
  }
  [[nodiscard]] std::uint32_t choose_victim(std::uint64_t set, WayMask allowed) override {
    return p_.choose_victim(set, allowed);
  }
  [[nodiscard]] cache::StackEstimate estimate_position(std::uint64_t set,
                                                       std::uint32_t way) const override {
    return p_.estimate_position(set, way);
  }
  void reset() override { p_.reset(); }
  [[nodiscard]] const cache::PolicyShape& shape() const override { return p_; }

 private:
  P p_;
};
}  // namespace

std::unique_ptr<VirtualPolicy> make_virtual_policy(cache::ReplacementKind kind,
                                                   const cache::Geometry& geo,
                                                   std::uint64_t seed) {
  geo.validate();
  switch (kind) {
    case cache::ReplacementKind::kLru:
      return std::make_unique<VirtualPolicyOf<cache::TrueLru>>(geo);
    case cache::ReplacementKind::kNru:
      return std::make_unique<VirtualPolicyOf<cache::Nru>>(geo);
    case cache::ReplacementKind::kTreePlru:
      return std::make_unique<VirtualPolicyOf<cache::TreePlru>>(geo);
    case cache::ReplacementKind::kRandom:
      return std::make_unique<VirtualPolicyOf<cache::RandomRepl>>(geo, seed);
    case cache::ReplacementKind::kSrrip:
      break;
  }
  PLRUPART_ASSERT_MSG(kind == cache::ReplacementKind::kSrrip, "unknown replacement kind");
  return std::make_unique<VirtualPolicyOf<cache::Srrip>>(geo);
}

}  // namespace plrupart::testing
