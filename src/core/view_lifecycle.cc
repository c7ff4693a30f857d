#include "core/view_lifecycle.h"

#include <algorithm>
#include <cmath>

namespace vmsv {

const char* EvictionPolicyName(EvictionPolicy policy) {
  switch (policy) {
    case EvictionPolicy::kDropNewest: return "drop_newest";
    case EvictionPolicy::kCostAware: return "cost_aware";
  }
  return "unknown";
}

double ViewLifecycleManager::Score(const VirtualView& view, uint64_t now,
                                   uint64_t column_pages) const {
  const uint64_t last = view.usage().last_used_query;
  const double age = now > last ? static_cast<double>(now - last) : 0.0;
  const double half_life =
      config_.recency_half_life > 0 ? config_.recency_half_life : 1.0;
  const double recency = std::exp2(-age / half_life);
  const double pages = static_cast<double>(column_pages > 0 ? column_pages : 1);
  // Floor the cost factor: a view created from a cheap (e.g. covered) scan
  // still carries some recreation cost, and a zero factor would make every
  // other signal irrelevant.
  const double cost = std::max(
      0.0625, static_cast<double>(view.usage().creation_scanned_pages) / pages);
  const double savings =
      view.num_pages() >= column_pages
          ? 0.0
          : static_cast<double>(column_pages - view.num_pages()) / pages;
  const double evidence =
      1.0 + std::log2(1.0 + static_cast<double>(view.usage().hits));
  return recency * cost * savings * evidence;
}

VirtualView* ViewLifecycleManager::PickEvictionVictim(
    const std::vector<std::unique_ptr<VirtualView>>& pool, uint64_t now,
    uint64_t column_pages,
    const std::function<bool(const VirtualView&)>& eligible) const {
  VirtualView* victim = nullptr;
  double victim_score = 0;
  for (const auto& view : pool) {
    if (!eligible(*view)) continue;
    const double score = Score(*view, now, column_pages);
    if (victim == nullptr || score < victim_score) {
      victim = view.get();
      victim_score = score;
    }
  }
  return victim;
}

}  // namespace vmsv
