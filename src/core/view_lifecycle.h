// ViewLifecycleManager — the eviction policy that manages partial views
// across their whole lifetime, not only at creation. The adaptive layer's
// view pool is bounded by max_views; the historical policy silently dropped
// every candidate once the pool filled ("drop-newest"), freezing the pool
// on whatever ranges arrived first. The manager instead scores pool members
// by hit-recency x creation-cost x coverage-savings and evicts the
// lowest-scoring view when a fresh candidate outscores it, so hot views
// survive and cold ones return their bitmap and mapping budget. The same
// score picks the arenas pressure relief and ReleaseColdestArenas release.
//
// Thread-safety: the manager is a passive, stateless policy object driven
// by one AdaptiveColumn's maintenance path.

#ifndef VMSV_CORE_VIEW_LIFECYCLE_H_
#define VMSV_CORE_VIEW_LIFECYCLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/virtual_view.h"

namespace vmsv {

/// What happens when a candidate arrives and the view pool is full.
enum class EvictionPolicy {
  /// Drop the candidate (the historical max_views cliff).
  kDropNewest,
  /// Evict the lowest-scoring pool member when the candidate outscores it;
  /// otherwise drop the candidate.
  kCostAware,
};

const char* EvictionPolicyName(EvictionPolicy policy);

/// Lifecycle policy knobs (AdaptiveConfig::lifecycle).
struct LifecycleConfig {
  /// Budget-pressure policy. kCostAware is the default: hot views survive.
  EvictionPolicy eviction_policy = EvictionPolicy::kCostAware;
  /// Hit-recency decay: a view's recency weight halves every this many
  /// queries since it last answered one. Smaller = more aggressive chasing
  /// of the current working set.
  double recency_half_life = 16.0;
  /// Eviction hysteresis: a fresh (hit-less) candidate must outscore the
  /// coldest pool view by this factor before it may displace it. On a
  /// stationary workload freezing the pool is optimal — the margin (with
  /// the hit-evidence weight in Score) is what keeps cost-aware eviction
  /// from churning there, while cold views still decay below it when the
  /// working set genuinely moves.
  double eviction_margin = 1.25;
};

class ViewLifecycleManager {
 public:
  explicit ViewLifecycleManager(const LifecycleConfig& config)
      : config_(config) {}

  const LifecycleConfig& config() const { return config_; }

  /// Eviction score: hit-recency × creation-cost × coverage-savings,
  /// weighted by hit evidence. Higher = more worth keeping.
  ///   recency  = 2^(-(now - last_used) / recency_half_life)
  ///   cost     = creation_scanned_pages / column_pages  (what recreating
  ///              the view would charge; ≥ a small floor so it never zeroes)
  ///   savings  = (column_pages - view_pages) / column_pages  (pages a
  ///              future hit avoids relative to a full scan)
  ///   evidence = 1 + log2(1 + hits)  (views that have proven reuse are
  ///              sticky; a hit-less candidate carries weight 1)
  /// `now` is the adaptive layer's logical query sequence number.
  double Score(const VirtualView& view, uint64_t now,
               uint64_t column_pages) const;

  /// The pool member with the lowest Score among views for which
  /// `eligible(view)` holds, or nullptr when none does. Admission's
  /// eviction takes any view; arena release takes the coldest MATERIALIZED
  /// one.
  VirtualView* PickEvictionVictim(
      const std::vector<std::unique_ptr<VirtualView>>& pool, uint64_t now,
      uint64_t column_pages,
      const std::function<bool(const VirtualView&)>& eligible) const;

 private:
  LifecycleConfig config_;
};

}  // namespace vmsv

#endif  // VMSV_CORE_VIEW_LIFECYCLE_H_
