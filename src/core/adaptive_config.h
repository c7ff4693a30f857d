// AdaptiveConfig — the knobs of one adaptive column: routing mode, the
// view budget and its eviction policy, the paper's d/r tolerances, the
// materialization threshold, durability and the mapping seam. The engine
// (core/adaptive_layer.h) and its pool policy (core/view_pool.h) both read
// it.

#ifndef VMSV_CORE_ADAPTIVE_CONFIG_H_
#define VMSV_CORE_ADAPTIVE_CONFIG_H_

#include <cstddef>
#include <cstdint>

#include "storage/storage_config.h"

namespace vmsv {

class VmIo;

enum class QueryMode {
  /// Answer from the smallest single view covering the query (Figure 4).
  kSingleView,
  /// Let several views jointly cover the query, read once as the union of
  /// their pages over the base mapping (Figure 5).
  kMultiView,
};

/// What happens when a candidate arrives and the view pool is full.
enum class EvictionPolicy {
  /// Drop the candidate (the historical max_views cliff).
  kDropNewest,
  /// Evict the lowest-scoring pool member when the candidate outscores it;
  /// otherwise drop the candidate.
  kCostAware,
};

inline const char* EvictionPolicyName(EvictionPolicy policy) {
  switch (policy) {
    case EvictionPolicy::kDropNewest: return "drop_newest";
    case EvictionPolicy::kCostAware: return "cost_aware";
  }
  return "unknown";
}

/// Lifecycle policy knobs (AdaptiveConfig::lifecycle).
struct LifecycleConfig {
  /// Budget-pressure policy. kCostAware is the default: hot views survive.
  EvictionPolicy eviction_policy = EvictionPolicy::kCostAware;
  /// Hit-recency decay: a view's recency weight halves every this many
  /// queries since it last answered one. Smaller = more aggressive chasing
  /// of the current working set. Must be > 0.
  double recency_half_life = 16.0;
  /// Eviction hysteresis: a fresh (hit-less) candidate must outscore the
  /// coldest pool view by this factor before it may displace it. On a
  /// stationary workload freezing the pool is optimal — the margin (with
  /// the hit-evidence weight in EvictionScore) is what keeps cost-aware
  /// eviction from churning there, while cold views still decay below it
  /// when the working set genuinely moves. Must be > 0.
  double eviction_margin = 1.25;
};

struct AdaptiveConfig {
  QueryMode mode = QueryMode::kSingleView;
  /// Upper bound on the views of the pool, with an arena or without one.
  size_t max_views = 100;
  /// A view without an arena answers its hits by reading its member page
  /// runs over the base column's mapping; the hit it answers alone that
  /// brings its count of such hits to this threshold maps its arena
  /// (EnsureMaterialized). 1 maps at the first lone hit, as the paper's
  /// figures do. The default is where an
  /// arena's per-hit saving repays mapping and unmapping it
  /// (bench/micro_view_life.cc, EXPERIMENTS.md "When a view earns its
  /// arena"). Must be >= 1.
  uint64_t materialize_after_hits = 256;
  /// Multi-view only: pick covers by scanned-page cost and fall back to a
  /// full scan when the cover is costlier (the paper's stated future work).
  bool cost_based_routing = false;
  /// Discard a candidate whose page set exceeds an existing view's by at
  /// most this many pages (paper's d; evaluation uses 0).
  uint64_t discard_tolerance = 0;
  /// Replace an existing view whose page set exceeds the candidate's by at
  /// most this many pages (paper's r; evaluation uses 0).
  uint64_t replace_tolerance = 0;
  /// The eviction policy applied at the max_views budget
  /// (core/view_pool.h).
  LifecycleConfig lifecycle;
  /// Durability: with a persist_dir the column lives in a real file, every
  /// Update is journaled, and the views persist as ranges in two
  /// alternating manifest pool slots, so Open() restores the whole engine
  /// state after a restart (storage/storage_config.h; ARCHITECTURE.md
  /// "Durability model").
  StorageConfig storage;
  /// Address-space operation layer for every arena the column builds (base
  /// mapping, view materialization, alignment). Null means real syscalls;
  /// tests inject a FaultInjectingVmIo here. Not owned; must outlive the
  /// column (ARCHITECTURE.md "Degradation model").
  VmIo* vm_io = nullptr;
};

}  // namespace vmsv

#endif  // VMSV_CORE_ADAPTIVE_CONFIG_H_
