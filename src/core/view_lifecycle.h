// ViewLifecycleManager — the policy layer that manages partial views across
// their WHOLE lifetime, not only at creation (ROADMAP: the two perf items
// after the scan engine). Two mechanisms:
//
//   1. Compaction. Membership churn punches PROT_NONE holes into a view's
//      arena (core/virtual_view.h); fragmented views scan run-wise, breaking
//      the dense sweeps the rewiring exists for. When a view's
//      slot-run-count/page-count ratio crosses a configurable threshold, the
//      manager collapses its live runs into a dense virtual range with
//      mremap(2) — page-table entries move, no data is copied, no refaults
//      follow. Where mremap is unavailable (or forced off for tests) the
//      rewire-remap fallback produces the same dense layout at refault cost.
//
//   2. Cost-aware eviction. The adaptive layer's view pool is bounded by
//      max_views; the historical policy silently dropped every candidate
//      once the pool filled ("drop-newest"), freezing the pool on whatever
//      ranges arrived first. The manager instead scores pool members by
//      hit-recency × creation-cost × coverage-savings and evicts the
//      lowest-scoring view when a fresh candidate outscores it, so hot views
//      survive and cold ones return their slot table and mapping budget.
//
// Thread-safety: the manager is a passive policy object driven by one
// AdaptiveColumn; it is not internally synchronized. Compaction must not
// run concurrently with scans of the same view (the adaptive layer
// sequences both).

#ifndef VMSV_CORE_VIEW_LIFECYCLE_H_
#define VMSV_CORE_VIEW_LIFECYCLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/virtual_view.h"
#include "util/status.h"

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
  /// Compact a view when num_slot_runs / num_pages exceeds this ratio ...
  double compaction_run_ratio = 0.25;
  /// ... and the view has at least this many slot runs (tiny views are not
  /// worth a syscall burst, fragmented or not).
  uint64_t compaction_min_runs = 16;
  /// Second trigger, for views that are slot-DENSE but file-SCATTERED (e.g.
  /// membership grown out of page order by update alignment): when a
  /// hole-free view's file-run count exceeds this ratio × num_pages (and at
  /// least compaction_min_runs), a sort-only compaction consolidates its
  /// kernel VMAs. Fires only when sorting would actually reduce the file-run
  /// count — an inherently scattered page SET (e.g. every other column
  /// page) cannot be consolidated and is left alone. 0 disables.
  double sort_compaction_file_run_ratio = 0.5;
  /// How Compact moves runs (mremap vs forced rewire fallback).
  ViewCompactionOptions compaction;
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

/// Cumulative lifecycle counters (one manager = one AdaptiveColumn).
/// Mutated only from the adaptive layer's serialized maintenance path;
/// read them after the workload (or from that same path), not concurrently.
struct LifecycleStats {
  uint64_t compactions = 0;
  /// Subset of `compactions` triggered on hole-free views purely to
  /// consolidate scattered file runs (the sort-only trigger).
  uint64_t sort_compactions = 0;
  uint64_t compaction_mremap_moves = 0;
  uint64_t compaction_remap_moves = 0;
  uint64_t holes_reclaimed = 0;
  /// Sum over compactions of (slot_runs_before - slot_runs_after).
  uint64_t slot_runs_collapsed = 0;
  /// Compactions that failed mid-way (mapping-layer errors). Per the
  /// Compact error contract the view was discarded or rebuilt by the
  /// trigger site.
  uint64_t failed_compactions = 0;
  uint64_t evictions = 0;
};

class ViewLifecycleManager {
 public:
  explicit ViewLifecycleManager(const LifecycleConfig& config)
      : config_(config) {}

  const LifecycleConfig& config() const { return config_; }
  const LifecycleStats& stats() const { return stats_; }

  /// True when `view` is materialized and either fragmented past the
  /// run-ratio threshold, or hole-free but file-scattered past the
  /// sort-compaction threshold — the two compaction triggers.
  bool ShouldCompact(const VirtualView& view) const;

  /// The sort-only half of ShouldCompact: hole-free, file-scattered past
  /// sort_compaction_file_run_ratio, and sorting would actually consolidate.
  bool ShouldSortCompact(const VirtualView& view) const;

  /// Compacts one view with the configured options, folding the outcome
  /// into stats(). `retired_arena` non-null receives the superseded arena
  /// for epoch-deferred destruction (see VirtualView::Compact).
  /// Error contract: forwards VirtualView::Compact failures —
  /// the caller must then discard or rebuild the view (see the trigger
  /// sites in AdaptiveColumn::Execute and VirtualViewIndex::ApplyUpdate).
  Status CompactView(VirtualView* view,
                     std::unique_ptr<VirtualArena>* retired_arena = nullptr);

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

  /// Bookkeeping hook for the adaptive layer when it evicts the victim.
  void RecordEviction() { ++stats_.evictions; }

 private:
  LifecycleConfig config_;
  LifecycleStats stats_;
};

}  // namespace vmsv

#endif  // VMSV_CORE_VIEW_LIFECYCLE_H_
