// PartialViewIndex — the pool of partial views and every decision over it
// (paper §2.2, Listing 1): routing a query to the views that cover it, the
// insert/discard/replace/evict decision on a candidate, and the
// coldest-first victim order that eviction and arena release share.
//
// The pool is bounded by max_views. The historical policy silently dropped
// every candidate once the pool filled ("drop-newest"), freezing the pool
// on whatever ranges arrived first. Cost-aware eviction instead scores pool
// members by hit-recency x creation-cost x coverage-savings and evicts the
// lowest-scoring view when a fresh candidate outscores it, so hot views
// survive and cold ones return their bitmap and mapping budget. The same
// score picks the arenas pressure relief and ReleaseColdestArenas release.
//
// The decisions are const: they read only the views' ranges, membership
// bitmaps, arena state and usage counters, the query sequence number, the
// column's page count and the AdaptiveConfig, so they run over views built
// without an arena or an engine. The engine (core/adaptive_layer.h) owns
// one pool and applies what it decides.
//
// Thread-safety: owned by one AdaptiveColumn and guarded by its locks.
// Route runs under its view-index mutex (any mode); Admit and ColdestFirst
// run under its maintenance mutex alone — every pool mutator holds it too
// and readers only read, so the pool cannot change under the page-subset
// checks, and readers keep routing through them. Replace and TakeAll
// RETURN the displaced views so the caller can park them on the epoch
// limbo list instead of destroying them under a concurrent scan.

#ifndef VMSV_CORE_VIEW_POOL_H_
#define VMSV_CORE_VIEW_POOL_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/adaptive_config.h"
#include "core/virtual_view.h"
#include "storage/types.h"
#include "util/status.h"

namespace vmsv {

enum class CandidateDecision {
  /// No candidate was built: existing views answered the query.
  kAnsweredFromView,
  /// Full scan ran and the candidate entered the view pool.
  kInserted,
  /// Candidate's pages were (a near-)subset of an existing view — dropped.
  kDiscardedSubset,
  /// An existing view was (a near-)subset of the candidate — swapped out.
  kReplacedExisting,
  /// Pool at max_views and the candidate outscored the coldest view, which
  /// was evicted to make room (EvictionPolicy::kCostAware).
  kEvictedExisting,
  /// Pool at max_views; candidate dropped (always under kDropNewest, or
  /// when the candidate scored below every pool member).
  kBudgetExhausted,
  /// A lone view's threshold map failed (injected or real resource
  /// exhaustion), so the view answered over its own page runs in the base
  /// mapping. The answer is still exact — degradation costs time, never
  /// correctness.
  kBaseFallback,
  kNone,
};

const char* CandidateDecisionName(CandidateDecision decision);

/// An admission outcome and the view it acts on.
struct Admission {
  CandidateDecision outcome = CandidateDecision::kNone;
  /// kDiscardedSubset: the view whose range absorbs the candidate's (null
  /// when none may); kReplacedExisting: the view to replace;
  /// kEvictedExisting: the eviction victim.
  VirtualView* target = nullptr;
};

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
double EvictionScore(const VirtualView& view, const LifecycleConfig& lifecycle,
                     uint64_t now, uint64_t column_pages);

class PartialViewIndex {
 public:
  size_t num_partial_views() const { return views_.size(); }

  uint64_t TotalPartialPages() const {
    uint64_t total = 0;
    for (const auto& v : views_) total += v->num_pages();
    return total;
  }

  const std::vector<std::unique_ptr<VirtualView>>& views() const {
    return views_;
  }

  std::vector<VirtualView*> MutableViews() {
    std::vector<VirtualView*> out;
    out.reserve(views_.size());
    for (auto& v : views_) out.push_back(v.get());
    return out;
  }

  /// Smallest (fewest pages) view whose value range covers q, or nullptr.
  VirtualView* FindSmallestCovering(const RangeQuery& q) const;

  /// Routes q per config.mode: fills `cover` with the views that answer q,
  /// or leaves it empty when the pool cannot. kSingleView: the smallest
  /// covering view. kMultiView: a greedy interval cover of q by view value
  /// ranges, in cover order, where a view ending at the uncovered point
  /// joins only when no view reaches past it; cost_based_routing breaks
  /// ties toward fewer pages per unit of new coverage and leaves `cover`
  /// empty when it holds at least `column_pages` pages (the full scan is
  /// cheaper).
  void Route(const RangeQuery& q, const AdaptiveConfig& config,
             uint64_t column_pages, std::vector<VirtualView*>* cover) const;

  /// The insert/discard/replace/evict decision of Listing 1 on `candidate`,
  /// without applying it: discard under the first view holding its pages
  /// up to discard_tolerance, else replace the first view it holds up to
  /// replace_tolerance, else insert while the pool has room; at max_views,
  /// the configured eviction policy evicts the coldest view when the
  /// candidate outscores it by eviction_margin, else drops the candidate.
  /// An empty candidate is discarded only under a view covering its range
  /// or into a touching empty view.
  Admission Admit(const VirtualView& candidate, const AdaptiveConfig& config,
                  uint64_t now, uint64_t column_pages) const;

  /// Victim order: up to `count` views — only those with an arena when
  /// `arenas_only` — lowest EvictionScore first, ties in pool order.
  /// Admission's eviction takes the first of all views; arena release the
  /// first `count` with an arena.
  std::vector<VirtualView*> ColdestFirst(size_t count, bool arenas_only,
                                         const LifecycleConfig& lifecycle,
                                         uint64_t now,
                                         uint64_t column_pages) const;

  void Insert(std::unique_ptr<VirtualView> view) {
    views_.push_back(std::move(view));
  }

  /// Swaps `victim` for `replacement`, returning the displaced view for
  /// deferred destruction. Error contract: FailedPrecondition when `victim`
  /// is not in the pool — the pool is unchanged and `replacement` has been
  /// destroyed (callers treat it as a dropped candidate).
  StatusOr<std::unique_ptr<VirtualView>> Replace(
      VirtualView* victim, std::unique_ptr<VirtualView> replacement);

  /// Detaches every view and returns them, leaving the pool empty — the
  /// failed-alignment drop, destruction deferred to the caller.
  std::vector<std::unique_ptr<VirtualView>> TakeAll() {
    return std::exchange(views_, {});
  }

 private:
  std::vector<std::unique_ptr<VirtualView>> views_;
};

}  // namespace vmsv

#endif  // VMSV_CORE_VIEW_POOL_H_
