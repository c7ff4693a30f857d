#include "core/view_pool.h"

#include <algorithm>
#include <cmath>

namespace vmsv {

namespace {

/// True when [lo_a, hi_a] and [lo_b, hi_b] overlap or are integer-adjacent
/// (no representable value lies between them), i.e. their union is gap-free.
/// The max-value guards keep the +1 adjacency probes from wrapping.
bool RangesTouch(Value lo_a, Value hi_a, Value lo_b, Value hi_b) {
  return (hi_a == ~Value{0} || lo_b <= hi_a + 1) &&
         (hi_b == ~Value{0} || lo_a <= hi_b + 1);
}

}  // namespace

const char* CandidateDecisionName(CandidateDecision decision) {
  switch (decision) {
    case CandidateDecision::kAnsweredFromView: return "answered_from_view";
    case CandidateDecision::kInserted: return "inserted";
    case CandidateDecision::kDiscardedSubset: return "discarded_subset";
    case CandidateDecision::kReplacedExisting: return "replaced_existing";
    case CandidateDecision::kEvictedExisting: return "evicted_existing";
    case CandidateDecision::kBudgetExhausted: return "budget_exhausted";
    case CandidateDecision::kBaseFallback: return "base_fallback";
    case CandidateDecision::kNone: return "none";
  }
  return "unknown";
}

double EvictionScore(const VirtualView& view, const LifecycleConfig& lifecycle,
                     uint64_t now, uint64_t column_pages) {
  const uint64_t last = view.usage().last_used_query;
  const double age = now > last ? static_cast<double>(now - last) : 0.0;
  const double recency = std::exp2(-age / lifecycle.recency_half_life);
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

VirtualView* PartialViewIndex::FindSmallestCovering(const RangeQuery& q) const {
  VirtualView* best = nullptr;
  for (const auto& view : views_) {
    if (!view->Covers(q)) continue;
    if (best == nullptr || view->num_pages() < best->num_pages()) {
      best = view.get();
    }
  }
  return best;
}

void PartialViewIndex::Route(const RangeQuery& q, const AdaptiveConfig& config,
                             uint64_t column_pages,
                             std::vector<VirtualView*>* cover) const {
  cover->clear();
  if (config.mode == QueryMode::kSingleView) {
    VirtualView* view = FindSmallestCovering(q);
    if (view != nullptr) cover->push_back(view);
    return;
  }
  // Greedy interval covering over the value domain: repeatedly choose among
  // the views holding the uncovered point the one that extends coverage
  // furthest (or cheapest per unit, when cost-based).
  uint64_t cover_pages = 0;
  Value point = q.lo;
  // The best view holding `point`; one that ends at `point` is eligible
  // only when `ends_at_point_ok`.
  const auto pick = [&](bool ends_at_point_ok) {
    VirtualView* best = nullptr;
    double best_score = 0;
    for (const auto& view : views_) {
      if (view->lo() > point || view->hi() < point) continue;
      const Value extension = view->hi() - point;
      if (extension == 0 && !ends_at_point_ok) continue;
      double score;
      if (config.cost_based_routing) {
        // New coverage per page scanned — maximize (the +1s avoid
        // div-by-zero and keep zero-extension views eligible).
        score = static_cast<double>(extension + 1) /
                static_cast<double>(view->num_pages() + 1);
      } else {
        score = static_cast<double>(extension);
      }
      if (best == nullptr || score > best_score) {
        best = view.get();
        best_score = score;
      }
    }
    return best;
  };
  while (true) {
    VirtualView* best = pick(/*ends_at_point_ok=*/point == q.hi);
    // A view ending at `point` still covers it: take one only when no view
    // reaches past it.
    if (best == nullptr) best = pick(/*ends_at_point_ok=*/true);
    if (best == nullptr) {  // gap at `point`: no partial cover escapes
      cover->clear();
      return;
    }
    cover->push_back(best);
    cover_pages += best->num_pages();
    if (best->hi() >= q.hi) break;
    point = best->hi() + 1;
  }
  if (config.cost_based_routing && cover_pages >= column_pages) {
    // Cover costlier than a full scan: route to the scan path instead.
    cover->clear();
  }
}

Admission PartialViewIndex::Admit(const VirtualView& candidate,
                                  const AdaptiveConfig& config, uint64_t now,
                                  uint64_t column_pages) const {
  if (candidate.num_pages() == 0) {
    // An EMPTY candidate (query range holds no data) is pure range
    // knowledge; the generic subset logic would vacuously discard it
    // against any view and the data-free range would full-scan forever.
    // Record it: redundant only under a view that covers the range;
    // mergeable into a touching empty view; otherwise a view of its own,
    // answering with 0 page reads.
    const RangeQuery cand_range = candidate.value_range();
    for (const auto& view : views_) {
      if (view->Covers(cand_range)) {
        return {CandidateDecision::kDiscardedSubset, nullptr};
      }
    }
    for (const auto& view : views_) {
      if (view->num_pages() == 0 &&
          RangesTouch(view->lo(), view->hi(), cand_range.lo, cand_range.hi)) {
        return {CandidateDecision::kDiscardedSubset, view.get()};
      }
    }
  } else {
    // Discard: candidate pages are (nearly) contained in an existing view.
    // The counts are bitmap popcounts, exact up to the tolerance.
    for (const auto& view : views_) {
      const uint64_t missing =
          candidate.CountPagesNotIn(*view, config.discard_tolerance);
      if (missing <= config.discard_tolerance) {
        // An exact subset proves the view holds every page with a value in
        // the candidate's range, so the view's range may absorb it —
        // otherwise the discarded query range would full-scan forever (its
        // value range being covered by no view is exactly why the scan
        // ran). Two restrictions keep the Covers() invariant ("view holds
        // every page with a value in its range") intact: an inexact subset
        // may miss up to `missing` pages, and a range separated by a GAP
        // would claim values neither side ever scanned for (overlapping or
        // integer-adjacent ranges union gap-free).
        const bool absorbs =
            missing == 0 && RangesTouch(view->lo(), view->hi(),
                                        candidate.lo(), candidate.hi());
        return {CandidateDecision::kDiscardedSubset,
                absorbs ? view.get() : nullptr};
      }
    }
    // Replace: an existing view is (nearly) contained in the candidate. An
    // EMPTY view is a vacuous page-subset of anything — replacing it would
    // silently drop its range knowledge, so it is only replaced when the
    // candidate's range subsumes it.
    for (const auto& view : views_) {
      if (view->num_pages() == 0 &&
          !(candidate.lo() <= view->lo() && candidate.hi() >= view->hi())) {
        continue;
      }
      const uint64_t missing =
          view->CountPagesNotIn(candidate, config.replace_tolerance);
      if (missing <= config.replace_tolerance) {
        return {CandidateDecision::kReplacedExisting, view.get()};
      }
    }
  }
  if (views_.size() < config.max_views) return {CandidateDecision::kInserted};
  // Budget pressure. The historical policy ("drop-newest") discarded every
  // candidate here, freezing the pool on whatever ranges arrived first; the
  // cost-aware policy instead displaces the coldest view when the fresh
  // candidate outscores it, so the pool tracks the working set.
  const LifecycleConfig& lifecycle = config.lifecycle;
  if (lifecycle.eviction_policy == EvictionPolicy::kCostAware) {
    const std::vector<VirtualView*> coldest =
        ColdestFirst(1, /*arenas_only=*/false, lifecycle, now, column_pages);
    if (!coldest.empty() &&
        lifecycle.eviction_margin *
                EvictionScore(*coldest.front(), lifecycle, now, column_pages) <
            EvictionScore(candidate, lifecycle, now, column_pages)) {
      return {CandidateDecision::kEvictedExisting, coldest.front()};
    }
  }
  return {CandidateDecision::kBudgetExhausted};
}

std::vector<VirtualView*> PartialViewIndex::ColdestFirst(
    size_t count, bool arenas_only, const LifecycleConfig& lifecycle,
    uint64_t now, uint64_t column_pages) const {
  // (score, pool position): pairs order by score, then by position.
  std::vector<std::pair<double, size_t>> order;
  order.reserve(views_.size());
  for (size_t i = 0; i < views_.size(); ++i) {
    if (arenas_only && !views_[i]->is_materialized()) continue;
    order.emplace_back(EvictionScore(*views_[i], lifecycle, now, column_pages),
                       i);
  }
  const size_t picked = std::min(count, order.size());
  std::partial_sort(order.begin(), order.begin() + picked, order.end());
  std::vector<VirtualView*> victims(picked);
  for (size_t i = 0; i < picked; ++i) {
    victims[i] = views_[order[i].second].get();
  }
  return victims;
}

StatusOr<std::unique_ptr<VirtualView>> PartialViewIndex::Replace(
    VirtualView* victim, std::unique_ptr<VirtualView> replacement) {
  for (auto& slot : views_) {
    if (slot.get() == victim) {
      std::unique_ptr<VirtualView> displaced = std::move(slot);
      slot = std::move(replacement);
      return StatusOr<std::unique_ptr<VirtualView>>(std::move(displaced));
    }
  }
  return FailedPrecondition("Replace victim not in pool");
}

}  // namespace vmsv
