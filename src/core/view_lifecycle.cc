#include "core/view_lifecycle.h"

#include <algorithm>
#include <cmath>

#include "util/macros.h"

namespace vmsv {

const char* EvictionPolicyName(EvictionPolicy policy) {
  switch (policy) {
    case EvictionPolicy::kDropNewest: return "drop_newest";
    case EvictionPolicy::kCostAware: return "cost_aware";
  }
  return "unknown";
}

bool ViewLifecycleManager::ShouldCompact(const VirtualView& view) const {
  if (!view.is_materialized() || view.num_pages() == 0) return false;
  // Hole-free views have no fragmentation to reclaim, but may still be
  // file-scattered — the sort-only trigger's territory.
  if (view.hole_slots() == 0) return ShouldSortCompact(view);
  const uint64_t runs = view.num_slot_runs();
  if (runs < config_.compaction_min_runs) return false;
  return static_cast<double>(runs) >
         config_.compaction_run_ratio * static_cast<double>(view.num_pages());
}

bool ViewLifecycleManager::ShouldSortCompact(const VirtualView& view) const {
  if (config_.sort_compaction_file_run_ratio <= 0) return false;
  if (!view.is_materialized() || view.hole_slots() > 0) return false;
  const uint64_t file_runs = view.CountFileRuns();
  if (file_runs < config_.compaction_min_runs) return false;
  if (static_cast<double>(file_runs) <=
      config_.sort_compaction_file_run_ratio *
          static_cast<double>(view.num_pages())) {
    return false;
  }
  // Sorting only helps when the page SET has consecutive pages sitting in
  // non-adjacent slots; an inherently scattered set (no two consecutive
  // member pages) keeps one VMA per page no matter the order.
  // MinimalFileRuns is the incrementally-maintained run count of the sorted
  // page set, so this whole trigger is O(1) per check (appends probe it on
  // every qualifying page).
  return view.MinimalFileRuns() < file_runs;
}

Status ViewLifecycleManager::CompactView(
    VirtualView* view, std::unique_ptr<VirtualArena>* retired_arena) {
  if (view == nullptr) return InvalidArgument("CompactView needs a view");
  const bool sort_only = view->hole_slots() == 0;
  ViewCompactionStats result;
  const Status st = view->Compact(config_.compaction, &result, retired_arena);
  if (!st.ok()) {
    // The view's mapping state is unspecified now (Compact's error
    // contract); the caller must discard or rebuild it.
    ++stats_.failed_compactions;
    return st;
  }
  ++stats_.compactions;
  if (sort_only) ++stats_.sort_compactions;
  stats_.compaction_mremap_moves += result.mremap_moves;
  stats_.compaction_remap_moves += result.remap_moves;
  stats_.holes_reclaimed += result.holes_reclaimed;
  stats_.slot_runs_collapsed +=
      result.slot_runs_before - result.slot_runs_after;
  return OkStatus();
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
