#include "core/shard_router.h"

#include <algorithm>
#include <string>
#include <utility>

#include "exec/thread_pool.h"

namespace vmsv {

namespace {

/// The structurally most significant outcome wins the merged decision: a
/// fan-out that adapted any shard's pool reports the adaptation, one that
/// only read reports the read.
int DecisionRank(CandidateDecision d) {
  switch (d) {
    case CandidateDecision::kInserted: return 7;
    case CandidateDecision::kReplacedExisting: return 6;
    case CandidateDecision::kEvictedExisting: return 5;
    case CandidateDecision::kBudgetExhausted: return 4;
    case CandidateDecision::kDiscardedSubset: return 3;
    case CandidateDecision::kBaseFallback: return 2;
    case CandidateDecision::kAnsweredFromView: return 1;
    case CandidateDecision::kNone: return 0;
  }
  return 0;
}

CandidateDecision MergeDecision(CandidateDecision a, CandidateDecision b) {
  return DecisionRank(b) > DecisionRank(a) ? b : a;
}

/// Merges shard `part` into `total` in shard order: counts and sums are
/// associative wrap-around adds, so the merged answer is bit-identical to
/// the unsharded page-wise scan.
void MergeExec(QueryExecution* total, const QueryExecution& part) {
  total->match_count += part.match_count;
  total->sum += part.sum;
  total->stats.scanned_pages += part.stats.scanned_pages;
  total->stats.considered_views += part.stats.considered_views;
  total->stats.views_after += part.stats.views_after;
  total->stats.decision = MergeDecision(total->stats.decision, part.stats.decision);
}

/// Runs fn(s) -> StatusOr<T> for every shard s in `targets` as one job on
/// the global ThreadPool and waits (the caller works too). Returns the
/// results in target order, or the first failed target's status.
template <typename T, typename Fn>
StatusOr<std::vector<T>> FanOut(const std::vector<uint32_t>& targets,
                                const Fn& fn) {
  std::vector<T> results(targets.size());
  if (targets.empty()) return results;
  std::vector<Status> statuses(targets.size(), OkStatus());
  ThreadPool::Global().Run(
      targets.size(),
      static_cast<unsigned>(
          std::min<size_t>(targets.size(), DefaultScanThreads())),
      [&](uint64_t i) {
        StatusOr<T> r = fn(targets[i]);
        if (r.ok()) {
          results[i] = *std::move(r);
        } else {
          statuses[i] = r.status();
        }
      });
  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }
  return results;
}

}  // namespace

// ---------------------------------------------------------------------------
// PartitionSpec

uint64_t PartitionSpec::TotalPages() const {
  return (num_rows + kValuesPerPage - 1) / kValuesPerPage;
}

uint32_t PartitionSpec::ShardOfPage(uint64_t page) const {
  if (shards <= 1) return 0;
  // The first `rem` shards own base+1 pages, the rest own base.
  const uint64_t pages = TotalPages();
  const uint64_t base = pages / shards;
  const uint64_t rem = pages % shards;
  const uint64_t wide_pages = rem * (base + 1);
  if (page < wide_pages) {
    return static_cast<uint32_t>(page / (base + 1));
  }
  return static_cast<uint32_t>(rem + (page - wide_pages) / base);
}

uint32_t PartitionSpec::ShardOfRow(uint64_t row) const {
  return ShardOfPage(row / kValuesPerPage);
}

uint64_t PartitionSpec::ShardPages(uint32_t s) const {
  const uint64_t pages = TotalPages();
  if (shards <= 1) return pages;
  const uint64_t base = pages / shards;
  const uint64_t rem = pages % shards;
  return base + (s < rem ? 1 : 0);
}

uint64_t PartitionSpec::ShardRows(uint32_t s) const {
  const uint64_t pages = ShardPages(s);
  if (pages == 0) return 0;
  const uint64_t total_pages = TotalPages();
  // Only the shard owning the globally-last page can end mid-page; its
  // last local page is that tail page (GlobalPage is ascending in lp).
  if (ShardOfPage(total_pages - 1) == s) {
    const uint64_t tail_rows = num_rows - (total_pages - 1) * kValuesPerPage;
    return (pages - 1) * kValuesPerPage + tail_rows;
  }
  return pages * kValuesPerPage;
}

uint64_t PartitionSpec::GlobalPage(uint32_t s, uint64_t lp) const {
  if (shards <= 1) return lp;
  const uint64_t pages = TotalPages();
  const uint64_t base = pages / shards;
  const uint64_t rem = pages % shards;
  return static_cast<uint64_t>(s) * base + std::min<uint64_t>(s, rem) + lp;
}

uint64_t PartitionSpec::LocalRow(uint64_t row) const {
  const uint64_t page = row / kValuesPerPage;
  const uint64_t local_page = page - GlobalPage(ShardOfPage(page), 0);
  return local_page * kValuesPerPage + row % kValuesPerPage;
}

// ---------------------------------------------------------------------------
// ShardedTable construction

void ShardedTable::WidenZone(Shard& shard, Value v) {
  // Racing widens are monotone in each direction, so relaxed CAS loops
  // keep the zone a superset of every value ever written.
  if (!shard.zone_set.load(std::memory_order_acquire)) {
    shard.zone_lo.store(v, std::memory_order_relaxed);
    shard.zone_hi.store(v, std::memory_order_relaxed);
    shard.zone_set.store(true, std::memory_order_release);
    return;
  }
  Value lo = shard.zone_lo.load(std::memory_order_relaxed);
  while (v < lo &&
         !shard.zone_lo.compare_exchange_weak(lo, v, std::memory_order_relaxed)) {
  }
  Value hi = shard.zone_hi.load(std::memory_order_relaxed);
  while (v > hi &&
         !shard.zone_hi.compare_exchange_weak(hi, v, std::memory_order_relaxed)) {
  }
}

void ShardedTable::WidenZoneToFold(Shard& shard) {
  const PageZone zone = shard.column->ZoneFold();
  if (zone.min <= zone.max) {  // no pages: nothing to cover
    WidenZone(shard, zone.min);
    WidenZone(shard, zone.max);
  }
}

bool ShardedTable::ZoneIntersects(const Shard& shard, const RangeQuery& q) const {
  if (!shard.zone_set.load(std::memory_order_acquire)) return false;
  const Value lo = shard.zone_lo.load(std::memory_order_relaxed);
  const Value hi = shard.zone_hi.load(std::memory_order_relaxed);
  return q.lo <= hi && q.hi >= lo;
}

std::vector<uint32_t> ShardedTable::RouteShards(const RangeQuery& q) const {
  std::vector<uint32_t> targets;
  targets.reserve(shards_.size());
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    if (ZoneIntersects(*shards_[s], q)) targets.push_back(s);
  }
  return targets;
}

StatusOr<std::unique_ptr<Table>> ShardedTable::Create(
    uint64_t num_rows, const std::function<Value(uint64_t)>& value_of,
    const DbOptions& options) {
  const PartitionSpec spec{options.shards, num_rows};
  auto table = std::unique_ptr<ShardedTable>(new ShardedTable(spec));
  for (uint32_t s = 0; s < spec.shards; ++s) {
    auto column = PhysicalColumn::Create(spec.ShardRows(s));
    if (!column.ok()) return column.status();
    // The loader walks local rows page by page; the global first row of the
    // current local page is looked up once per page.
    uint64_t local_page = ~uint64_t{0};
    uint64_t global_first = 0;
    (*column)->Load([&](uint64_t local_row) {
      if (local_row / kValuesPerPage != local_page) {
        local_page = local_row / kValuesPerPage;
        global_first = spec.GlobalPage(s, local_page) * kValuesPerPage;
      }
      return value_of(global_first + local_row % kValuesPerPage);
    });
    auto adaptive = AdaptiveColumn::Create(*std::move(column), options.column);
    if (!adaptive.ok()) return adaptive.status();
    auto shard = std::make_unique<Shard>();
    shard->column = *std::move(adaptive);
    table->WidenZoneToFold(*shard);
    table->shards_.push_back(std::move(shard));
  }
  return std::unique_ptr<Table>(std::move(table));
}

// ---------------------------------------------------------------------------
// Query surface

StatusOr<QueryExecution> ShardedTable::Execute(const RangeQuery& q) {
  if (q.lo > q.hi) return InvalidArgument("query lo > hi");
  auto execs = FanOut<QueryExecution>(RouteShards(q), [&](uint32_t s) {
    return shards_[s]->column->Execute(q);
  });
  if (!execs.ok()) return execs.status();
  // Merge in shard order (targets ascend): associative adds keep the
  // answer bit-identical to the unsharded oracle. No target: provably zero
  // matches.
  QueryExecution merged;
  for (const QueryExecution& exec : *execs) MergeExec(&merged, exec);
  return merged;
}

StatusOr<QueryExecution> ShardedTable::ExecuteFullScan(
    const RangeQuery& q) const {
  // The baseline deliberately skips zone pruning: it scans every base
  // page, like the unsharded baseline it is compared against. Every shard
  // checks q itself.
  std::vector<uint32_t> targets(shards_.size());
  for (uint32_t s = 0; s < shards_.size(); ++s) targets[s] = s;
  auto execs = FanOut<QueryExecution>(targets, [&](uint32_t s) {
    return shards_[s]->column->ExecuteFullScan(q);
  });
  if (!execs.ok()) return execs.status();
  QueryExecution merged;
  for (const QueryExecution& exec : *execs) MergeExec(&merged, exec);
  merged.stats.decision = CandidateDecision::kNone;
  return merged;
}

StatusOr<BatchExecution> ShardedTable::ExecuteBatch(
    const std::vector<RangeQuery>& queries) {
  for (const RangeQuery& q : queries) {
    if (q.lo > q.hi) return InvalidArgument("query lo > hi");
  }
  // Per-shard sub-batches in batch order, with the member -> global index
  // mapping for the merge.
  std::vector<std::vector<RangeQuery>> sub(shards_.size());
  std::vector<std::vector<size_t>> sub_index(shards_.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    for (uint32_t s = 0; s < shards_.size(); ++s) {
      if (ZoneIntersects(*shards_[s], queries[i])) {
        sub[s].push_back(queries[i]);
        sub_index[s].push_back(i);
      }
    }
  }
  std::vector<uint32_t> targets;
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    if (!sub[s].empty()) targets.push_back(s);
  }
  auto partials = FanOut<BatchExecution>(targets, [&](uint32_t s) {
    return shards_[s]->column->ExecuteBatch(sub[s]);
  });
  if (!partials.ok()) return partials.status();

  // Merge per query in shard order; batch-level accounting sums per-shard
  // totals (a query answered on k shards counts once per shard it ran on).
  // A query no shard ran provably matches nothing.
  BatchExecution out;
  out.queries.resize(queries.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    const uint32_t s = targets[i];
    const BatchExecution& part = (*partials)[i];
    for (size_t m = 0; m < sub_index[s].size(); ++m) {
      MergeExec(&out.queries[sub_index[s][m]], part.queries[m]);
    }
    out.shared_scanned_pages += part.shared_scanned_pages;
    out.individual_equivalent_pages += part.individual_equivalent_pages;
    out.overlap_groups += part.overlap_groups;
    out.view_answered += part.view_answered;
    out.base_answered += part.base_answered;
  }
  return out;
}

Status ShardedTable::Update(uint64_t row, Value new_value) {
  if (row >= spec_.num_rows) {
    return InvalidArgument("Update row " + std::to_string(row) +
                           " beyond table (" + std::to_string(spec_.num_rows) +
                           " rows)");
  }
  Shard& shard = *shards_[spec_.ShardOfRow(row)];
  // Widen BEFORE the write: a racing query must already route to this
  // shard by the time the new value can be visible. (A failed update
  // leaves the zone conservatively wide — harmless.)
  WidenZone(shard, new_value);
  return shard.column->Update(spec_.LocalRow(row), new_value);
}

StatusOr<UpdateApplyStats> ShardedTable::FlushUpdates() {
  UpdateApplyStats total;
  for (auto& shard : shards_) {
    auto stats = shard->column->FlushUpdates();
    if (!stats.ok()) return stats.status();
    total.parse_ms += stats->parse_ms;
    total.align_ms += stats->align_ms;
    total.pages_added += stats->pages_added;
    total.pages_removed += stats->pages_removed;
    total.net_updates += stats->net_updates;
  }
  return total;
}

Status ShardedTable::Checkpoint() {
  for (auto& shard : shards_) {
    Status st = shard->column->Checkpoint();
    if (!st.ok()) return st;
    // Writes through mutable_column() reach routing here. Widening only,
    // so a racing Update's own widen is never lost.
    WidenZoneToFold(*shard);
  }
  return OkStatus();
}

TableHealth ShardedTable::Health() const {
  TableHealth health;
  health.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const ColumnHealth h = shard->column->Health();
    health.total.degraded_read_only |= h.degraded_read_only;
    health.total.mapping_pressure |= h.mapping_pressure;
    health.total.map_failures += h.map_failures;
    health.total.base_fallbacks += h.base_fallbacks;
    health.total.failed_adaptations += h.failed_adaptations;
    health.total.journal_stalls += h.journal_stalls;
    health.total.read_only_entries += h.read_only_entries;
    health.total.read_only_exits += h.read_only_exits;
    health.total.views_demoted += h.views_demoted;
    health.total.views_promoted += h.views_promoted;
    health.shards.push_back(h);
  }
  return health;
}

CumulativeStats ShardedTable::Metrics() const {
  CumulativeStats total;
  for (const auto& shard : shards_) {
    const CumulativeStats m = shard->column->metrics();
    total.queries += m.queries;
    total.scanned_pages += m.scanned_pages;
    total.fullscan_equivalent_pages += m.fullscan_equivalent_pages;
    total.views_created += m.views_created;
    total.views_discarded += m.views_discarded;
    total.views_replaced += m.views_replaced;
    total.views_evicted += m.views_evicted;
    total.candidates_dropped += m.candidates_dropped;
  }
  return total;
}

}  // namespace vmsv
