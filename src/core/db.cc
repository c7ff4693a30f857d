#include "core/db.h"

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

/// The per-shard answers merged in shard order, or the fan-out's error.
StatusOr<QueryExecution> MergeShards(
    StatusOr<std::vector<QueryExecution>> execs) {
  if (!execs.ok()) return execs.status();
  QueryExecution merged;
  for (const QueryExecution& exec : *execs) MergeExec(&merged, exec);
  return merged;
}

/// Runs fn(s) -> StatusOr<T> for every shard s in [0, shards) as one job on
/// the global ThreadPool and waits (the caller works too; one shard runs
/// inline on the caller). Returns the results in shard order, or the first
/// failed shard's status.
template <typename T, typename Fn>
StatusOr<std::vector<T>> FanOut(size_t shards, const Fn& fn) {
  std::vector<T> results(shards);
  std::vector<Status> statuses(shards, OkStatus());
  ThreadPool::Global().Run(
      shards,
      static_cast<unsigned>(std::min<size_t>(shards, DefaultScanThreads())),
      [&](uint64_t s) {
        StatusOr<T> r = fn(static_cast<uint32_t>(s));
        if (r.ok()) {
          results[s] = *std::move(r);
        } else {
          statuses[s] = r.status();
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
// Table

Table::Table(std::vector<std::unique_ptr<AdaptiveColumn>> shards)
    : shards_(std::move(shards)) {
  spec_.shards = static_cast<uint32_t>(shards_.size());
  for (const auto& shard : shards_) spec_.num_rows += shard->column().num_rows();
}

StatusOr<QueryExecution> Table::Execute(const RangeQuery& q) {
  return MergeShards(FanOut<QueryExecution>(
      shards_.size(), [&](uint32_t s) { return shards_[s]->Execute(q); }));
}

StatusOr<QueryExecution> Table::ExecuteFullScan(const RangeQuery& q) const {
  return MergeShards(FanOut<QueryExecution>(shards_.size(), [&](uint32_t s) {
    return shards_[s]->ExecuteFullScan(q);
  }));
}

StatusOr<BatchExecution> Table::ExecuteBatch(
    const std::vector<RangeQuery>& queries) {
  auto partials = FanOut<BatchExecution>(shards_.size(), [&](uint32_t s) {
    return shards_[s]->ExecuteBatch(queries);
  });
  if (!partials.ok()) return partials.status();
  // Merge per query in shard order; batch-level accounting sums per-shard
  // totals (a query counts once per shard).
  BatchExecution out;
  out.queries.resize(queries.size());
  for (const BatchExecution& part : *partials) {
    for (size_t i = 0; i < queries.size(); ++i) {
      MergeExec(&out.queries[i], part.queries[i]);
    }
    out.shared_scanned_pages += part.shared_scanned_pages;
    out.individual_equivalent_pages += part.individual_equivalent_pages;
    out.overlap_groups += part.overlap_groups;
    out.view_answered += part.view_answered;
    out.base_answered += part.base_answered;
  }
  return out;
}

Status Table::Update(uint64_t row, Value new_value) {
  if (row >= spec_.num_rows) {
    return InvalidArgument("Update row " + std::to_string(row) +
                           " beyond table (" + std::to_string(spec_.num_rows) +
                           " rows)");
  }
  return shards_[spec_.ShardOfRow(row)]->Update(spec_.LocalRow(row),
                                                new_value);
}

StatusOr<UpdateApplyStats> Table::FlushUpdates() {
  UpdateApplyStats total;
  for (auto& shard : shards_) {
    auto stats = shard->FlushUpdates();
    if (!stats.ok()) return stats.status();
    total.parse_ms += stats->parse_ms;
    total.align_ms += stats->align_ms;
    total.pages_added += stats->pages_added;
    total.pages_removed += stats->pages_removed;
    total.net_updates += stats->net_updates;
  }
  return total;
}

Status Table::Checkpoint() {
  for (auto& shard : shards_) {
    Status st = shard->Checkpoint();
    if (!st.ok()) return st;
  }
  return OkStatus();
}

TableHealth Table::Health() const {
  TableHealth health;
  health.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const ColumnHealth h = shard->Health();
    health.total.degraded_read_only |= h.degraded_read_only;
    health.total.mapping_pressure |= h.mapping_pressure;
    health.total.map_failures += h.map_failures;
    health.total.base_fallbacks += h.base_fallbacks;
    health.total.journal_stalls += h.journal_stalls;
    health.total.read_only_entries += h.read_only_entries;
    health.total.read_only_exits += h.read_only_exits;
    health.total.views_demoted += h.views_demoted;
    health.total.views_promoted += h.views_promoted;
    health.shards.push_back(h);
  }
  return health;
}

CumulativeStats Table::Metrics() const {
  CumulativeStats total;
  for (const auto& shard : shards_) {
    const CumulativeStats m = shard->metrics();
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

DurabilityStats Table::Durability() const {
  // A durable table has one shard; an in-memory shard reports zeros.
  return shards_.front()->durability_stats();
}

// ---------------------------------------------------------------------------
// Db

StatusOr<std::unique_ptr<Table>> Db::OneShard(
    StatusOr<std::unique_ptr<AdaptiveColumn>> column) {
  if (!column.ok()) return column.status();
  std::vector<std::unique_ptr<AdaptiveColumn>> shards;
  shards.push_back(*std::move(column));
  return std::unique_ptr<Table>(new Table(std::move(shards)));
}

StatusOr<std::unique_ptr<Table>> Db::Create(
    std::unique_ptr<PhysicalColumn> column, const DbOptions& options) {
  if (column == nullptr) return InvalidArgument("Db::Create: null column");
  if (options.shards != 1) {
    return InvalidArgument(
        "Db::Create from a pre-built column is 1-shard only; use the "
        "row-generator overload for sharded tables");
  }
  return OneShard(AdaptiveColumn::Create(std::move(column), options.column));
}

StatusOr<std::unique_ptr<Table>> Db::Create(
    uint64_t num_rows, const std::function<Value(uint64_t)>& value_of,
    const DbOptions& options) {
  if (num_rows == 0) return InvalidArgument("Db::Create: zero rows");
  if (options.shards == 0) return InvalidArgument("Db::Create: zero shards");
  // Every shard owns at least one page, so the page count caps the shard
  // count (a 2-page table asked for 8 shards gets 2).
  PartitionSpec spec{options.shards, num_rows};
  spec.shards = static_cast<uint32_t>(
      std::min<uint64_t>(spec.shards, spec.TotalPages()));
  std::vector<std::unique_ptr<AdaptiveColumn>> shards;
  for (uint32_t s = 0; s < spec.shards; ++s) {
    auto column = PhysicalColumn::Create(spec.ShardRows(s));
    if (!column.ok()) return column.status();
    // A shard's pages are one contiguous block: local row r is global row
    // first + r.
    const uint64_t first = spec.GlobalPage(s, 0) * kValuesPerPage;
    (*column)->Load([&](uint64_t row) { return value_of(first + row); });
    auto adaptive = AdaptiveColumn::Create(*std::move(column), options.column);
    if (!adaptive.ok()) return adaptive.status();
    shards.push_back(*std::move(adaptive));
  }
  return std::unique_ptr<Table>(new Table(std::move(shards)));
}

StatusOr<std::unique_ptr<Table>> Db::CreateDurable(const std::string& dir,
                                                   uint64_t num_rows,
                                                   const DbOptions& options) {
  if (options.shards != 1) {
    return InvalidArgument("Db::CreateDurable: durable tables are 1-shard");
  }
  if (num_rows == 0) return InvalidArgument("Db::CreateDurable: zero rows");
  return OneShard(AdaptiveColumn::CreateDurable(dir, num_rows, options.column));
}

StatusOr<std::unique_ptr<Table>> Db::Open(const std::string& dir,
                                          const DbOptions& options) {
  if (options.shards != 1) {
    return InvalidArgument("Db::Open: durable tables are 1-shard");
  }
  return OneShard(AdaptiveColumn::Open(dir, options.column));
}

}  // namespace vmsv
