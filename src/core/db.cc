#include "core/db.h"

#include <algorithm>
#include <utility>

#include "core/shard_router.h"

namespace vmsv {

namespace {

/// The 1-shard Table: a zero-cost veneer over one AdaptiveColumn. Every
/// call forwards directly — no routing, no fan-out, no worker handoff —
/// so the facade costs existing single-column users nothing.
class SingleTable : public Table {
 public:
  explicit SingleTable(std::unique_ptr<AdaptiveColumn> column)
      : column_(std::move(column)) {}

  StatusOr<QueryExecution> Execute(const RangeQuery& q) override {
    return column_->Execute(q);
  }
  StatusOr<BatchExecution> ExecuteBatch(
      const std::vector<RangeQuery>& queries) override {
    return column_->ExecuteBatch(queries);
  }
  StatusOr<QueryExecution> ExecuteFullScan(const RangeQuery& q) const override {
    return column_->ExecuteFullScan(q);
  }
  Status Update(uint64_t row, Value new_value) override {
    return column_->Update(row, new_value);
  }
  StatusOr<UpdateApplyStats> FlushUpdates() override {
    return column_->FlushUpdates();
  }
  Status Checkpoint() override { return column_->Checkpoint(); }

  TableHealth Health() const override {
    TableHealth health;
    health.total = column_->Health();
    health.shards.push_back(health.total);
    return health;
  }
  CumulativeStats Metrics() const override { return column_->metrics(); }
  DurabilityStats Durability() const override {
    return column_->durability_stats();
  }

  uint64_t num_rows() const override { return column_->column().num_rows(); }
  uint64_t num_pages() const override { return column_->column().num_pages(); }
  uint32_t num_shards() const override { return 1; }
  bool is_durable() const override { return column_->is_durable(); }
  AdaptiveColumn* shard(uint32_t i) override {
    (void)i;
    return column_.get();
  }

 private:
  std::unique_ptr<AdaptiveColumn> column_;
};

/// Every shard must own at least one page, so the effective shard count is
/// capped by the page count (a 2-page table asked for 8 shards gets 2).
uint32_t EffectiveShards(uint32_t requested, uint64_t num_rows) {
  const uint64_t pages = (num_rows + kValuesPerPage - 1) / kValuesPerPage;
  const uint64_t cap = std::max<uint64_t>(pages, 1);
  return static_cast<uint32_t>(std::min<uint64_t>(requested, cap));
}

}  // namespace

StatusOr<std::unique_ptr<Table>> Db::Create(
    std::unique_ptr<PhysicalColumn> column, const DbOptions& options) {
  if (column == nullptr) return InvalidArgument("Db::Create: null column");
  if (options.shards != 1) {
    return InvalidArgument(
        "Db::Create from a pre-built column is 1-shard only; use the "
        "row-generator overload for sharded tables");
  }
  auto adaptive = AdaptiveColumn::Create(std::move(column), options.column);
  if (!adaptive.ok()) return adaptive.status();
  return std::unique_ptr<Table>(new SingleTable(*std::move(adaptive)));
}

StatusOr<std::unique_ptr<Table>> Db::Create(
    uint64_t num_rows, const std::function<Value(uint64_t)>& value_of,
    const DbOptions& options) {
  if (num_rows == 0) return InvalidArgument("Db::Create: zero rows");
  if (options.shards == 0) return InvalidArgument("Db::Create: zero shards");
  const uint32_t shards = EffectiveShards(options.shards, num_rows);
  if (shards <= 1) {
    auto column = PhysicalColumn::Create(num_rows);
    if (!column.ok()) return column.status();
    (*column)->Load(value_of);
    return Create(*std::move(column), DbOptions{options.column});
  }
  DbOptions effective = options;
  effective.shards = shards;
  return ShardedTable::Create(num_rows, value_of, effective);
}

StatusOr<std::unique_ptr<Table>> Db::CreateDurable(const std::string& dir,
                                                   uint64_t num_rows,
                                                   const DbOptions& options) {
  if (options.shards != 1) {
    return InvalidArgument("Db::CreateDurable: durable tables are 1-shard");
  }
  if (num_rows == 0) return InvalidArgument("Db::CreateDurable: zero rows");
  auto adaptive = AdaptiveColumn::CreateDurable(dir, num_rows, options.column);
  if (!adaptive.ok()) return adaptive.status();
  return std::unique_ptr<Table>(new SingleTable(*std::move(adaptive)));
}

StatusOr<std::unique_ptr<Table>> Db::Open(const std::string& dir,
                                          const DbOptions& options) {
  if (options.shards != 1) {
    return InvalidArgument("Db::Open: durable tables are 1-shard");
  }
  auto adaptive = AdaptiveColumn::Open(dir, options.column);
  if (!adaptive.ok()) return adaptive.status();
  return std::unique_ptr<Table>(new SingleTable(*std::move(adaptive)));
}

}  // namespace vmsv
