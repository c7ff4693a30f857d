// AdaptiveColumn — the adaptive query-processing layer (paper §2.2,
// Listing 1), now a CONCURRENT query engine. Every range query is answered
// either from partial virtual views that cover it, or by a full scan that
// simultaneously materializes a candidate view for the queried range. A
// bounded pool of views (`max_views`) adapts to the workload: candidates
// that are (near-)subsets of existing views are discarded, views that are
// (near-)subsets of a candidate are replaced.
//
// Two routing modes, both producing a COVER (the views that answer q):
//   - kSingleView: a cover of one — the SMALLEST single view whose value
//     range covers q (Figure 4);
//   - kMultiView:  several views may jointly cover the query (Figure 5).
//     With cost_based_routing, cover selection minimizes scanned pages and
//     falls back to a full scan when the cover would be costlier.
//
// ONE QUERY PATH: Execute and ExecuteBatch share a single route-and-answer
// step (AnswerFromViews): due maintenance first (pressure relief, update
// flush), then every query routed under one shared index-lock hold, one
// epoch guard, and one shared scan per distinct cover. Only a cover of one
// view maps or reads an arena: the view answers over the base mapping until
// its hits reach materialize_after_hits, the hit that gets there maps it,
// and a failed map leaves it answering over its own page runs. A cover of
// several views reads the union of their pages over the base mapping in one
// pass and maps nothing.
// The two differ only in what happens to the queries no view answered: a
// batch answers them with one shared base-column pass, while Execute adapts
// (full scan + candidate decision, Listing 1).
//
// The pool and every decision over it live in core/view_pool.h: routing,
// admission and the coldest-first victim order; under budget pressure the
// cost-aware eviction policy replaces the historical "drop every candidate
// once max_views is reached" cliff. This layer holds the locks, the epoch
// guards and the apply steps: admission decides under the maintenance lock
// alone, then applies in one short exclusive section. A view is in one
// of two states, with an arena or without one; pressure relief and
// ReleaseColdestArenas move views to the second and keep them. Durable
// I/O is not this layer's job: each pool edit hands the whole pool to a
// DurableState (storage/durable_state.h), which writes it into the older
// of two manifest slots.
//
// CONCURRENCY MODEL (full walkthrough in ARCHITECTURE.md):
//
// Execute / ExecuteBatch / ExecuteFullScan are safe to call from any number
// of threads, concurrently with Update / FlushUpdates from any thread.
// Three mechanisms divide the work:
//
//   1. View-index shared mutex (`views_mu_`). Routing — picking the
//      covers that answer queries — holds it SHARED and briefly;
//      structural pool edits (insert / replace / evict) hold it EXCLUSIVE
//      and briefly. The actual page scans run under NO lock.
//   2. Epoch-based reclamation (`util/epoch.h`). A reader pins the views it
//      routed to with an epoch guard (entered while still holding the
//      shared lock — that ordering is the protocol's linchpin). Writers
//      that displace a view or an arena hand it to the epoch limbo list
//      instead of destroying it, so its mappings survive until every
//      possible referencing reader has exited; writers that must mutate
//      mappings IN PLACE (update application, swap-removes, arena release)
//      first take the index lock exclusively — blocking new readers — and
//      then wait for epoch quiescence, so no scan ever observes a torn
//      value or a vanishing mapping.
//   3. A single maintenance path (`maintenance_mu_`). Everything that
//      mutates engine state — update application, flushes, the
//      full-scan-and-adapt path that builds candidates — is serialized
//      through one mutex, so all the adaptation logic stays effectively
//      single-writer. Lock order is maintenance_mu_ -> views_mu_;
//      epoch guards never block on either, which is what makes the
//      quiescence wait deadlock-free.
//
// Cumulative metrics are relaxed atomics (see metrics()); per-view usage
// stats likewise (core/virtual_view.h).

#ifndef VMSV_CORE_ADAPTIVE_LAYER_H_
#define VMSV_CORE_ADAPTIVE_LAYER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/adaptive_config.h"
#include "core/scan.h"
#include "core/update_applier.h"
#include "core/view_pool.h"
#include "core/virtual_view.h"
#include "storage/column.h"
#include "storage/durable_state.h"
#include "storage/types.h"
#include "storage/update.h"
#include "util/epoch.h"
#include "util/status.h"

namespace vmsv {

/// Per-query execution statistics.
struct ExecStats {
  uint64_t scanned_pages = 0;
  uint64_t considered_views = 0;  // views scanned to answer the query
  uint64_t views_after = 0;       // pool size after the decision
  CandidateDecision decision = CandidateDecision::kNone;
};

/// A query answer plus its execution statistics.
struct QueryExecution {
  uint64_t match_count = 0;
  Value sum = 0;
  ExecStats stats;
};

/// Result of ExecuteBatch: per-query answers plus the batch-level page
/// accounting that makes the shared-scan win measurable.
struct BatchExecution {
  /// Per-query results, batch order. Result i is bit-identical (match_count
  /// and sum) to Execute(queries[i]). A shared pass's page cost is charged
  /// to the FIRST query of its group (scanned_pages = group pages) and 0 to
  /// the rest, so summing per-query stats matches the batch totals.
  std::vector<QueryExecution> queries;
  /// Unique pages scanned across the whole batch (each page of a shared
  /// pass counted once).
  uint64_t shared_scanned_pages = 0;
  /// What answering each query individually would have scanned (view pages
  /// per covered query, whole column per uncovered one).
  uint64_t individual_equivalent_pages = 0;
  /// Overlap groups among the uncovered queries (1 shared base pass serves
  /// them all; each page's zone from the column's table is tested against
  /// the group hulls first).
  uint64_t overlap_groups = 0;
  /// Queries answered from views / from the shared base pass.
  uint64_t view_answered = 0;
  uint64_t base_answered = 0;
};

/// Workload-accumulated counters. AdaptiveColumn::metrics() returns a
/// point-in-time SNAPSHOT of its internal relaxed atomics: individual
/// fields are exact once the workload quiesces, and only approximately
/// consistent with each other while queries are in flight.
struct CumulativeStats {
  uint64_t queries = 0;
  uint64_t scanned_pages = 0;
  uint64_t fullscan_equivalent_pages = 0;
  uint64_t views_created = 0;
  uint64_t views_discarded = 0;
  uint64_t views_replaced = 0;
  /// Pool members evicted by the cost-aware policy to admit a candidate.
  uint64_t views_evicted = 0;
  /// Candidates dropped at the max_views budget (the kBudgetExhausted
  /// outcome) — previously a silent decision; benches and tests assert on
  /// this counter.
  uint64_t candidates_dropped = 0;

  /// Fraction of page reads avoided relative to answering every query with
  /// a full scan.
  double PagesSavedRatio() const {
    if (fullscan_equivalent_pages == 0) return 0.0;
    return 1.0 - static_cast<double>(scanned_pages) /
                     static_cast<double>(fullscan_equivalent_pages);
  }
};

/// Point-in-time health snapshot (AdaptiveColumn::Health()). Degraded
/// flags describe the CURRENT state; counters accumulate over the column's
/// lifetime, so "recovered" means the flags cleared, not the counters.
/// Relaxed-atomic snapshot with the same consistency caveats as
/// CumulativeStats.
struct ColumnHealth {
  /// A durable append hit ENOSPC and no append has succeeded since: writes
  /// are being rejected, reads still answer exactly. Clears automatically
  /// on the first successful append (every Update re-probes).
  bool degraded_read_only = false;
  /// A mapping failure was seen and pressure relief has not yet confirmed
  /// the mapping layer healthy again.
  bool mapping_pressure = false;
  /// Mapping-layer operations (a view's threshold map, an alignment) that
  /// failed.
  uint64_t map_failures = 0;
  /// Queries a lone view answered over its page runs in the base mapping
  /// because its threshold map failed (each one was still answered
  /// exactly).
  uint64_t base_fallbacks = 0;
  /// Durable appends rejected by the journal (any errno).
  uint64_t journal_stalls = 0;
  /// Transitions into / out of read-only degraded mode.
  uint64_t read_only_entries = 0;
  uint64_t read_only_exits = 0;
  /// Arena counters (ARCHITECTURE.md "Arena release"): arenas released
  /// with their view kept, and arenas mapped at the threshold hit.
  uint64_t views_demoted = 0;
  uint64_t views_promoted = 0;
};

/// \internal
/// Direct AdaptiveColumn construction is an ENGINE-INTERNAL interface:
/// everything outside src/ creates columns through the vmsv::Db facade
/// (src/vmsv.h, core/db.h), whose Table holds one AdaptiveColumn per range
/// shard. The facade exposes shard(i) for white-box introspection where
/// tests need it.
class AdaptiveColumn {
 public:
  /// \internal Use vmsv::Db::Create.
  /// Error contract: InvalidArgument when `column` is null,
  /// config.max_views or config.materialize_after_hits is 0, or
  /// config.lifecycle.recency_half_life or eviction_margin is not > 0.
  static StatusOr<std::unique_ptr<AdaptiveColumn>> Create(
      std::unique_ptr<PhysicalColumn> column, const AdaptiveConfig& config);

  /// \internal Use vmsv::Db::CreateDurable.
  /// Creates a DURABLE column of `num_rows` zeroed values under `dir`
  /// (created if missing): column.dat + journal.wal + an initial MANIFEST.
  /// `config.storage.persist_dir` is overridden by `dir`.
  /// Error contract: FailedPrecondition when `dir` already holds a column
  /// (Open it instead); IoError on filesystem failures.
  static StatusOr<std::unique_ptr<AdaptiveColumn>> CreateDurable(
      const std::string& dir, uint64_t num_rows, AdaptiveConfig config);

  /// \internal Use vmsv::Db::Open.
  /// Reopens the durable column in `dir`: rebuilds the column over
  /// column.dat, replays the journal (replayed updates become pending for
  /// the next flush), and restores every view of the newest valid manifest
  /// slot (none valid: an empty pool, marked dirty) as a view without an
  /// arena (it answers over the base mapping until its hits reach
  /// materialize_after_hits) holding exactly the pages with a value in its
  /// range, derived from the data in the pass that computes page zones.
  /// Scans after Open are bit-identical to pre-restart scans. Replay is
  /// idempotent: killing the process after Open and reopening replays the
  /// same journal to the same state (the journal only resets at the next
  /// flush/checkpoint). At most config.max_views views are restored, in
  /// slot order — a column checkpointed under a larger budget reopens
  /// clamped, the rest re-adapt on demand. The journal fd carries an
  /// exclusive flock for the column's lifetime, so a second Open of a live
  /// column fails instead of corrupting it.
  /// Error contract: NotFound when `dir` has no manifest; IoError on a
  /// corrupt or older-layout manifest header or a corrupt journal header;
  /// FailedPrecondition when the column is already open elsewhere.
  static StatusOr<std::unique_ptr<AdaptiveColumn>> Open(const std::string& dir,
                                                        AdaptiveConfig config);

  /// Re-derives the exact zone of every page a write loosened (through
  /// Update or mutable_column()), in memory too. Durable only: also flush
  /// pending updates, push data per the flush policy, reset the journal,
  /// and write the pool into a manifest slot when it is dirty (every pool
  /// edit already wrote its own). An in-memory Checkpoint flushes nothing.
  /// There is deliberately NO destructor checkpoint:
  /// a process that exits without one is exactly the crash case recovery
  /// is tested against.
  Status Checkpoint();

  /// Answers q adaptively (Listing 1): from views when covered, else full
  /// scan + candidate creation + insert/discard/replace/evict decision.
  /// Runs ExecuteBatch's route-and-answer step on a batch of one, due
  /// maintenance included: mapping-pressure relief, and the flush of
  /// pending updates. Candidates are built lazily: the creating scan
  /// records the page list only, and the view reads its pages over the
  /// base mapping until its hits as a lone cover reach
  /// materialize_after_hits, so discarded candidates and rarely hit views
  /// never pay for mmap work. A map that fails (e.g. vm.max_map_count
  /// exhaustion) never surfaces: the view answers over its page runs, the
  /// answer is labeled kBaseFallback, and the pressure flag is set.
  /// Thread-safe; view-answered queries from different threads proceed in
  /// parallel, maintenance (flush/adapt) serializes.
  /// Error contract: InvalidArgument when q.lo > q.hi.
  StatusOr<QueryExecution> Execute(const RangeQuery& q);

  /// Answers N in-flight queries with shared scans: queries routed to the
  /// same cover share one pass over its pages (for a multi-view cover, the
  /// union of its members' pages over the base mapping), and ALL queries no
  /// view answered share ONE pass over the base column (each page is
  /// faulted and read at most once for the whole batch; its min/max zone
  /// from the column's table picks the queries that run the scan kernel on
  /// it). Results are bit-identical to Execute-ing each query
  /// individually, and the route-and-answer step is Execute's own, due
  /// maintenance included. The batch path builds no candidate views
  /// (adaptation stays on the single-query path), so it runs concurrently
  /// with other readers.
  StatusOr<BatchExecution> ExecuteBatch(const std::vector<RangeQuery>& queries);

  /// The non-adaptive baseline: scans the base column. Does not touch the
  /// view pool or the cumulative metrics. Thread-safe (epoch-protected
  /// against concurrent updates).
  /// Error contract: InvalidArgument when q.lo > q.hi, as Execute.
  StatusOr<QueryExecution> ExecuteFullScan(const RangeQuery& q) const;

  /// Applies an update to the base column and logs it for view alignment at
  /// the next flush/query. Excludes every in-flight reader (exclusive index
  /// lock + epoch quiescence) so no scan observes a torn write; between the
  /// update and the next flush, queries flush first — results always
  /// reflect an aligned state. In durable mode the update is additionally
  /// appended to the write-ahead journal BEFORE the cell write, and the
  /// call acknowledges per the configured policy: group_commit_batch > 0
  /// waits (via the journal's group commit, OUTSIDE the engine locks, so
  /// concurrent updaters batch onto one leader fsync) once a batch boundary
  /// is reached — batch 1 waits for every record; otherwise the append is
  /// buffered and the next flush is the commit point. Note the
  /// visibility/durability split under group commit:
  /// the new value is readable by other threads as soon as Update's locked
  /// section ends, but Update only RETURNS once the record is durable per
  /// policy — an acknowledged update is never lost to a crash.
  /// Error contract: InvalidArgument for an out-of-range row. A journal
  /// append failure surfaces here with both the in-memory column and the
  /// journal unchanged; a commit (fsync) failure surfaces after the cell
  /// write, meaning the value is visible but its durability is unknown —
  /// exactly a crash's contract.
  Status Update(uint64_t row, Value new_value);

  /// Aligns all views with the logged updates (§2.4/§2.5). Thread-safe.
  StatusOr<UpdateApplyStats> FlushUpdates();

  bool HasPendingUpdates() const {
    return pending_count_.load(std::memory_order_acquire) > 0;
  }

  const PhysicalColumn& column() const { return *column_; }
  PhysicalColumn* mutable_column() { return column_.get(); }
  /// The live pool. Do not call while other threads are querying — pool
  /// membership is guarded by the engine's internal locks.
  const PartialViewIndex& view_index() const { return view_index_; }
  /// Snapshot of the workload counters (see CumulativeStats).
  CumulativeStats metrics() const;
  const AdaptiveConfig& config() const { return config_; }
  /// True when this column persists under a directory.
  bool is_durable() const { return durable_ != nullptr; }
  /// Durability counters (default-constructed zeros for in-memory columns).
  /// The journal LSN watermarks are read live (they are atomics; everything
  /// else is maintenance-path data).
  DurabilityStats durability_stats() const {
    return durable_ != nullptr ? durable_->stats() : DurabilityStats{};
  }
  /// The engine's reclamation domain (test/introspection hook: limbo_size
  /// shows how many displaced views/arenas await quiescence).
  EpochManager& epoch_manager() const { return epoch_; }

  /// The degradation surface: current degraded flags + lifetime counters.
  /// Thread-safe (relaxed-atomic snapshot).
  ColumnHealth Health() const;

  /// Releases the arenas of up to `count` of the lowest-scoring views that
  /// hold one, keeping the views, and returns how many it released. The
  /// deterministic hook behind the tiering tests and bench; pressure relief
  /// runs the same routine. Thread-safe (serializes with maintenance).
  size_t ReleaseColdestArenas(size_t count);

 private:
  AdaptiveColumn(std::unique_ptr<PhysicalColumn> column,
                 const AdaptiveConfig& config)
      : column_(std::move(column)), config_(config) {}

  /// CreateDurable (`create_rows` set) and Open: DurableState opens the
  /// directory, then the engine rebuilds the pool from the recovered views
  /// within THIS configuration's budgets and queues the replayed journal.
  static StatusOr<std::unique_ptr<AdaptiveColumn>> OpenDurable(
      const std::string& dir, AdaptiveConfig config,
      std::optional<uint64_t> create_rows);

  /// The one route-and-answer step behind Execute and ExecuteBatch. Runs
  /// due maintenance (pressure relief, update flush) under maintenance_mu_
  /// — taken here unless `maintenance_held` says the caller holds it —
  /// then routes every query under one shared views_mu_ hold, enters
  /// `*guard` before releasing it, and answers each distinct cover with one
  /// shared scan, lock-free. A cover of one reads its view (the arena, or
  /// its page runs over the base mapping); the hit that takes its unmapped
  /// hits to materialize_after_hits maps it first, and a failed map labels
  /// the answer kBaseFallback. A cover of several reads the union of its
  /// members' pages over the base mapping and maps nothing. Resets and
  /// fills `out` (answers, stats, view-side page accounting; no workload
  /// counters) and returns the genuine misses, in batch order. `*guard`
  /// stays entered so the caller can answer them from the base column; it
  /// must be exited before the caller blocks on maintenance_mu_.
  StatusOr<std::vector<size_t>> AnswerFromViews(
      const std::vector<RangeQuery>& queries, bool maintenance_held,
      EpochManager::Guard* guard, BatchExecution* out);

  /// Answers queries[i] for every i in `members` exactly from the base
  /// column with ONE shared pass, under the caller's epoch guard. Makes no
  /// mapping syscalls, so it never errors.
  void AnswerFromBase(const std::vector<RangeQuery>& queries,
                      const std::vector<size_t>& members,
                      BatchExecution* out) const;

  /// The adaptation half of Listing 1: full scan + candidate, then
  /// admission decides (PartialViewIndex::Admit) and the outcome is applied
  /// in one views_mu_ exclusive section. Caller holds maintenance_mu_ and no
  /// epoch guard.
  StatusOr<QueryExecution> FullScanAndAdapt(const RangeQuery& q);

  /// Records a mapping-layer failure: health counters + the pressure flag
  /// the next maintenance pass relieves.
  void NoteMapFailure();

  /// Mapping-budget pressure relief: release the arena of the coldest
  /// materialized view — bounded attempts, linear backoff — until a probe
  /// mapping succeeds or the attempts run out. Caller holds
  /// maintenance_mu_.
  void RelievePressureLocked();

  /// Durable only: writes the whole pool into a manifest slot — the
  /// persistence step of every pool edit. Caller holds maintenance_mu_ (so
  /// the pool stays stable) and NOT views_mu_ — readers keep routing
  /// through the write.
  void PersistPoolLocked();

  /// Sets the durable pool's dirty bit — for a change no slot write
  /// carried yet (no-op in memory).
  void MarkDirty() {
    if (durable_ != nullptr) durable_->MarkDirty();
  }

  /// The pool as manifest records: each view's range and cost. Caller holds
  /// maintenance_mu_.
  std::vector<ManifestView> ManifestViewsLocked() const;

  /// Durable only: the checkpoint sequence over the current pool. Caller
  /// holds maintenance_mu_ (pool mutators all do, so the pool read is
  /// consistent without views_mu_).
  Status CheckpointLocked();

  /// Re-derives the zone of every loose page (PhysicalColumn::LoosePages)
  /// with the dispatched kernel. When some page is loose, takes views_mu_
  /// exclusive and waits for quiescence. Caller holds maintenance_mu_ (every
  /// engine writer does) and NOT views_mu_.
  void TightenZonesLocked();

  /// Releases the victims' arenas, keeping the views: views_mu_ exclusive,
  /// epoch quiescence, then reclamation once readers run again. Writes no
  /// manifest slot — ranges and membership do not change. Returns how many
  /// arenas it released. Caller holds maintenance_mu_ and NOT views_mu_.
  size_t ReleaseArenasLocked(const std::vector<VirtualView*>& victims);

  /// The flush. Caller holds maintenance_mu_; takes views_mu_ exclusive +
  /// epoch quiescence inside. Durable mode: syncs the journal first (the
  /// batch's commit point), then after alignment runs the checkpoint
  /// sequence when the batch held updates or the pool is dirty (a failed
  /// alignment dropped views).
  StatusOr<UpdateApplyStats> FlushUpdatesLocked();

  /// Swaps `candidate` into `victim`'s pool slot and parks the displaced
  /// view on the epoch limbo list (concurrent scans may still be inside
  /// it). Caller holds maintenance_mu_ AND views_mu_
  /// exclusive and bumps its own outcome counter. Returns false — candidate
  /// destroyed and counted as dropped — when `victim` is not in the pool.
  bool ReplaceInPoolLocked(VirtualView* victim,
                           std::unique_ptr<VirtualView> candidate);

  /// Internal counters behind metrics().
  struct AtomicStats {
    std::atomic<uint64_t> queries{0};
    std::atomic<uint64_t> scanned_pages{0};
    std::atomic<uint64_t> fullscan_equivalent_pages{0};
    std::atomic<uint64_t> views_created{0};
    std::atomic<uint64_t> views_discarded{0};
    std::atomic<uint64_t> views_replaced{0};
    std::atomic<uint64_t> views_evicted{0};
    std::atomic<uint64_t> candidates_dropped{0};
  };

  /// Internal counters/flags behind Health().
  struct HealthCounters {
    std::atomic<bool> degraded_read_only{false};
    std::atomic<uint64_t> map_failures{0};
    std::atomic<uint64_t> base_fallbacks{0};
    std::atomic<uint64_t> journal_stalls{0};
    std::atomic<uint64_t> read_only_entries{0};
    std::atomic<uint64_t> read_only_exits{0};
    std::atomic<uint64_t> views_demoted{0};
    std::atomic<uint64_t> views_promoted{0};
  };

  /// Bumps the workload counters for `count` answered queries (relaxed).
  void RecordQueries(uint64_t count, uint64_t scanned_pages) {
    metrics_.queries.fetch_add(count, std::memory_order_relaxed);
    metrics_.scanned_pages.fetch_add(scanned_pages, std::memory_order_relaxed);
    metrics_.fullscan_equivalent_pages.fetch_add(
        column_->num_pages() * count, std::memory_order_relaxed);
  }

  std::unique_ptr<PhysicalColumn> column_;
  AdaptiveConfig config_;
  /// Guards pool STRUCTURE (routing vs insert/replace/evict) and, held
  /// exclusively together with an epoch quiescence wait, fences readers off
  /// in-place mutations. Mutable: the const baseline scan is a reader too.
  mutable std::shared_mutex views_mu_;
  /// Serializes all engine mutation: update application, flushes,
  /// candidate-building full scans. Ordered BEFORE views_mu_.
  std::mutex maintenance_mu_;
  PartialViewIndex view_index_;
  UpdateBatch pending_;                     // guarded by maintenance_mu_
  std::atomic<size_t> pending_count_{0};    // lock-free mirror of pending_
  AtomicStats metrics_;
  HealthCounters health_;
  /// A mapping failure happened since the last relief pass; the next
  /// maintenance entry runs RelievePressureLocked.
  std::atomic<bool> pressure_pending_{false};
  std::unique_ptr<DurableState> durable_;   // guarded by maintenance_mu_
  /// Reclamation domain for displaced views/arenas. Declared after the
  /// members retired objects may reference; destroyed first, draining the
  /// limbo list while everything it points into is still alive.
  mutable EpochManager epoch_;
};

}  // namespace vmsv

#endif  // VMSV_CORE_ADAPTIVE_LAYER_H_
