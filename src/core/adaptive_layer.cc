#include "core/adaptive_layer.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <map>
#include <thread>

#include "exec/batch_executor.h"
#include "exec/parallel_scanner.h"
#include "exec/scan_kernels.h"
#include "rewiring/virtual_arena.h"
#include "rewiring/vm_io.h"
#include "util/macros.h"
#include "util/stopwatch.h"

namespace vmsv {

namespace {

/// Candidates are built with coalesced runs and lazily (§2.3): the creating
/// scan records the page list only, and the view maps its arena at its
/// materialize_after_hits-th hit, so discarded candidates never pay for
/// mmap work.
constexpr ViewCreationOptions kCandidateCreation{/*coalesce_runs=*/true,
                                                 /*background_mapping=*/false,
                                                 /*lazy_materialize=*/true};

/// Mapping-budget pressure relief: after a materialization failure the next
/// maintenance pass releases cold views' arenas and re-probes the mapping
/// layer, up to this many attempts with linear backoff between them, before
/// giving up until the next failure signal.
constexpr uint32_t kPressureReliefAttempts = 3;
constexpr std::chrono::microseconds kPressureReliefBackoff{100};

/// Sets every page's zone to its exact [min, max] and returns, for each of
/// `ranges`, the ascending pages holding a value in it — one pass over the
/// column, sharded across the pool. A range that contains a page's zone
/// takes the page unread (the zone is the page's exact min and max); only
/// a range the zone meets without containing reads it. Readers excluded.
std::vector<std::vector<uint64_t>> DeriveZonesAndMembers(
    PhysicalColumn* column, const std::vector<RangeQuery>& ranges) {
  const ParallelScanner scanner;
  std::vector<std::vector<std::vector<uint64_t>>> partial(
      std::max(1u, scanner.NumShards(column->num_pages())),
      std::vector<std::vector<uint64_t>>(ranges.size()));
  scanner.ForShards(
      column->num_pages(), [&](unsigned shard, uint64_t begin, uint64_t end) {
        std::vector<std::vector<uint64_t>>& members = partial[shard];
        for (uint64_t page = begin; page < end; ++page) {
          const Value* data = column->PageData(page);
          const PageZone zone = ComputePageZone(data, kValuesPerPage);
          column->SetZone(page, zone);
          for (size_t r = 0; r < ranges.size(); ++r) {
            const RangeQuery& range = ranges[r];
            if (!zone.Intersects(range)) continue;
            if ((range.lo <= zone.min && zone.max <= range.hi) ||
                PageContainsAny(data, kValuesPerPage, range)) {
              members[r].push_back(page);
            }
          }
        }
      });
  // Shards are ascending and contiguous, so concatenating them in shard
  // order keeps every list ascending.
  std::vector<std::vector<uint64_t>> members = std::move(partial[0]);
  for (size_t shard = 1; shard < partial.size(); ++shard) {
    for (size_t r = 0; r < ranges.size(); ++r) {
      members[r].insert(members[r].end(), partial[shard][r].begin(),
                        partial[shard][r].end());
    }
  }
  return members;
}

/// The configuration checks Create and the durable open share.
Status CheckConfig(const AdaptiveConfig& config) {
  if (config.max_views == 0) return InvalidArgument("max_views must be >= 1");
  if (config.materialize_after_hits == 0) {
    return InvalidArgument("materialize_after_hits must be >= 1");
  }
  // Negated so that NaN fails too.
  if (!(config.lifecycle.recency_half_life > 0)) {
    return InvalidArgument("lifecycle.recency_half_life must be > 0");
  }
  if (!(config.lifecycle.eviction_margin > 0)) {
    return InvalidArgument("lifecycle.eviction_margin must be > 0");
  }
  return OkStatus();
}

}  // namespace

// ---------------------------------------------------------------------------
// AdaptiveColumn

StatusOr<std::unique_ptr<AdaptiveColumn>> AdaptiveColumn::Create(
    std::unique_ptr<PhysicalColumn> column, const AdaptiveConfig& config) {
  if (column == nullptr) return InvalidArgument("AdaptiveColumn needs a column");
  VMSV_RETURN_IF_ERROR(CheckConfig(config));
  auto adaptive = std::unique_ptr<AdaptiveColumn>(
      new AdaptiveColumn(std::move(column), config));
  // Install the VmIo seam on the backing file: every arena built over it
  // from here on (view materialization, alignment, pressure probes)
  // resolves its syscall layer from the file. The base arena predates this
  // install, so base scans stay fault-free — the always-correct fallback.
  if (config.vm_io != nullptr) {
    adaptive->column_->file()->set_vm_io(config.vm_io);
  }
  return adaptive;
}

StatusOr<std::unique_ptr<AdaptiveColumn>> AdaptiveColumn::CreateDurable(
    const std::string& dir, uint64_t num_rows, AdaptiveConfig config) {
  return OpenDurable(dir, std::move(config), num_rows);
}

StatusOr<std::unique_ptr<AdaptiveColumn>> AdaptiveColumn::Open(
    const std::string& dir, AdaptiveConfig config) {
  return OpenDurable(dir, std::move(config), std::nullopt);
}

StatusOr<std::unique_ptr<AdaptiveColumn>> AdaptiveColumn::OpenDurable(
    const std::string& dir, AdaptiveConfig config,
    std::optional<uint64_t> create_rows) {
  // Create's own check, ahead of any file the durable open would write.
  VMSV_RETURN_IF_ERROR(CheckConfig(config));
  config.storage.persist_dir = dir;
  auto opened_r = DurableState::Open(dir, config.storage, create_rows);
  if (!opened_r.ok()) return opened_r.status();
  DurableState::Opened opened = std::move(opened_r).ValueOrDie();
  auto adaptive_r = Create(std::move(opened.column), config);
  if (!adaptive_r.ok()) return adaptive_r.status();
  auto adaptive = std::move(adaptive_r).ValueOrDie();
  adaptive->durable_ = std::move(opened.state);

  // Rebuild views as empty views without arenas over their persisted
  // ranges; the pass below derives their pages, and each view maps at its
  // materialize_after_hits-th hit. The restore respects THIS
  // configuration's budget: a column checkpointed under a larger max_views
  // must not pin the pool over the reopening process's limit. The first
  // max_views views in slot order are restored; the ranges of the rest
  // re-adapt on demand like any other range.
  std::vector<std::unique_ptr<VirtualView>> restored;
  std::vector<RangeQuery> ranges;
  for (const ManifestView& mview : opened.views) {
    if (restored.size() >= config.max_views) break;
    auto view_r =
        VirtualView::CreateEmpty(adaptive->column(), mview.lo, mview.hi);
    if (!view_r.ok()) return view_r.status();
    auto view = std::move(view_r).ValueOrDie();
    // Hit history does not survive a restart; the recorded creation cost
    // does, so eviction scoring stays calibrated from the first query.
    view->SetCreationInfo(/*query_seq=*/0, mview.creation_scanned_pages);
    ranges.push_back(view->value_range());
    restored.push_back(std::move(view));
  }

  // Attach starts every page zone at the full domain. A created file is
  // zeroed and restores no view. A reopened one holds the last process's
  // data plus the replayed journal, and one pass derives every page's
  // exact zone and every restored view's pages from it: the pool matches
  // the data before the first query, whatever a lost journal record left
  // behind in column.dat.
  Stopwatch derive_timer;
  PhysicalColumn* column = adaptive->column_.get();
  if (create_rows.has_value()) {
    for (uint64_t page = 0; page < column->num_pages(); ++page) {
      column->SetZone(page, PageZone{0, 0});
    }
  } else {
    std::vector<std::vector<uint64_t>> members =
        DeriveZonesAndMembers(column, ranges);
    for (size_t i = 0; i < restored.size(); ++i) {
      VMSV_RETURN_IF_ERROR(restored[i]->InstallPages(members[i]));
      adaptive->view_index_.Insert(std::move(restored[i]));
    }
  }
  adaptive->durable_->NoteRestored(restored.size(), opened.views.size(),
                                   derive_timer.ElapsedMillis());

  // The replayed records stay pending: the first flush consumes them (its
  // alignment moves nothing, the derived pages already reflect their
  // values) and its checkpoint resets the journal.
  adaptive->pending_ = std::move(opened.replayed);
  adaptive->pending_count_.store(adaptive->pending_.size(),
                                 std::memory_order_release);
  return adaptive;
}

Status AdaptiveColumn::Checkpoint() {
  std::lock_guard<std::mutex> maintenance(maintenance_mu_);
  if (durable_ != nullptr && !pending_.empty()) {
    // The flush path tightens the zones and runs the whole checkpoint
    // sequence itself.
    auto flushed = FlushUpdatesLocked();
    return flushed.ok() ? OkStatus() : flushed.status();
  }
  TightenZonesLocked();
  return durable_ != nullptr ? CheckpointLocked() : OkStatus();
}

void AdaptiveColumn::TightenZonesLocked() {
  const std::vector<uint64_t> loose = column_->LoosePages();
  if (loose.empty()) return;
  // Readers read the zones lock-free: fence them off, as for a data write.
  std::unique_lock<std::shared_mutex> xlock(views_mu_);
  epoch_.WaitQuiescent();
  PhysicalColumn* column = column_.get();
  ParallelScanner().ForShards(
      loose.size(), [&](unsigned, uint64_t begin, uint64_t end) {
        for (uint64_t i = begin; i < end; ++i) {
          column->SetZone(loose[i], ComputePageZone(column->PageData(loose[i]),
                                                    kValuesPerPage));
        }
      });
}

std::vector<ManifestView> AdaptiveColumn::ManifestViewsLocked() const {
  std::vector<ManifestView> views;
  views.reserve(view_index_.views().size());
  for (const auto& view : view_index_.views()) {
    // The range and cost, never the pages.
    views.push_back(ManifestView{
        view->lo(), view->hi(),
        view->usage().creation_scanned_pages.load(std::memory_order_relaxed)});
  }
  return views;
}

Status AdaptiveColumn::CheckpointLocked() {
  return durable_->Checkpoint([this] { return ManifestViewsLocked(); });
}

void AdaptiveColumn::PersistPoolLocked() {
  if (durable_ != nullptr) {
    durable_->PersistPool([this] { return ManifestViewsLocked(); });
  }
}

CumulativeStats AdaptiveColumn::metrics() const {
  CumulativeStats s;
  s.queries = metrics_.queries.load(std::memory_order_relaxed);
  s.scanned_pages = metrics_.scanned_pages.load(std::memory_order_relaxed);
  s.fullscan_equivalent_pages =
      metrics_.fullscan_equivalent_pages.load(std::memory_order_relaxed);
  s.views_created = metrics_.views_created.load(std::memory_order_relaxed);
  s.views_discarded = metrics_.views_discarded.load(std::memory_order_relaxed);
  s.views_replaced = metrics_.views_replaced.load(std::memory_order_relaxed);
  s.views_evicted = metrics_.views_evicted.load(std::memory_order_relaxed);
  s.candidates_dropped =
      metrics_.candidates_dropped.load(std::memory_order_relaxed);
  return s;
}

StatusOr<QueryExecution> AdaptiveColumn::ExecuteFullScan(
    const RangeQuery& q) const {
  if (q.lo > q.hi) return InvalidArgument("query lo > hi");
  QueryExecution exec;
  // Epoch entry under the shared lock: a concurrent Update's quiescence
  // wait then covers this scan, so it never reads a torn value.
  EpochManager::Guard guard;
  {
    std::shared_lock<std::shared_mutex> lock(views_mu_);
    exec.stats.views_after = view_index_.num_partial_views();
    guard = epoch_.Enter();
  }
  // Whole pages, not num_rows: view scans operate page-wise, so the baseline
  // must treat any zero-filled tail identically for results to compare equal.
  const ParallelScanner scanner;
  const PageScanResult r = scanner.ScanPages(
      reinterpret_cast<const Value*>(column_->base_arena().data()),
      column_->num_pages(), q);
  exec.match_count = r.match_count;
  exec.sum = r.sum;
  exec.stats.scanned_pages = column_->num_pages();
  exec.stats.decision = CandidateDecision::kNone;
  return exec;
}

StatusOr<std::vector<size_t>> AdaptiveColumn::AnswerFromViews(
    const std::vector<RangeQuery>& queries, bool maintenance_held,
    EpochManager::Guard* guard, BatchExecution* out) {
  *out = BatchExecution{};
  out->queries.resize(queries.size());
  std::vector<std::vector<VirtualView*>> covers(queries.size());
  {
    // Maintenance first, and only when due, so the common case never
    // touches maintenance_mu_. Results must reflect an ALIGNED state: the
    // pending_count_ store happens before an updater releases its exclusive
    // lock, so a shared holder sees either the pre-update pool or the
    // count. Having flushed, we route while still holding maintenance_mu_
    // (updates need the same mutex), so a sustained writer cannot starve us.
    std::unique_lock<std::mutex> maintenance(maintenance_mu_, std::defer_lock);
    const auto run_due_maintenance = [&]() -> Status {
      if (!maintenance_held && !maintenance.owns_lock()) maintenance.lock();
      // Shed mappings BEFORE mapping anything new: a map failure anywhere
      // set the pressure flag, and relieving it here gives the
      // materializations and adaptation that follow their best chance.
      if (pressure_pending_.exchange(false, std::memory_order_acq_rel)) {
        RelievePressureLocked();
      }
      if (pending_.empty()) return OkStatus();
      auto flushed = FlushUpdatesLocked();
      return flushed.ok() ? OkStatus() : flushed.status();
    };
    if (maintenance_held ||
        pressure_pending_.load(std::memory_order_acquire) ||
        HasPendingUpdates()) {
      VMSV_RETURN_IF_ERROR(run_due_maintenance());
    }
    std::shared_lock<std::shared_mutex> lock(views_mu_);
    if (pending_count_.load(std::memory_order_acquire) > 0) {
      // An updater slipped in between the check and the shared acquisition
      // (impossible while we hold maintenance_mu_): flush after all.
      lock.unlock();
      VMSV_RETURN_IF_ERROR(run_due_maintenance());
      lock.lock();
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      view_index_.Route(queries[i], config_, column_->num_pages(), &covers[i]);
    }
    const uint64_t views_after = view_index_.num_partial_views();
    for (QueryExecution& exec : out->queries) {
      exec.stats.views_after = views_after;
    }
    // Entered while the shared lock is still held — the protocol's
    // linchpin. The guard now pins every routed view: eviction only parks
    // them on the limbo list, and in-place mutation waits for our exit.
    // Both locks release here; the scans below run lock-free.
    *guard = epoch_.Enter();
  }

  // One group per distinct cover, in first-appearance order.
  std::map<std::vector<VirtualView*>, size_t> group_of;
  std::vector<std::vector<size_t>> groups;
  std::vector<size_t> missed;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (covers[i].empty()) {
      missed.push_back(i);
      continue;
    }
    const auto [slot, fresh] = group_of.emplace(covers[i], groups.size());
    if (fresh) groups.emplace_back();
    groups[slot->second].push_back(i);
  }

  const uint64_t seq = metrics_.queries.load(std::memory_order_relaxed);
  const uint64_t column_pages = column_->num_pages();
  for (const std::vector<size_t>& members : groups) {
    const std::vector<VirtualView*>& cover = covers[members.front()];
    bool mapped = true;
    bool all_arenas = true;
    for (VirtualView* view : cover) {
      // A view without an arena answers over the base mapping until its
      // hits reach the threshold; the hit that gets there maps it.
      if (!view->is_materialized() &&
          view->CountUnmappedHits(members.size()) >=
              config_.materialize_after_hits) {
        if (!view->EnsureMaterialized().ok()) {
          mapped = false;
          break;
        }
        health_.views_promoted.fetch_add(1, std::memory_order_relaxed);
      }
      all_arenas = all_arenas && view->is_materialized();
      for (size_t m = 0; m < members.size(); ++m) view->RecordHit(seq);
    }
    if (!mapped) {
      // Mapping failed (address space, VMA budget, transient EAGAIN). The
      // view stays consistently unmaterialized (EnsureMaterialized's
      // failure contract), one unmappable member poisons the whole cover,
      // and a READ must not surface a resource error: the base column
      // answers exactly, and the pressure flag asks the next maintenance
      // pass to shed mappings.
      NoteMapFailure();
      health_.base_fallbacks.fetch_add(members.size(),
                                       std::memory_order_relaxed);
      for (const size_t i : members) {
        out->queries[i].stats.decision = CandidateDecision::kBaseFallback;
        out->queries[i].stats.considered_views = cover.size();
        missed.push_back(i);
      }
      continue;
    }
    std::vector<RangeQuery> group;
    group.reserve(members.size());
    for (const size_t i : members) group.push_back(queries[i]);
    std::vector<PageScanResult> results;
    uint64_t cover_pages = 0;
    if (cover.size() == 1) {
      results = cover.front()->ScanMany(group, column_->zones());
      cover_pages = cover.front()->num_pages();
    } else {
      // Views in a cover may share physical pages; each is scanned once.
      // Counts and sums are associative wrap-around adds, so any split of
      // the union into passes is bit-identical to one scan of it.
      std::vector<uint64_t> seen((column_pages + 63) / 64, 0);
      if (all_arenas) {
        // Each arena scans the pages no earlier member claimed, claiming
        // them with a bit test-and-set.
        results.resize(members.size());
        for (const VirtualView* view : cover) {
          const std::vector<PageScanResult> partial = view->ScanManyIf(
              group, column_->zones(), [&seen](uint64_t page) {
                uint64_t& word = seen[page / 64];
                const uint64_t bit = uint64_t{1} << (page % 64);
                if ((word & bit) != 0) return false;
                word |= bit;
                return true;
              });
          for (size_t m = 0; m < members.size(); ++m) {
            results[m].Merge(partial[m]);
          }
        }
      } else {
        // Some member reads over the base mapping anyway: one shared pass
        // over the union of the members' pages answers the whole cover.
        for (const VirtualView* view : cover) view->OrMembersInto(&seen);
        results = BatchExecutor().SharedScanPageRuns(
            reinterpret_cast<const Value*>(column_->base_arena().data()),
            PageRunsOfBitmap(seen), group,
            ZoneTable{column_->zones(), nullptr});
      }
      for (const uint64_t word : seen) {
        cover_pages += static_cast<uint64_t>(__builtin_popcountll(word));
      }
    }
    for (size_t m = 0; m < members.size(); ++m) {
      QueryExecution& exec = out->queries[members[m]];
      exec.match_count = results[m].match_count;
      exec.sum = results[m].sum;
      exec.stats.considered_views = cover.size();
      exec.stats.decision = CandidateDecision::kAnsweredFromView;
      // The shared pass's cost lands on the group leader; followers rode
      // along for free.
      exec.stats.scanned_pages = m == 0 ? cover_pages : 0;
    }
    out->shared_scanned_pages += cover_pages;
    out->individual_equivalent_pages += cover_pages * members.size();
    out->view_answered += members.size();
  }
  std::sort(missed.begin(), missed.end());
  return missed;
}

void AdaptiveColumn::AnswerFromBase(const std::vector<RangeQuery>& queries,
                                    const std::vector<size_t>& members,
                                    BatchExecution* out) const {
  if (members.empty()) return;
  // The base arena was mapped before any fault seam was installed and is
  // never rewired, so this pass makes no mapping syscalls — it is the floor
  // the degradation policy stands on. The executor reads the column's zone
  // table (identity map) and skips every page no missed query can match.
  std::vector<RangeQuery> group;
  group.reserve(members.size());
  for (const size_t i : members) group.push_back(queries[i]);
  out->overlap_groups = GroupOverlappingQueries(group).size();
  const uint64_t column_pages = column_->num_pages();
  const BatchExecutor executor;
  const std::vector<PageScanResult> results = executor.SharedScanPages(
      reinterpret_cast<const Value*>(column_->base_arena().data()),
      column_pages, group, ZoneTable{column_->zones(), nullptr});
  for (size_t m = 0; m < members.size(); ++m) {
    QueryExecution& exec = out->queries[members[m]];
    exec.match_count = results[m].match_count;
    exec.sum = results[m].sum;
    exec.stats.scanned_pages = m == 0 ? column_pages : 0;
  }
  out->shared_scanned_pages += column_pages;
  out->individual_equivalent_pages += column_pages * members.size();
  out->base_answered = members.size();
}

StatusOr<QueryExecution> AdaptiveColumn::Execute(const RangeQuery& q) {
  if (q.lo > q.hi) return InvalidArgument("query lo > hi");
  const std::vector<RangeQuery> batch{q};
  BatchExecution out;
  // The batch step on a batch of one. False on a genuine miss; a view that
  // failed to map is answered from the base column instead. The guard
  // exits on return, before we may block on maintenance_mu_ (an updater
  // holding it waits for every guard).
  const auto answer = [&](bool maintenance_held) -> StatusOr<bool> {
    EpochManager::Guard guard;
    auto missed = AnswerFromViews(batch, maintenance_held, &guard, &out);
    if (!missed.ok()) return missed.status();
    if (!missed->empty() && out.queries.front().stats.decision !=
                                CandidateDecision::kBaseFallback) {
      return false;
    }
    AnswerFromBase(batch, *missed, &out);
    RecordQueries(1, out.shared_scanned_pages);
    return true;
  };
  auto answered = answer(/*maintenance_held=*/false);
  if (!answered.ok()) return answered.status();
  if (*answered) return out.queries.front();
  // A genuine miss adapts under maintenance_mu_. Re-run the step first:
  // another maintenance pass may have covered q while we waited for the
  // mutex.
  std::lock_guard<std::mutex> maintenance(maintenance_mu_);
  answered = answer(/*maintenance_held=*/true);
  if (!answered.ok()) return answered.status();
  if (*answered) return out.queries.front();
  return FullScanAndAdapt(q);
}

StatusOr<QueryExecution> AdaptiveColumn::FullScanAndAdapt(const RangeQuery& q) {
  // Caller holds maintenance_mu_: the base column's content is frozen (the
  // update path needs the same mutex) and this is the only candidate being
  // built, so the scan runs without any lock or guard.
  // The full scan doubles as candidate materialization (§2.3): one pass
  // answers the query and rewires the qualifying pages into a new view.
  auto built = BuildViewAndAnswer(*column_, q, kCandidateCreation,
                                  /*mapper=*/nullptr);
  if (!built.ok()) {
    const StatusCode code = built.status().code();
    if (code == StatusCode::kIoError || code == StatusCode::kResourceExhausted) {
      // Candidate materialization failed on a mapping syscall — adaptation
      // is an optimization, never a correctness requirement. Answer the
      // query from the base column and let a later, healthier pass adapt.
      NoteMapFailure();
      health_.failed_adaptations.fetch_add(1, std::memory_order_relaxed);
      health_.base_fallbacks.fetch_add(1, std::memory_order_relaxed);
      StatusOr<QueryExecution> exec = ExecuteFullScan(q);  // never fails
      exec->stats.decision = CandidateDecision::kBaseFallback;
      RecordQueries(1, exec->stats.scanned_pages);
      return exec;
    }
    return built.status();
  }
  std::unique_ptr<VirtualView> candidate = std::move(built->view);
  candidate->SetCreationInfo(metrics_.queries.load(std::memory_order_relaxed),
                             built->scanned_pages);

  QueryExecution exec;
  exec.match_count = built->query_result.match_count;
  exec.sum = built->query_result.sum;
  exec.stats.scanned_pages = built->scanned_pages;
  exec.stats.considered_views = 0;
  // Decide with readers routing, then apply.
  const Admission admission =
      view_index_.Admit(*candidate, config_,
                        metrics_.queries.load(std::memory_order_relaxed),
                        column_->num_pages());
  exec.stats.decision = admission.outcome;
  bool edited = false;
  {
    // The pool edit is the only part that needs to fence readers out of
    // ROUTING; their scans keep running (displaced views go to the limbo
    // list, not the destructor).
    std::unique_lock<std::shared_mutex> xlock(views_mu_);
    switch (admission.outcome) {
      case CandidateDecision::kInserted:
        view_index_.Insert(std::move(candidate));
        metrics_.views_created.fetch_add(1, std::memory_order_relaxed);
        edited = true;
        break;
      case CandidateDecision::kReplacedExisting:
      case CandidateDecision::kEvictedExisting:
        edited = ReplaceInPoolLocked(admission.target, std::move(candidate));
        if (!edited) {
          exec.stats.decision = CandidateDecision::kBudgetExhausted;
        } else if (admission.outcome == CandidateDecision::kReplacedExisting) {
          metrics_.views_replaced.fetch_add(1, std::memory_order_relaxed);
        } else {
          metrics_.views_evicted.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      case CandidateDecision::kDiscardedSubset:
        // An absorbing view may widen its range, which edits the pool; a
        // discard that widens nothing edits nothing.
        edited = admission.target != nullptr &&
                 admission.target->ExtendRange(candidate->lo(),
                                               candidate->hi());
        metrics_.views_discarded.fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        metrics_.candidates_dropped.fetch_add(1, std::memory_order_relaxed);
        break;
    }
  }
  epoch_.TryReclaim();
  // The pool changed: write it now so a kill right after this query
  // reopens with the new view.
  if (edited) PersistPoolLocked();
  // Safe without views_mu_: pool structure is frozen under maintenance_mu_,
  // which we hold.
  exec.stats.views_after = view_index_.num_partial_views();
  RecordQueries(1, exec.stats.scanned_pages);
  return exec;
}

bool AdaptiveColumn::ReplaceInPoolLocked(
    VirtualView* victim, std::unique_ptr<VirtualView> candidate) {
  // Every caller found the victim in this very pool, so a miss would be a
  // logic error — but degrading to a dropped candidate beats aborting the
  // process.
  auto displaced = view_index_.Replace(victim, std::move(candidate));
  if (!displaced.ok()) {
    metrics_.candidates_dropped.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Concurrent scans may still be inside the displaced view: park it on the
  // epoch limbo list; reclamation happens once they all exited.
  epoch_.RetireObject(std::move(displaced).ValueOrDie());
  return true;
}

// ---------------------------------------------------------------------------
// Arena release (ARCHITECTURE.md "Arena release")

size_t AdaptiveColumn::ReleaseArenasLocked(
    const std::vector<VirtualView*>& victims) {
  if (victims.empty()) return 0;
  size_t released = 0;
  {
    // ReleaseArena drops a view's slot list in place, so in-flight scans
    // must drain first. The victims cannot have left the pool: every
    // mutator holds maintenance_mu_.
    std::unique_lock<std::shared_mutex> xlock(views_mu_);
    epoch_.WaitQuiescent();
    for (VirtualView* victim : victims) {
      std::unique_ptr<VirtualArena> retired = victim->ReleaseArena();
      if (retired == nullptr) continue;
      epoch_.RetireObject(std::move(retired));
      health_.views_demoted.fetch_add(1, std::memory_order_relaxed);
      ++released;
    }
  }
  // Reclamation unmaps whole arenas — run it after readers are unblocked.
  epoch_.TryReclaim();
  return released;
}

size_t AdaptiveColumn::ReleaseColdestArenas(size_t count) {
  std::lock_guard<std::mutex> maintenance(maintenance_mu_);
  // Walking the pool needs no views_mu_ — its structure is frozen under
  // maintenance_mu_ (every mutator holds it), and only this lock's holders
  // release an arena.
  return ReleaseArenasLocked(view_index_.ColdestFirst(
      count, /*arenas_only=*/true, config_.lifecycle,
      metrics_.queries.load(std::memory_order_relaxed), column_->num_pages()));
}

// ---------------------------------------------------------------------------
// Batch execution (shared scans)

StatusOr<BatchExecution> AdaptiveColumn::ExecuteBatch(
    const std::vector<RangeQuery>& queries) {
  for (const RangeQuery& q : queries) {
    if (q.lo > q.hi) return InvalidArgument("query lo > hi");
  }
  BatchExecution out;
  if (queries.empty()) return out;
  EpochManager::Guard guard;
  auto missed =
      AnswerFromViews(queries, /*maintenance_held=*/false, &guard, &out);
  if (!missed.ok()) return missed.status();
  // ONE pass over the base column answers every query no view answered.
  AnswerFromBase(queries, *missed, &out);
  RecordQueries(queries.size(), out.shared_scanned_pages);
  return out;
}

// ---------------------------------------------------------------------------
// Updates

Status AdaptiveColumn::Update(uint64_t row, Value new_value) {
  std::unique_lock<std::mutex> maintenance(maintenance_mu_);
  if (row >= column_->num_rows()) {
    return InvalidArgument("Update row " + std::to_string(row) +
                           " beyond column (" +
                           std::to_string(column_->num_rows()) + " rows)");
  }
  // Journal-ahead: the record reaches the log BEFORE the MAP_SHARED cell
  // mutates. The inverse order would let a kill between Set and Append
  // persist a data mutation (via the page cache) with no WAL record, so
  // restored views would never be realigned for it. A kill after Append but
  // before Set merely replays the idempotent record on Open. Updates are
  // serialized under maintenance_mu_ and readers never write, so the
  // pre-image read here equals what Set returns below.
  //
  // Acknowledgment policy (ack_lsn > 0 means "wait for this LSN before
  // returning"): with group_commit_batch = B, the update whose record lands
  // on a multiple-of-B LSN commits through its own LSN — one leader fsync
  // covers its whole batch (and, since the leader syncs the CURRENT append
  // watermark, any records concurrent committers appended meanwhile).
  // Appends are serialized under maintenance_mu_, so exactly every B-th
  // record triggers a commit: N updates cause at most ceil(N/B) fsyncs no
  // matter how many threads issue them (the fsync-accounting regression
  // test pins this). Off-boundary updates return unacknowledged; their
  // durability lands at the next boundary or flush; B = 1 acknowledges
  // every update through its own LSN. The WAIT runs below, after every
  // engine lock is released, so a slow fsync never extends the
  // reader-exclusion window and concurrent committers can batch onto one
  // leader.
  uint64_t ack_lsn = 0;
  if (durable_ != nullptr) {
    const Status appended = durable_->AppendUpdate(
        RowUpdate{row, column_->Get(row), new_value}, &ack_lsn);
    if (!appended.ok()) {
      health_.journal_stalls.fetch_add(1, std::memory_order_relaxed);
      // Disk full: enter explicit read-only degraded mode instead of making
      // callers parse messages. No data mutated (journal-ahead order), so
      // reads keep answering from the consistent pre-update state. Every
      // Update re-probes the journal, so the mode clears automatically on
      // the first append that succeeds after space is freed.
      if (appended.sys_errno() == ENOSPC &&
          !health_.degraded_read_only.exchange(true,
                                               std::memory_order_acq_rel)) {
        health_.read_only_entries.fetch_add(1, std::memory_order_relaxed);
      }
      return appended;
    }
    if (health_.degraded_read_only.exchange(false,
                                            std::memory_order_acq_rel)) {
      health_.read_only_exits.fetch_add(1, std::memory_order_relaxed);
    }
  }
  {
    std::unique_lock<std::shared_mutex> xlock(views_mu_);
    // In-place mutation: block new readers (exclusive lock), wait out the
    // in-flight ones (quiescence), then write. No scan ever sees the torn
    // value or an unaligned state — pending_count_ is published before any
    // new reader can route.
    epoch_.WaitQuiescent();
    const Value old_value = column_->Set(row, new_value);
    pending_.Add(RowUpdate{row, old_value, new_value});
    pending_count_.store(pending_.size(), std::memory_order_release);
  }
  maintenance.unlock();
  // The durability wait. Note the visibility/durability split: the value is
  // already readable by other threads here, but this call only returns once
  // the record is on stable storage — an acknowledged update survives any
  // crash. An fsync failure reports durability-unknown, the crash contract.
  if (ack_lsn > 0) return durable_->CommitThrough(ack_lsn);
  return OkStatus();
}

StatusOr<UpdateApplyStats> AdaptiveColumn::FlushUpdates() {
  std::lock_guard<std::mutex> maintenance(maintenance_mu_);
  return FlushUpdatesLocked();
}

StatusOr<UpdateApplyStats> AdaptiveColumn::FlushUpdatesLocked() {
  // Durable commit point: every journaled record of this batch is on
  // stable storage before alignment consumes the batch. (Records already
  // committed by the per-update ack or a group-commit leader make this a
  // cheap no-op fdatasync; a partial trailing group-commit batch gets
  // committed here.)
  if (durable_ != nullptr && !pending_.empty()) {
    VMSV_RETURN_IF_ERROR(durable_->SyncJournal());
  }
  // Each Set of the batch widened its page's zone and marked it loose.
  // Tightening fences the readers off in its own section; while updates
  // are pending no reader routes, so the fence below finds nobody new.
  TightenZonesLocked();
  std::unique_lock<std::shared_mutex> xlock(views_mu_);
  // Alignment unmaps/remaps view slots in place; fence all readers off.
  epoch_.WaitQuiescent();
  auto stats = AlignPartialViews(*column_, view_index_.MutableViews(),
                                 pending_, MappingSource::kUserSpaceTable);
  bool reclaim_after = false;
  if (!stats.ok()) {
    const StatusCode code = stats.status().code();
    if (code != StatusCode::kIoError &&
        code != StatusCode::kResourceExhausted) {
      return stats;
    }
    // Alignment died on a mapping syscall, leaving an unknown subset of the
    // views partially realigned — one could miss a page that now holds a
    // value in its range. The base column already holds every update
    // (Update writes the cell before logging), so the views are pure
    // optimization state: drop them all, consume the batch, and let queries
    // full-scan and re-adapt.
    // This is the one failure that empties the pool wholesale — alignment
    // gives no per-view failure attribution.
    NoteMapFailure();
    for (auto& view : view_index_.TakeAll()) {
      epoch_.RetireObject(std::move(view));
    }
    MarkDirty();
    reclaim_after = true;
    stats = UpdateApplyStats{};
  }
  const bool had_updates = !pending_.empty();
  pending_.clear();
  pending_count_.store(0, std::memory_order_release);
  // Reclamation unmaps whole arenas — run it after readers are unblocked,
  // not inside the exclusive section.
  xlock.unlock();
  if (reclaim_after) epoch_.TryReclaim();
  // Then the checkpoint sequence (data writeback per policy, the journal
  // reset, the pool when it is dirty). Runs outside views_mu_ —
  // maintenance_mu_ alone keeps the pool stable — so readers are not
  // blocked on fsync.
  if (durable_ != nullptr && (had_updates || durable_->dirty())) {
    VMSV_RETURN_IF_ERROR(CheckpointLocked());
  }
  return stats;
}

// ---------------------------------------------------------------------------
// Degradation and health

ColumnHealth AdaptiveColumn::Health() const {
  ColumnHealth h;
  h.degraded_read_only =
      health_.degraded_read_only.load(std::memory_order_relaxed);
  h.mapping_pressure = pressure_pending_.load(std::memory_order_relaxed);
  h.map_failures = health_.map_failures.load(std::memory_order_relaxed);
  h.base_fallbacks = health_.base_fallbacks.load(std::memory_order_relaxed);
  h.failed_adaptations =
      health_.failed_adaptations.load(std::memory_order_relaxed);
  h.journal_stalls = health_.journal_stalls.load(std::memory_order_relaxed);
  h.read_only_entries =
      health_.read_only_entries.load(std::memory_order_relaxed);
  h.read_only_exits = health_.read_only_exits.load(std::memory_order_relaxed);
  h.views_demoted = health_.views_demoted.load(std::memory_order_relaxed);
  h.views_promoted = health_.views_promoted.load(std::memory_order_relaxed);
  return h;
}

void AdaptiveColumn::NoteMapFailure() {
  health_.map_failures.fetch_add(1, std::memory_order_relaxed);
  // Ask the next maintenance pass to shed mappings before it builds
  // anything new.
  pressure_pending_.store(true, std::memory_order_release);
}

void AdaptiveColumn::RelievePressureLocked() {
  // Mapping syscalls have been failing (ENOMEM/EAGAIN or a VMA budget).
  // Probe whether a fresh single-slot arena maps; while it does not,
  // release the coldest materialized view's arena, reclaim, and retry with
  // linear backoff up to kPressureReliefAttempts. The view stays in the
  // pool and answers over the base mapping. Giving up re-arms the pressure
  // flag so the next maintenance pass tries again.
  if (column_->num_pages() == 0) return;
  for (uint32_t attempt = 0; attempt < kPressureReliefAttempts; ++attempt) {
    {
      auto probe = VirtualArena::Create(column_->file(), 1);
      if (probe.ok() && (*probe)->MapRange(0, 0, 1).ok()) {
        return;  // mappings work again; pressure relieved
      }
    }
    // The victim pick needs no views_mu_: pool structure is frozen under
    // maintenance_mu_ (our caller holds it) and is_materialized() is an
    // acquire load. Unmaterialized views hold no mappings to shed.
    const std::vector<VirtualView*> coldest = view_index_.ColdestFirst(
        1, /*arenas_only=*/true, config_.lifecycle,
        metrics_.queries.load(std::memory_order_relaxed), column_->num_pages());
    if (coldest.empty()) break;  // nothing left to shed
    if (ReleaseArenasLocked(coldest) == 0) break;
    std::this_thread::sleep_for(kPressureReliefBackoff * (attempt + 1));
  }
  // Could not confirm recovery: leave the flag set for the next pass.
  pressure_pending_.store(true, std::memory_order_release);
}

}  // namespace vmsv
