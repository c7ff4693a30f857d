#include "core/adaptive_layer.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <map>
#include <thread>
#include <unordered_set>

#include "exec/batch_executor.h"
#include "exec/parallel_scanner.h"
#include "rewiring/virtual_arena.h"
#include "rewiring/vm_io.h"
#include "storage/cold_tier.h"
#include "storage/manifest.h"
#include "storage/storage_io.h"
#include "util/macros.h"
#include "util/stopwatch.h"

namespace vmsv {

namespace {

/// Candidates are built with coalesced runs and lazily (§2.3): the creating
/// scan records the page list only, and the view rewires on the first query
/// it answers, so discarded candidates never pay for mmap work.
constexpr ViewCreationOptions kCandidateCreation{/*coalesce_runs=*/true,
                                                 /*background_mapping=*/false,
                                                 /*lazy_materialize=*/true};

/// Mapping-budget pressure relief: after a materialization failure the next
/// maintenance pass evicts cold materialized views and re-probes the mapping
/// layer, up to this many attempts with linear backoff between them, before
/// giving up until the next failure signal.
constexpr uint32_t kPressureReliefAttempts = 3;
constexpr std::chrono::microseconds kPressureReliefBackoff{100};

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

// ---------------------------------------------------------------------------
// PartialViewIndex

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

bool PartialViewIndex::FindCover(const RangeQuery& q, bool cost_based,
                                 std::vector<VirtualView*>* cover) const {
  cover->clear();
  // Greedy interval covering over the value domain: repeatedly choose among
  // the views starting at or below the uncovered point the one that extends
  // coverage furthest (or cheapest per unit, when cost-based).
  Value point = q.lo;
  while (true) {
    VirtualView* best = nullptr;
    double best_score = 0;
    for (const auto& view : views_) {
      if (view->lo() > point || view->hi() < point) continue;
      const Value extension = view->hi() - point;
      if (extension == 0 && point < q.hi) continue;
      double score;
      if (cost_based) {
        // New coverage per page scanned — maximize (the +1s avoid
        // div-by-zero and keep zero-extension finishers eligible).
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
    if (best == nullptr) {  // gap at `point`: no partial cover escapes
      cover->clear();
      return false;
    }
    cover->push_back(best);
    if (best->hi() >= q.hi) return true;
    point = best->hi() + 1;
  }
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

StatusOr<std::unique_ptr<VirtualView>> PartialViewIndex::Remove(
    VirtualView* view) {
  for (auto it = views_.begin(); it != views_.end(); ++it) {
    if (it->get() == view) {
      std::unique_ptr<VirtualView> detached = std::move(*it);
      views_.erase(it);
      return StatusOr<std::unique_ptr<VirtualView>>(std::move(detached));
    }
  }
  return FailedPrecondition("Remove target not in pool");
}

// ---------------------------------------------------------------------------
// AdaptiveColumn

StatusOr<std::unique_ptr<AdaptiveColumn>> AdaptiveColumn::Create(
    std::unique_ptr<PhysicalColumn> column, const AdaptiveConfig& config) {
  if (column == nullptr) return InvalidArgument("AdaptiveColumn needs a column");
  if (config.max_views == 0) return InvalidArgument("max_views must be >= 1");
  auto adaptive = std::unique_ptr<AdaptiveColumn>(
      new AdaptiveColumn(std::move(column), config));
  // Install the VmIo seam on the backing file: every arena built over it
  // from here on (view materialization, compaction, pressure probes)
  // resolves its syscall layer from the file. The base arena predates this
  // install, so base scans stay fault-free — the always-correct fallback.
  if (config.vm_io != nullptr) {
    adaptive->column_->file()->set_vm_io(config.vm_io);
  }
  return adaptive;
}

StatusOr<std::unique_ptr<AdaptiveColumn>> AdaptiveColumn::CreateDurable(
    const std::string& dir, uint64_t num_rows, AdaptiveConfig config) {
  if (dir.empty()) return InvalidArgument("CreateDurable needs a directory");
  config.storage.persist_dir = dir;
  StorageIo* io = config.storage.io != nullptr ? config.storage.io
                                               : RealStorageIo();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return IoError("create_directories " + dir + ": " + ec.message());
  // The journal's flock is the directory's single-writer lock; take it
  // BEFORE the manifest-existence check and column.dat creation. Two racing
  // CreateDurable calls otherwise both pass the check, and the flock loser
  // has by then O_TRUNC'ed the winner's live column.dat — zeroing its data
  // and SIGBUSing its mappings during the size-0 window.
  auto journal_r = WriteAheadJournal::Open(dir + "/journal.wal", io);
  if (!journal_r.ok()) return journal_r.status();
  if (std::filesystem::exists(ManifestPath(dir))) {
    return FailedPrecondition(dir + " already holds a column (use Open)");
  }
  // A leftover journal (e.g. the user removed a corrupt MANIFEST to start
  // over) must not leak records into the fresh column: a kill before the
  // first checkpoint would replay the previous incarnation's values onto
  // the new data. Drop them now. A leftover delta log is epoch-filtered
  // away at recovery, but drop it too so stale records never linger.
  if (journal_r->journal->record_count() > 0) {
    VMSV_RETURN_IF_ERROR(journal_r->journal->Reset());
  }
  auto delta_r = ManifestDeltaLog::Open(dir, io);
  if (!delta_r.ok()) return delta_r.status();
  if (delta_r->log->record_count() > 0) {
    VMSV_RETURN_IF_ERROR(delta_r->log->Reset());
  }
  const uint64_t pages = (num_rows + kValuesPerPage - 1) / kValuesPerPage;
  auto file_r = PhysicalMemoryFile::CreateAt(dir + "/column.dat", pages);
  if (!file_r.ok()) return file_r.status();
  auto file =
      std::make_shared<PhysicalMemoryFile>(std::move(file_r).ValueOrDie());
  auto column_r = PhysicalColumn::Attach(std::move(file), num_rows);
  if (!column_r.ok()) return column_r.status();
  auto adaptive_r = Create(std::move(column_r).ValueOrDie(), config);
  if (!adaptive_r.ok()) return adaptive_r.status();
  auto adaptive = std::move(adaptive_r).ValueOrDie();

  adaptive->durable_ = std::make_unique<DurableState>();
  adaptive->durable_->dir = dir;
  adaptive->durable_->io = io;
  adaptive->durable_->journal = std::move(journal_r.ValueOrDie().journal);
  adaptive->durable_->delta_log = std::move(delta_r.ValueOrDie().log);
  // The initial (empty-pool) manifest makes the directory openable from the
  // first moment — a kill before any flush recovers to a fresh column. The
  // column is not yet visible to any other thread, but take maintenance_mu_
  // anyway to honor WriteManifestSnapshotLocked's locking contract.
  std::lock_guard<std::mutex> maintenance(adaptive->maintenance_mu_);
  VMSV_RETURN_IF_ERROR(adaptive->WriteManifestSnapshotLocked());
  return adaptive;
}

StatusOr<std::unique_ptr<AdaptiveColumn>> AdaptiveColumn::Open(
    const std::string& dir, AdaptiveConfig config) {
  if (dir.empty()) return InvalidArgument("Open needs a directory");
  config.storage.persist_dir = dir;
  StorageIo* io = config.storage.io != nullptr ? config.storage.io
                                               : RealStorageIo();
  Stopwatch recover_timer;
  // The NotFound contract (no column here) is decided on the manifest; check
  // it before the journal open below creates journal.wal in a directory that
  // never held a column.
  if (!std::filesystem::exists(ManifestPath(dir))) {
    return NotFound("no manifest at " + ManifestPath(dir));
  }
  // Journal open FIRST: its flock is the column directory's single-writer
  // lock, and everything after this point may MUTATE durable state (the
  // delta log truncates torn tails at open; replay writes cells). A second
  // Open of a live column must fail before touching any of that.
  auto journal_r = WriteAheadJournal::Open(dir + "/journal.wal", io);
  if (!journal_r.ok()) return journal_r.status();
  auto opened = std::move(journal_r).ValueOrDie();

  auto manifest_r = ReadManifest(dir);
  if (!manifest_r.ok()) return manifest_r.status();
  ViewManifest manifest = std::move(manifest_r).ValueOrDie();
  // Compose the incremental manifest: base snapshot + every delta stamped
  // with its epoch, in append order.
  auto delta_r = ManifestDeltaLog::Open(dir, io);
  if (!delta_r.ok()) return delta_r.status();
  auto delta_opened = std::move(delta_r).ValueOrDie();
  const uint64_t deltas_applied =
      ApplyManifestDeltas(&manifest, delta_opened.replayed);

  auto file_r =
      PhysicalMemoryFile::OpenAt(dir + "/column.dat", manifest.num_pages);
  if (!file_r.ok()) return file_r.status();
  auto file =
      std::make_shared<PhysicalMemoryFile>(std::move(file_r).ValueOrDie());
  auto column_r = PhysicalColumn::Attach(std::move(file), manifest.num_rows);
  if (!column_r.ok()) return column_r.status();
  auto adaptive_r = Create(std::move(column_r).ValueOrDie(), config);
  if (!adaptive_r.ok()) return adaptive_r.status();
  auto adaptive = std::move(adaptive_r).ValueOrDie();
  adaptive->durable_ = std::make_unique<DurableState>();
  DurableState& durable = *adaptive->durable_;
  durable.dir = dir;
  durable.io = io;
  durable.journal = std::move(opened.journal);
  durable.delta_log = std::move(delta_opened.log);
  durable.manifest_epoch = manifest.epoch;
  durable.next_view_id = manifest.next_view_id;
  durable.stats.manifest_deltas_replayed = deltas_applied;
  durable.stats.manifest_delta_tail_truncated = delta_opened.tail_truncated;

  // Rebuild views as unmaterialized page lists; the first scan pays the
  // rewiring lazily, so Open stays proportional to the manifest size.
  // The restore respects THIS configuration's budget: a column
  // checkpointed under a larger max_views must not pin the pool over the
  // reopening process's limit (nothing below ever shrinks the pool, so an
  // over-budget restore would persist for the process lifetime). Views
  // beyond the budget are simply not restored — their ranges re-adapt on
  // demand like any cold range.
  size_t hot_restored = 0;
  size_t cold_restored = 0;
  for (const ManifestView& mview : manifest.views) {
    // Tier resolution first (it decides which budget the view counts
    // against). For a demoted entry the cold file is authoritative — the
    // base snapshot persisted it with an empty page list. An entry whose
    // demote delta landed but whose snapshot never re-spilled carries its
    // pages inline; an unreadable cold file with no inline fallback drops
    // the view (views are reconstructible, and the dirty flag below makes
    // the next checkpoint converge the manifest).
    std::vector<uint64_t> pages = mview.pages;
    bool as_cold = false;
    if (mview.demoted) {
      auto cold_r = ReadColdViewFile(dir, mview.id);
      if (cold_r.ok()) {
        pages = std::move(cold_r).ValueOrDie();
      } else if (mview.pages.empty()) {
        // Nothing trustworthy to restore from: drop the entry (views are
        // reconstructible) and dirty the manifest explicitly so the next
        // checkpoint rewrites it without the dead entry, rather than
        // relying on the clamped-restore check below to notice the gap.
        durable.manifest_dirty = true;
        continue;
      }
      // With demotion disabled in THIS configuration the view reopens hot:
      // it holds no mapping yet either way, and the pool must not carry
      // tier state the policy layer would never clear.
      as_cold = config.lifecycle.enable_demotion;
    }
    if (as_cold ? cold_restored >= adaptive->ColdBudget()
                : hot_restored >= config.max_views) {
      continue;  // over THIS configuration's budget; re-adapts on demand
    }
    auto view_r =
        VirtualView::CreateEmpty(adaptive->column(), mview.lo, mview.hi);
    if (!view_r.ok()) return view_r.status();
    auto view = std::move(view_r).ValueOrDie();
    VMSV_RETURN_IF_ERROR(
        view->RestorePages(pages, adaptive->column().num_pages()));
    // Hit history does not survive a restart; the recorded creation cost
    // does, so eviction scoring stays calibrated from the first query.
    view->SetCreationInfo(/*query_seq=*/0, mview.creation_scanned_pages);
    // Keep the persisted identity so post-restart delta records keep
    // addressing this view; the belt-and-suspenders raise below covers a
    // base written before ids existed (id 0 gets a fresh one).
    view->set_durable_id(mview.id != 0 ? mview.id : durable.next_view_id);
    if (view->durable_id() >= durable.next_view_id) {
      durable.next_view_id = view->durable_id() + 1;
    }
    if (as_cold) {
      view->set_demoted(true);
      ++cold_restored;
      adaptive->health_.cold_view_reloads.fetch_add(1,
                                                    std::memory_order_relaxed);
    } else {
      // A demoted entry reopened hot (demotion disabled here): the on-disk
      // tier state is now stale, so force a snapshot at the next checkpoint.
      if (mview.demoted) durable.manifest_dirty = true;
      ++hot_restored;
    }
    adaptive->view_index_.Insert(std::move(view));
    ++durable.stats.views_restored;
  }
  durable.persisted_pool_mutations = adaptive->lifecycle_.pool_mutations();
  // A budget-clamped restore leaves the on-disk manifest listing views the
  // pool no longer holds; dirty it so the next flush/checkpoint converges.
  if (durable.stats.views_restored < manifest.views.size()) {
    durable.manifest_dirty = true;
  }

  // Journal replay: re-apply every journaled value (idempotent — absolute
  // values) and queue the records as pending, so the flush-first rule
  // realigns the restored views before any post-restart query answers.
  durable.stats.journal_tail_truncated = opened.tail_truncated;
  for (const RowUpdate& update : opened.replayed) {
    if (update.row >= adaptive->column().num_rows()) {
      return IoError("journal record for row " + std::to_string(update.row) +
                     " beyond column (" +
                     std::to_string(adaptive->column().num_rows()) + " rows)");
    }
    adaptive->mutable_column()->Set(update.row, update.new_value);
    // The RECORDED old value feeds net-effect filtering; the current cell
    // holds the new value already after the Set above (or after a previous
    // replay), so re-reading it would drop the record as a no-op.
    adaptive->pending_.Add(update);
    ++durable.stats.journal_replayed;
  }
  adaptive->pending_count_.store(adaptive->pending_.size(),
                                 std::memory_order_release);
  durable.stats.open_recover_ms = recover_timer.ElapsedMillis();
  return adaptive;
}

Status AdaptiveColumn::Checkpoint() {
  if (durable_ == nullptr) return OkStatus();
  std::lock_guard<std::mutex> maintenance(maintenance_mu_);
  if (!pending_.empty()) {
    // The flush path runs the whole checkpoint sequence itself.
    auto flushed = FlushUpdatesLocked(/*compact_after=*/true);
    return flushed.ok() ? OkStatus() : flushed.status();
  }
  return PersistCheckpointLocked();
}

Status AdaptiveColumn::WriteManifestSnapshotLocked() {
  DurableState& durable = *durable_;
  ViewManifest manifest;
  manifest.num_rows = column_->num_rows();
  manifest.num_pages = column_->num_pages();
  manifest.pool_generation = lifecycle_.pool_mutations();
  // Each base snapshot opens a fresh delta epoch: records appended after it
  // are stamped with the new epoch, and records from before it (which this
  // snapshot subsumes) are epoch-filtered away even if the Reset below
  // never lands.
  manifest.epoch = durable.manifest_epoch + 1;
  manifest.next_view_id = durable.next_view_id;
  manifest.views.reserve(view_index_.views().size());
  bool respill_failed = false;
  std::unordered_set<uint64_t> live_cold_ids;
  for (const auto& view : view_index_.views()) {
    ManifestView mview;
    mview.id = view->durable_id();
    mview.lo = view->lo();
    mview.hi = view->hi();
    mview.creation_scanned_pages = view->usage().creation_scanned_pages.load(
        std::memory_order_relaxed);
    mview.demoted = view->demoted();
    if (mview.demoted) {
      // The cold file is authoritative for a demoted view, and its
      // membership may have drifted since the demotion-time spill (update
      // alignment edits unmaterialized views too) — re-spill it now and
      // persist the base entry with an EMPTY page list.
      const Status spilled =
          WriteColdViewFile(durable.dir, mview.id, view->physical_pages(),
                            config_.storage.data_flush == FlushPolicy::kSync,
                            durable.io);
      if (spilled.ok()) {
        live_cold_ids.insert(mview.id);
      } else {
        // Failed re-spill (ENOSPC/EIO): the demotion-time cold file on disk
        // is now STALE, and Open prefers a readable cold file — recovering
        // through it would resurrect membership from before the drift,
        // silently corrupting answers. Persist the entry HOT with its pages
        // inline so recovery never consults the cold file, and unlink the
        // stale file too (belt and suspenders; unlink succeeds even on the
        // full disk that failed the spill). The view itself stays demoted —
        // the snapshot merely understates the tier — and the dirty flag
        // kept below retries the spill at the next checkpoint.
        ++durable.stats.manifest_write_failures;
        respill_failed = true;
        RemoveColdViewFile(durable.dir, mview.id);
        mview.demoted = false;
        mview.pages = view->physical_pages();
      }
    } else {
      mview.pages = view->physical_pages();
    }
    manifest.views.push_back(std::move(mview));
  }
  VMSV_RETURN_IF_ERROR(
      WriteManifest(durable.dir, manifest,
                    config_.storage.data_flush == FlushPolicy::kSync,
                    durable.io));
  durable.manifest_epoch = manifest.epoch;
  ++durable.stats.manifest_writes;
  // A failed re-spill leaves the on-disk snapshot understating the tier
  // state (the entry went down hot); stay dirty so the next checkpoint
  // retries the spill instead of considering the pool converged.
  durable.manifest_dirty = respill_failed;
  durable.persisted_pool_mutations = lifecycle_.pool_mutations();
  // The snapshot just written names every cold file recovery may read;
  // unlink the rest — promoted views' leftovers, spills of views destroyed
  // by Replace/trim/emergency eviction, crash orphans — so a long-lived
  // store cannot accumulate unreferenced .cold files. Best-effort, and
  // safe against a later crash: an OLDER manifest resurrected by a failed
  // future snapshot could only reference a swept id on its demoted-with-
  // empty-inline-pages path, which drops the view (reconstructible), never
  // mis-answers.
  SweepColdViewFiles(durable.dir, live_cold_ids);
  // Compaction: the snapshot covers everything the delta log said. A failed
  // reset is SOFT — the stale records carry a previous epoch, so recovery
  // skips them; the next snapshot retries the truncate.
  if (durable.delta_log != nullptr && durable.delta_log->record_count() > 0) {
    const Status st = durable.delta_log->Reset();
    if (!st.ok()) ++durable.stats.manifest_write_failures;
  }
  return OkStatus();
}

Status AdaptiveColumn::PersistCheckpointLocked() {
  DurableState& durable = *durable_;
  switch (config_.storage.data_flush) {
    case FlushPolicy::kNone:
      break;
    case FlushPolicy::kAsync:
      VMSV_RETURN_IF_ERROR(column_->file()->Sync(/*wait=*/false, durable.io));
      break;
    case FlushPolicy::kSync:
      VMSV_RETURN_IF_ERROR(column_->file()->Sync(/*wait=*/true, durable.io));
      break;
  }
  // A reader-path promotion flips tier flags outside any maintenance lock;
  // fold the signal into the dirty flag HERE (before the decision below) so
  // a promotion between checkpoints always reaches the manifest. The
  // exchange is safe against a racing promotion: it re-sets the flag, and
  // the next checkpoint picks it up.
  if (tier_dirty_.exchange(false, std::memory_order_acq_rel)) {
    durable.manifest_dirty = true;
  }
  if (durable.manifest_dirty ||
      lifecycle_.pool_mutations() != durable.persisted_pool_mutations) {
    VMSV_RETURN_IF_ERROR(WriteManifestSnapshotLocked());
  }
  // Only after the manifest (and policy-dependent data) are down may the
  // journal forget the batch — the write-ahead invariant.
  if (durable.journal->record_count() > 0) {
    VMSV_RETURN_IF_ERROR(durable.journal->Reset());
  }
  return OkStatus();
}

void AdaptiveColumn::PersistPoolChangeLocked(const PoolEditLog& edit) {
  DurableState& durable = *durable_;
  if (durable.delta_log == nullptr || edit.empty()) {
    // No incremental channel (or nothing identifiable changed): fall back
    // to dirtying the manifest for the next flush/checkpoint.
    durable.manifest_dirty = true;
    return;
  }
  // Removes first: a replace is remove-then-upsert in apply order, and the
  // delta log replays in order.
  const bool sync = config_.storage.data_flush == FlushPolicy::kSync;
  Status st = OkStatus();
  for (const uint64_t id : edit.removed_ids) {
    if (id == 0) continue;  // never persisted; nothing to remove
    ManifestDelta delta;
    delta.op = ManifestDeltaOp::kRemoveView;
    delta.epoch = durable.manifest_epoch;
    delta.view.id = id;
    st = durable.delta_log->Append(delta, sync);
    if (!st.ok()) break;
    ++durable.stats.manifest_delta_appends;
  }
  if (st.ok()) {
    for (const VirtualView* view : edit.upserted) {
      ManifestDelta delta;
      delta.op = ManifestDeltaOp::kUpsertView;
      delta.epoch = durable.manifest_epoch;
      delta.view.id = view->durable_id();
      delta.view.lo = view->lo();
      delta.view.hi = view->hi();
      delta.view.creation_scanned_pages =
          view->usage().creation_scanned_pages.load(std::memory_order_relaxed);
      delta.view.pages = view->physical_pages();
      st = durable.delta_log->Append(delta, sync);
      if (!st.ok()) break;
      ++durable.stats.manifest_delta_appends;
    }
  }
  if (!st.ok()) {
    // Soft failure: the base snapshot plus the already-applied deltas still
    // recover a consistent (merely stale) pool — views are reconstructible.
    // The dirty flag routes the next flush/checkpoint through a full
    // snapshot, which also compacts the partial delta batch away.
    durable.manifest_dirty = true;
    ++durable.stats.manifest_write_failures;
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

void AdaptiveColumn::RouteQuery(const RangeQuery& q,
                                std::vector<VirtualView*>* cover) const {
  cover->clear();
  if (config_.mode == QueryMode::kSingleView) {
    VirtualView* view = view_index_.FindSmallestCovering(q);
    if (view != nullptr) cover->push_back(view);
    return;
  }
  if (!view_index_.FindCover(q, config_.cost_based_routing, cover)) return;
  if (config_.cost_based_routing) {
    uint64_t cover_pages = 0;
    for (const VirtualView* v : *cover) cover_pages += v->num_pages();
    if (cover_pages >= column_->num_pages()) {
      // Cover costlier than a full scan: route to the scan path instead.
      cover->clear();
    }
  }
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
      auto flushed = FlushUpdatesLocked(/*compact_after=*/true);
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
      RouteQuery(queries[i], &covers[i]);
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
  for (const std::vector<size_t>& members : groups) {
    const std::vector<VirtualView*>& cover = covers[members.front()];
    bool mapped = true;
    for (VirtualView* view : cover) {
      if (!view->EnsureMaterialized().ok()) {
        mapped = false;
        break;
      }
      // A demoted view that just re-materialized is hot again: the routed
      // query IS the promotion signal. The CAS elects one winner among
      // concurrent readers; the tier flip happens outside any maintenance
      // lock, so the dirty flag asks the next flush/checkpoint to persist
      // it.
      if (view->PromoteIfDemoted()) {
        health_.views_promoted.fetch_add(1, std::memory_order_relaxed);
        tier_dirty_.store(true, std::memory_order_release);
      }
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
      results = cover.front()->ScanMany(group);
      cover_pages = cover.front()->num_pages();
    } else {
      // Views in a cover may share physical pages; each is scanned once.
      // Counts and sums are associative wrap-around adds, so merging the
      // per-view partial results is bit-identical to one scan of the union.
      results.resize(members.size());
      std::unordered_set<uint64_t> seen;
      for (const VirtualView* view : cover) {
        const std::vector<PageScanResult> partial = view->ScanManyIf(
            group, [&seen](uint64_t page) { return seen.insert(page).second; });
        for (size_t m = 0; m < members.size(); ++m) {
          results[m].Merge(partial[m]);
        }
      }
      cover_pages = seen.size();
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
  // the degradation policy stands on. The overlap groups bound the
  // per-page hull tests inside the executor.
  std::vector<RangeQuery> group;
  group.reserve(members.size());
  for (const size_t i : members) group.push_back(queries[i]);
  out->overlap_groups = GroupOverlappingQueries(group).size();
  const uint64_t column_pages = column_->num_pages();
  const BatchExecutor executor;
  const std::vector<PageScanResult> results = executor.SharedScanPages(
      reinterpret_cast<const Value*>(column_->base_arena().data()),
      column_pages, group);
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
  auto built = BuildViewAndAnswer(*column_, q.lo, q.hi, q,
                                  kCandidateCreation, /*mapper=*/nullptr);
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
  built->view->SetCreationInfo(metrics_.queries.load(std::memory_order_relaxed),
                               built->scanned_pages);

  QueryExecution exec;
  exec.match_count = built->query_result.match_count;
  exec.sum = built->query_result.sum;
  exec.stats.scanned_pages = built->scanned_pages;
  exec.stats.considered_views = 0;
  PoolEditLog edit;
  DeferredDemotion deferred;
  {
    // The pool edit is the only part that needs to fence readers out of
    // ROUTING; their scans keep running (displaced views go to the limbo
    // list, not the destructor).
    std::unique_lock<std::shared_mutex> xlock(views_mu_);
    exec.stats.decision = DecideCandidate(
        std::move(built->view), durable_ != nullptr ? &edit : nullptr,
        &deferred);
    exec.stats.views_after = view_index_.num_partial_views();
  }
  epoch_.TryReclaim();
  if (deferred.victim != nullptr) {
    // AdmitAtBudget chose demotion but left the spill to us, so the disk
    // write runs with readers routing again; a short exclusive section
    // inside finishes the swap. The decision may downgrade (spill failure
    // falls back to destroy-evict or a dropped candidate).
    exec.stats.decision = FinishDeferredDemotion(
        &deferred, durable_ != nullptr ? &edit : nullptr);
    // Safe without views_mu_: pool structure is frozen under
    // maintenance_mu_, which we hold.
    exec.stats.views_after = view_index_.num_partial_views();
  }
  if (durable_ != nullptr) {
    switch (exec.stats.decision) {
      case CandidateDecision::kInserted:
      case CandidateDecision::kReplacedExisting:
      case CandidateDecision::kEvictedExisting:
        // Pool membership changed: append the incremental manifest deltas
        // now so a kill right after this query reopens with the new view.
        // Runs under maintenance_mu_ only — the views in `edit` stay valid
        // (every pool mutator holds this mutex) and readers are not blocked
        // on the append/fsync.
        PersistPoolChangeLocked(edit);
        break;
      case CandidateDecision::kDiscardedSubset:
        // A discard may have widened an existing view's range (ExtendRange)
        // — cheap to defer: the stale (narrower) range is conservative, so
        // only the next flush/checkpoint snapshots it.
        durable_->manifest_dirty = true;
        break;
      default:
        break;
    }
  }
  RecordQueries(1, exec.stats.scanned_pages);
  return exec;
}

CandidateDecision AdaptiveColumn::DecideCandidate(
    std::unique_ptr<VirtualView> candidate, PoolEditLog* edit,
    DeferredDemotion* deferred) {
  // An EMPTY candidate (query range holds no data) is pure range knowledge;
  // the generic subset logic would vacuously discard it against any view
  // and the data-free range would full-scan forever. Record it: redundant
  // only under a view that covers the range; mergeable into a touching
  // empty view; otherwise a view of its own, answering with 0 page reads.
  if (candidate->num_pages() == 0) {
    const RangeQuery cand_range = candidate->value_range();
    for (const auto& view : view_index_.views()) {
      if (view->Covers(cand_range)) {
        metrics_.views_discarded.fetch_add(1, std::memory_order_relaxed);
        return CandidateDecision::kDiscardedSubset;
      }
    }
    for (const auto& view : view_index_.views()) {
      if (view->num_pages() == 0 &&
          RangesTouch(view->lo(), view->hi(), cand_range.lo, cand_range.hi)) {
        view->ExtendRange(cand_range.lo, cand_range.hi);
        metrics_.views_discarded.fetch_add(1, std::memory_order_relaxed);
        return CandidateDecision::kDiscardedSubset;
      }
    }
    return AdmitAtBudget(std::move(candidate), edit, deferred);
  }

  // Discard: candidate pages are (nearly) contained in an existing view.
  for (const auto& view : view_index_.views()) {
    uint64_t missing = 0;
    for (const uint64_t page : candidate->physical_pages()) {
      if (!view->ContainsPage(page) && ++missing > config_.discard_tolerance) {
        break;
      }
    }
    if (missing <= config_.discard_tolerance) {
      // An exact subset proves the view holds every page with a value in the
      // candidate's range, so the view's range may absorb it — otherwise the
      // discarded query range would full-scan forever (its value range being
      // covered by no view is exactly why the scan ran). Two restrictions
      // keep the Covers() invariant ("view holds every page with a value in
      // its range") intact: an inexact subset may miss up to `missing`
      // pages, and a range separated by a GAP would claim values neither
      // side ever scanned for (overlapping or integer-adjacent ranges
      // union gap-free).
      if (missing == 0 && RangesTouch(view->lo(), view->hi(), candidate->lo(),
                                      candidate->hi())) {
        view->ExtendRange(candidate->lo(), candidate->hi());
      }
      metrics_.views_discarded.fetch_add(1, std::memory_order_relaxed);
      return CandidateDecision::kDiscardedSubset;
    }
  }
  // Replace: an existing view is (nearly) contained in the candidate. An
  // EMPTY view is a vacuous page-subset of anything — replacing it would
  // silently drop its range knowledge, so it is only replaced when the
  // candidate's range subsumes it.
  for (const auto& view : view_index_.views()) {
    if (view->num_pages() == 0 &&
        !(candidate->lo() <= view->lo() && candidate->hi() >= view->hi())) {
      continue;
    }
    uint64_t missing = 0;
    for (const uint64_t page : view->physical_pages()) {
      if (!candidate->ContainsPage(page) && ++missing > config_.replace_tolerance) {
        break;
      }
    }
    if (missing <= config_.replace_tolerance) {
      if (!ReplaceInPoolLocked(view.get(), std::move(candidate), edit)) {
        return CandidateDecision::kBudgetExhausted;
      }
      metrics_.views_replaced.fetch_add(1, std::memory_order_relaxed);
      return CandidateDecision::kReplacedExisting;
    }
  }
  return AdmitAtBudget(std::move(candidate), edit, deferred);
}

CandidateDecision AdaptiveColumn::AdmitAtBudget(
    std::unique_ptr<VirtualView> candidate, PoolEditLog* edit,
    DeferredDemotion* deferred) {
  // max_views bounds the HOT tier: demoted views gave up their arenas (and
  // with them the mapping budget max_views exists to protect) and are
  // bounded separately by ColdBudget().
  size_t hot_views = 0;
  for (const auto& view : view_index_.views()) {
    if (!view->demoted()) ++hot_views;
  }
  if (hot_views < config_.max_views) {
    if (edit != nullptr) {
      candidate->set_durable_id(durable_->next_view_id++);
      edit->upserted.push_back(candidate.get());
    }
    view_index_.Insert(std::move(candidate));
    metrics_.views_created.fetch_add(1, std::memory_order_relaxed);
    return CandidateDecision::kInserted;
  }
  // Budget pressure. The historical policy ("drop-newest") discarded every
  // candidate here, freezing the pool on whatever ranges arrived first; the
  // cost-aware policy instead displaces the coldest view when the fresh
  // candidate outscores it, so the pool tracks the working set. With the
  // cold tier available the displaced view is DEMOTED (spilled, kept
  // routable) instead of destroyed; destroy-evict is the fallback when
  // demotion is off, the column is in-memory, or the spill itself fails.
  if (config_.lifecycle.eviction_policy == EvictionPolicy::kCostAware) {
    const uint64_t now = metrics_.queries.load(std::memory_order_relaxed);
    const uint64_t column_pages = column_->num_pages();
    VirtualView* victim = lifecycle_.PickEvictionVictim(
        view_index_.views(), now, column_pages,
        [](const VirtualView& view) { return !view.demoted(); });
    const double margin = config_.lifecycle.eviction_margin > 0
                              ? config_.lifecycle.eviction_margin
                              : 1.0;
    if (victim != nullptr &&
        margin * lifecycle_.Score(*victim, now, column_pages) <
            lifecycle_.Score(*candidate, now, column_pages)) {
      if (DemotionAvailable() && deferred != nullptr) {
        // Demote path: the victim keeps its pool slot (still routable, so a
        // returning working set promotes it for the price of re-mapping
        // instead of a full creation scan); only its arena and mapping
        // budget are released. The spill's fsync-heavy write must NOT run
        // here — the caller holds views_mu_ exclusive, and every blocked
        // reader would wait out the disk write — so the decision is only
        // PARKED: FinishDeferredDemotion spills after routing resumes and
        // either completes the demotion or falls back to destroy-evict.
        // The returned decision is provisional until then.
        deferred->victim = victim;
        deferred->candidate = std::move(candidate);
        return CandidateDecision::kEvictedExisting;
      }
      if (!ReplaceInPoolLocked(victim, std::move(candidate), edit)) {
        return CandidateDecision::kBudgetExhausted;
      }
      metrics_.views_evicted.fetch_add(1, std::memory_order_relaxed);
      lifecycle_.RecordEviction();
      return CandidateDecision::kEvictedExisting;
    }
  }
  metrics_.candidates_dropped.fetch_add(1, std::memory_order_relaxed);
  return CandidateDecision::kBudgetExhausted;
}

bool AdaptiveColumn::ReplaceInPoolLocked(
    VirtualView* victim, std::unique_ptr<VirtualView> candidate,
    PoolEditLog* edit) {
  // Capture before the move: on a Replace failure `candidate` is gone and
  // `edit` must not reference it. (Every caller found the victim in this
  // very pool, so a miss would be a logic error — but degrading to a
  // dropped candidate beats aborting the process.)
  VirtualView* cand_ptr = candidate.get();
  const uint64_t removed_id = victim->durable_id();
  auto displaced = view_index_.Replace(victim, std::move(candidate));
  if (!displaced.ok()) {
    metrics_.candidates_dropped.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (edit != nullptr) {
    cand_ptr->set_durable_id(durable_->next_view_id++);
    edit->removed_ids.push_back(removed_id);
    edit->upserted.push_back(cand_ptr);
  }
  // Concurrent scans may still be inside the displaced view: park it on the
  // epoch limbo list; reclamation happens once they all exited.
  epoch_.RetireObject(std::move(displaced).ValueOrDie());
  return true;
}

// ---------------------------------------------------------------------------
// Tiering (demote / promote / cold-tier trim)
//
// A demotion runs in three phases so its fsync-heavy spill never executes
// while readers are fenced out by views_mu_ exclusive. The phase ordering
// is also the crash-safety argument (ARCHITECTURE.md "Tiering model"):
//   (1) SpillForDemotion — maintenance_mu_ only, readers keep routing: the
//       cold file lands durably FIRST. A failure aborts with the view
//       untouched; a kill after this point at worst leaves an orphaned cold
//       file (harmless: nothing references it, and the next snapshot's
//       sweep reclaims it).
//   (2) CompleteDemotionLocked — views_mu_ exclusive with readers
//       quiesced: arena released, tier flag flipped. Purely in-memory.
//   (3) AppendSetTierDeltaLocked — maintenance_mu_ only again: the
//       set-tier delta makes the flip durable. A kill before it reopens
//       the view HOT from the still-valid manifest entry, never torn. (A
//       routed query may promote the view between (2) and (3); the delta
//       then records a tier the reader already reversed — benign, since
//       the promotion set tier_dirty_ and the next checkpoint persists the
//       hot state. Tier is advisory; membership is what correctness needs.)

Status AdaptiveColumn::SpillForDemotion(VirtualView* victim) {
  DurableState& durable = *durable_;
  // A view that never reached the manifest has no durable identity to name
  // its cold file by; assign one now (the base snapshot that follows the
  // dirty flag below records it).
  if (victim->durable_id() == 0) {
    victim->set_durable_id(durable.next_view_id++);
    durable.manifest_dirty = true;
  }
  // Safe without views_mu_: pool structure and page membership only change
  // under maintenance_mu_, which the caller holds.
  return WriteColdViewFile(durable.dir, victim->durable_id(),
                           victim->physical_pages(),
                           config_.storage.data_flush == FlushPolicy::kSync,
                           durable.io);
}

void AdaptiveColumn::CompleteDemotionLocked(VirtualView* victim) {
  std::unique_ptr<VirtualArena> retired = victim->ReleaseArena();
  if (retired != nullptr) epoch_.RetireObject(std::move(retired));
  victim->set_demoted(true);
  lifecycle_.RecordDemotion();
  health_.views_demoted.fetch_add(1, std::memory_order_relaxed);
}

void AdaptiveColumn::AppendSetTierDeltaLocked(uint64_t view_id) {
  DurableState& durable = *durable_;
  if (durable.delta_log == nullptr) {
    durable.manifest_dirty = true;
    return;
  }
  ManifestDelta delta;
  delta.op = ManifestDeltaOp::kSetViewTier;
  delta.epoch = durable.manifest_epoch;
  delta.view.id = view_id;
  delta.view.demoted = true;
  const Status appended = durable.delta_log->Append(
      delta, config_.storage.data_flush == FlushPolicy::kSync);
  if (appended.ok()) {
    ++durable.stats.manifest_delta_appends;
  } else {
    // Soft failure, same contract as PersistPoolChangeLocked: the stale
    // (hot) manifest entry still recovers a consistent pool; the dirty
    // flag routes the next flush/checkpoint through a full snapshot.
    durable.manifest_dirty = true;
    ++durable.stats.manifest_write_failures;
  }
}

CandidateDecision AdaptiveColumn::FinishDeferredDemotion(
    DeferredDemotion* deferred, PoolEditLog* edit) {
  VirtualView* victim = deferred->victim;
  deferred->victim = nullptr;
  std::unique_ptr<VirtualView> candidate = std::move(deferred->candidate);
  // Phase (1) with readers routing again. The victim cannot leave the pool
  // meanwhile — every pool mutator holds maintenance_mu_, which we hold.
  const bool spilled = SpillForDemotion(victim).ok();
  uint64_t tier_delta_id = 0;
  CandidateDecision decision;
  {
    std::unique_lock<std::shared_mutex> xlock(views_mu_);
    if (spilled) {
      // Phase (2): ReleaseArena mutates the victim's slot table in place,
      // so in-flight scans must drain first.
      epoch_.WaitQuiescent();
      CompleteDemotionLocked(victim);
      // Capture before the trim: the just-demoted victim may be exactly
      // the cold view the trim destroys.
      tier_delta_id = victim->durable_id();
      if (edit != nullptr) {
        candidate->set_durable_id(durable_->next_view_id++);
        edit->upserted.push_back(candidate.get());
      }
      view_index_.Insert(std::move(candidate));
      TrimColdTierLocked(edit);
      decision = CandidateDecision::kEvictedExisting;
    } else if (ReplaceInPoolLocked(victim, std::move(candidate), edit)) {
      // Spill failed (ENOSPC/EIO): destroy-evict fallback — the victim is
      // still hot and untouched (SpillForDemotion's contract).
      metrics_.views_evicted.fetch_add(1, std::memory_order_relaxed);
      lifecycle_.RecordEviction();
      decision = CandidateDecision::kEvictedExisting;
    } else {
      decision = CandidateDecision::kBudgetExhausted;
    }
  }
  epoch_.TryReclaim();
  // Phase (3), outside views_mu_ again.
  if (tier_delta_id != 0) AppendSetTierDeltaLocked(tier_delta_id);
  return decision;
}

void AdaptiveColumn::TrimColdTierLocked(PoolEditLog* edit) {
  size_t cold_views = 0;
  for (const auto& view : view_index_.views()) {
    if (view->demoted()) ++cold_views;
  }
  const size_t budget = ColdBudget();
  const uint64_t now = metrics_.queries.load(std::memory_order_relaxed);
  const uint64_t column_pages = column_->num_pages();
  while (cold_views > budget) {
    VirtualView* victim = lifecycle_.PickEvictionVictim(
        view_index_.views(), now, column_pages,
        [](const VirtualView& view) { return view.demoted(); });
    if (victim == nullptr) break;
    const uint64_t removed_id = victim->durable_id();
    auto removed = view_index_.Remove(victim);
    if (!removed.ok()) break;
    // The view is gone for good — reclaim its spill file too. Best-effort:
    // a leftover cold file is unreferenced once the remove delta lands.
    RemoveColdViewFile(durable_->dir, removed_id);
    epoch_.RetireObject(std::move(removed).ValueOrDie());
    metrics_.views_evicted.fetch_add(1, std::memory_order_relaxed);
    lifecycle_.RecordEviction();
    if (edit != nullptr) {
      edit->removed_ids.push_back(removed_id);
    } else {
      durable_->manifest_dirty = true;
    }
    --cold_views;
  }
}

size_t AdaptiveColumn::DemoteColdestViews(size_t count) {
  if (count == 0 || !DemotionAvailable()) return 0;
  std::lock_guard<std::mutex> maintenance(maintenance_mu_);
  // Phase (1) for the whole batch: pick victims and spill them with
  // readers still routing. Walking the pool needs no views_mu_ — its
  // structure is frozen under maintenance_mu_ (every mutator holds it).
  // The tier flags only flip in phase (2), so the pick also excludes the
  // already-chosen victims.
  const uint64_t now = metrics_.queries.load(std::memory_order_relaxed);
  const uint64_t column_pages = column_->num_pages();
  std::vector<VirtualView*> victims;
  std::unordered_set<const VirtualView*> chosen;
  while (victims.size() < count) {
    VirtualView* victim = lifecycle_.PickEvictionVictim(
        view_index_.views(), now, column_pages,
        [&chosen](const VirtualView& view) {
          return !view.demoted() && chosen.count(&view) == 0;
        });
    if (victim == nullptr) break;
    if (!SpillForDemotion(victim).ok()) break;
    chosen.insert(victim);
    victims.push_back(victim);
  }
  if (victims.empty()) return 0;
  // Phase (2): one exclusive section completes the whole batch.
  PoolEditLog edit;
  std::vector<uint64_t> demoted_ids;
  demoted_ids.reserve(victims.size());
  {
    std::unique_lock<std::shared_mutex> xlock(views_mu_);
    epoch_.WaitQuiescent();
    for (VirtualView* victim : victims) {
      CompleteDemotionLocked(victim);
      // Capture before the trim: a just-demoted victim may be exactly the
      // cold view the trim destroys (reading it after reclamation would be
      // a use-after-free).
      demoted_ids.push_back(victim->durable_id());
    }
    TrimColdTierLocked(&edit);
  }
  epoch_.TryReclaim();
  // Phase (3): the tier deltas, then the trim's removals.
  for (const uint64_t id : demoted_ids) AppendSetTierDeltaLocked(id);
  if (!edit.empty()) PersistPoolChangeLocked(edit);
  return victims.size();
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
  // durability lands at the next boundary or flush.
  // journal_sync_every_update acknowledges every update through its own
  // LSN. Both WAIT below, after every engine lock is released, so a slow
  // fsync never extends the reader-exclusion window and concurrent
  // committers can batch onto one leader.
  uint64_t ack_lsn = 0;
  WriteAheadJournal* journal = nullptr;
  if (durable_ != nullptr) {
    journal = durable_->journal.get();
    const Status appended = journal->Append(
        RowUpdate{row, column_->Get(row), new_value}, /*sync=*/false);
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
    ++durable_->stats.journal_appends;
    const uint64_t batch = config_.storage.group_commit_batch;
    const uint64_t lsn = journal->appended_lsn();  // this record's own LSN
    if (batch > 0) {
      if (lsn % batch == 0) ack_lsn = lsn;
    } else if (config_.storage.journal_sync_every_update) {
      ack_lsn = lsn;
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
  if (ack_lsn > 0) return journal->CommitThrough(ack_lsn);
  return OkStatus();
}

StatusOr<UpdateApplyStats> AdaptiveColumn::FlushUpdates() {
  std::lock_guard<std::mutex> maintenance(maintenance_mu_);
  return FlushUpdatesLocked(/*compact_after=*/false);
}

StatusOr<UpdateApplyStats> AdaptiveColumn::FlushUpdatesLocked(
    bool compact_after) {
  // Durable commit point: every journaled record of this batch is on
  // stable storage before alignment consumes the batch. (Records already
  // committed by the per-update ack or a group-commit leader make this a
  // cheap no-op fdatasync; a partial trailing group-commit batch gets
  // committed here.)
  if (durable_ != nullptr && !pending_.empty()) {
    VMSV_RETURN_IF_ERROR(durable_->journal->Sync());
  }
  std::unique_lock<std::shared_mutex> xlock(views_mu_);
  // Alignment unmaps/remaps view slots in place; fence all readers off.
  epoch_.WaitQuiescent();
  auto views = view_index_.MutableViews();
  auto stats = AlignPartialViews(*column_, views, pending_,
                                 MappingSource::kUserSpaceTable);
  if (!stats.ok()) {
    const StatusCode code = stats.status().code();
    if (code != StatusCode::kIoError &&
        code != StatusCode::kResourceExhausted) {
      return stats;
    }
    // Alignment died on a mapping syscall, leaving an unknown subset of the
    // views partially realigned — scanning one could fault on an unmapped
    // slot. The base column already holds every update (Update writes the
    // cell before logging), so the views are pure optimization state: drop
    // them all, consume the batch, and let queries full-scan and re-adapt.
    // This is the one failure that empties the pool wholesale — alignment
    // gives no per-view failure attribution.
    NoteMapFailure();
    for (VirtualView* view : view_index_.MutableViews()) {
      auto removed = view_index_.Remove(view);
      if (removed.ok()) epoch_.RetireObject(std::move(removed).ValueOrDie());
    }
    pending_.clear();
    pending_count_.store(0, std::memory_order_release);
    if (durable_ != nullptr) durable_->manifest_dirty = true;
    xlock.unlock();
    epoch_.TryReclaim();
    if (durable_ != nullptr) {
      VMSV_RETURN_IF_ERROR(PersistCheckpointLocked());
    }
    return UpdateApplyStats{};
  }
  const bool had_updates = !pending_.empty();
  pending_.clear();
  pending_count_.store(0, std::memory_order_release);
  if (durable_ != nullptr &&
      stats->pages_added + stats->pages_removed > 0) {
    durable_->manifest_dirty = true;
  }
  bool reclaim_after = false;
  if (compact_after && stats->pages_removed + stats->pages_added > 0) {
    // Removals punch holes and adds can scatter file runs; re-densify any
    // view a lifecycle trigger trips so its scans return to the dense fast
    // path. A failed compaction leaves the view's mappings in an
    // unspecified state (Compact's error contract) — DROP it rather than
    // keep a view the next scan could fault on; its range full-scans and
    // re-adapts. We already waited for quiescence, so in-place mremap
    // compaction is safe; superseded arenas still go through the limbo
    // list for uniform lifetime handling.
    for (VirtualView* view : view_index_.MutableViews()) {
      if (!lifecycle_.ShouldCompact(*view)) continue;
      std::unique_ptr<VirtualArena> retired;
      if (lifecycle_.CompactView(view, &retired).ok()) {
        if (retired != nullptr) epoch_.RetireObject(std::move(retired));
      } else {
        // A dropped view changes the pool shape (CompactView's own counter
        // only moves on success). Abandoning it cleanly — rather than
        // keeping a view the next scan could fault on — IS the recovery;
        // the range full-scans and re-adapts.
        health_.abandoned_compactions.fetch_add(1, std::memory_order_relaxed);
        NoteMapFailure();
        auto removed = view_index_.Remove(view);
        if (removed.ok()) epoch_.RetireObject(std::move(removed).ValueOrDie());
        if (durable_ != nullptr) durable_->manifest_dirty = true;
      }
      reclaim_after = true;
    }
  }
  // Reclamation unmaps whole arenas — run it after readers are unblocked,
  // not inside the exclusive section.
  xlock.unlock();
  if (reclaim_after) epoch_.TryReclaim();
  // Checkpoint sequence: data writeback per policy, manifest if the pool
  // changed (alignment/compaction/eviction since the last snapshot), then
  // journal reset. Runs outside views_mu_ — maintenance_mu_ alone keeps the
  // pool stable — so readers are not blocked on fsync.
  if (durable_ != nullptr &&
      (had_updates || durable_->manifest_dirty ||
       tier_dirty_.load(std::memory_order_acquire) ||
       lifecycle_.pool_mutations() != durable_->persisted_pool_mutations)) {
    VMSV_RETURN_IF_ERROR(PersistCheckpointLocked());
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
  h.emergency_evictions =
      health_.emergency_evictions.load(std::memory_order_relaxed);
  h.failed_adaptations =
      health_.failed_adaptations.load(std::memory_order_relaxed);
  h.abandoned_compactions =
      health_.abandoned_compactions.load(std::memory_order_relaxed);
  h.journal_stalls = health_.journal_stalls.load(std::memory_order_relaxed);
  h.read_only_entries =
      health_.read_only_entries.load(std::memory_order_relaxed);
  h.read_only_exits = health_.read_only_exits.load(std::memory_order_relaxed);
  h.views_demoted = health_.views_demoted.load(std::memory_order_relaxed);
  h.views_promoted = health_.views_promoted.load(std::memory_order_relaxed);
  h.cold_view_reloads =
      health_.cold_view_reloads.load(std::memory_order_relaxed);
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
  // Probe whether a fresh single-slot arena maps; while it does not, evict
  // the coldest materialized view, reclaim, and retry with linear backoff
  // up to kPressureReliefAttempts. Giving up re-arms the pressure
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
    VirtualView* victim = lifecycle_.PickEvictionVictim(
        view_index_.views(), metrics_.queries.load(std::memory_order_relaxed),
        column_->num_pages(),
        [](const VirtualView& view) { return view.is_materialized(); });
    if (victim == nullptr) break;  // nothing left to shed
    // Shedding a mapping does not require destroying the view: demote it
    // when the cold tier is available (arena released, membership spilled,
    // slot kept), so the working set survives the pressure episode.
    // Destroy-evict remains the last resort — demotion off, in-memory
    // column, or the spill itself failing (likely when the disk is the
    // scarce resource too). The spill (phase 1) runs BEFORE the exclusive
    // section so blocked readers never wait out a disk write.
    bool shed = false;
    uint64_t tier_delta_id = 0;
    if (DemotionAvailable() && SpillForDemotion(victim).ok()) {
      std::unique_lock<std::shared_mutex> xlock(views_mu_);
      epoch_.WaitQuiescent();
      CompleteDemotionLocked(victim);
      // Capture before the trim: the victim may be the cold view the trim
      // destroys.
      tier_delta_id = victim->durable_id();
      TrimColdTierLocked(/*edit=*/nullptr);
      shed = true;
    }
    if (!shed) {
      std::unique_lock<std::shared_mutex> xlock(views_mu_);
      auto removed = view_index_.Remove(victim);
      if (removed.ok()) {
        epoch_.RetireObject(std::move(removed).ValueOrDie());
        health_.emergency_evictions.fetch_add(1, std::memory_order_relaxed);
        lifecycle_.RecordEviction();
        if (durable_ != nullptr) durable_->manifest_dirty = true;
      } else {
        victim = nullptr;
      }
    }
    // Reclamation is what actually returns the victim's mappings to the
    // kernel; run it outside the exclusive section.
    epoch_.TryReclaim();
    if (tier_delta_id != 0) AppendSetTierDeltaLocked(tier_delta_id);
    if (victim == nullptr) break;  // pool lost track of the victim
    std::this_thread::sleep_for(kPressureReliefBackoff * (attempt + 1));
  }
  // Could not confirm recovery: leave the flag set for the next pass.
  pressure_pending_.store(true, std::memory_order_release);
}

}  // namespace vmsv
