// VirtualView — a partial storage view (paper §2.2): the set of physical
// pages containing at least one value in [lo, hi], rewired into a
// contiguous virtual range so it scans like a dense column. No data is
// copied; the view shares physical pages with the base column, so base
// updates are visible in the view instantly — only page membership must be
// maintained (§2.4).
//
// View creation (§2.3) happens as a by-product of a full scan and supports
// the paper's two optimizations:
//   - run coalescing: consecutive qualifying pages are mapped in one mmap,
//   - concurrent mapping: mmap calls are shipped to a background thread
//     (BuildViewByScan with a BackgroundMapper; the adaptive engine builds
//     its candidates lazily instead). The scan pass finishes before the
//     first call is queued, so the worker overlaps the queueing of later
//     runs, not the scan.
//
// Lifecycle (this layer + core/view_pool.h): a view's membership is
// its bitmap, one bit per column page. A view is born without an arena and
// answers its first hits by reading the bitmap's page runs over the
// column's base mapping — no syscall, no page-table cost. Only once its hits
// have paid for one is it rewired into its own arena (the engine's
// threshold is AdaptiveConfig::materialize_after_hits, counted over the
// hits the view answers alone; a multi-view cover reads the union of its
// members' bitmaps over the base mapping and never maps). The arena is a
// dense cache of the bitmap: materialization maps the bitmap's runs in
// ascending page order, an add maps at the tail slot, and a removal is the
// paper's swap-remove (§2.4) — the tail page is rewired into the gap and
// the tail slot unmapped — so every arena scans as one contiguous sweep.
// Releasing the arena keeps the bitmap; the next materialization maps it
// file-ordered again. Views that stop earning their keep are dropped from
// the pool entirely (evicted).
//
// Thread-safety: scans, ScanMany, ContainsPage, RecordHit, CountUnmappedHits
// and lazy EnsureMaterialized may run concurrently from any number of
// reader threads (materialization is internally serialized per view; usage
// counters are relaxed atomics). Membership updates, ReleaseArena and
// destruction mutate mappings IN PLACE and must not overlap any reader
// — the concurrent engine (core/adaptive_layer.h) excludes readers with an
// epoch quiescence wait before running them, and hands displaced
// arenas/views to the epoch limbo list instead of destroying them under
// readers. A BackgroundMapper only holds arena pointers inside one
// BuildViewByScan call, which drains it before returning.

#ifndef VMSV_CORE_VIRTUAL_VIEW_H_
#define VMSV_CORE_VIRTUAL_VIEW_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/scan.h"
#include "exec/parallel_scanner.h"
#include "exec/scan_kernels.h"
#include "rewiring/virtual_arena.h"
#include "storage/column.h"
#include "storage/types.h"
#include "util/status.h"

namespace vmsv {

/// View-creation optimizations (§2.3) for BuildViewByScan. The adaptive
/// engine always builds its candidates coalesced and lazy.
struct ViewCreationOptions {
  /// Map runs of consecutive qualifying pages with one mmap call.
  bool coalesce_runs = false;
  /// Ship mapping calls to a BackgroundMapper's worker thread; they are
  /// queued after the scan pass (see lazy_materialize).
  bool background_mapping = false;
  /// Collect the page list only; defer all mmap work to EnsureMaterialized
  /// (the engine calls it once the view's hits reach its threshold). The
  /// scan's ascending page list is installed in one step
  /// (VirtualView::InstallPages), and candidates that end up discarded
  /// never pay for rewiring at all. Eager builds replay the same list
  /// through AppendPage/AppendPageRun after the scan.
  bool lazy_materialize = false;
};

/// Per-view usage accounting consumed by the cost-aware eviction policy
/// (EvictionScore, core/view_pool.h). The "clock" is a logical query
/// sequence number maintained by the adaptive layer. Fields are
/// relaxed-consistency atomics: concurrent readers RecordHit while the
/// maintenance path scores views, and an approximately-fresh recency is all
/// the policy needs.
struct ViewUsageStats {
  /// Sequence number of the last query this view helped answer (creation
  /// counts: the triggering query was answered by the creating scan).
  std::atomic<uint64_t> last_used_query{0};
  /// Number of queries answered (fully or as a cover member) from the view.
  std::atomic<uint64_t> hits{0};
  /// Pages the creating scan read to build the view — the cost to recreate
  /// it if evicted too eagerly.
  std::atomic<uint64_t> creation_scanned_pages{0};
};

/// A worker thread executing arena MapRange calls asynchronously. One mapper
/// can be reused across several view creations; Drain() is the barrier.
///
/// Thread-safety: the queue itself is internally synchronized, but a
/// PRODUCER SESSION — the Enqueue...Drain window of one view creation —
/// must hold producer_mutex() for its whole span. Drain() returns-and-
/// clears one shared first-error slot; without the session lock, two
/// concurrent creations sharing a mapper could steal each other's mapping
/// failures and publish a half-mapped view. The queued tasks hold raw
/// VirtualArena pointers, so the target arenas must outlive Drain().
class BackgroundMapper {
 public:
  BackgroundMapper();
  ~BackgroundMapper();
  BackgroundMapper(const BackgroundMapper&) = delete;
  BackgroundMapper& operator=(const BackgroundMapper&) = delete;

  /// Serializes producer sessions (see class comment). Lock it around every
  /// Enqueue...Drain window; acquired after any view/index lock, before the
  /// mapper's internal queue mutex.
  std::mutex& producer_mutex() { return producer_mu_; }

  /// Enqueues arena->MapRange(slot_start, file_page_start, count).
  void Enqueue(VirtualArena* arena, uint64_t slot_start,
               uint64_t file_page_start, uint64_t count);

  /// Blocks until the queue is empty and returns the first error, if any.
  Status Drain();

 private:
  struct MapTask {
    VirtualArena* arena;
    uint64_t slot_start;
    uint64_t file_page_start;
    uint64_t count;
  };

  void WorkerLoop();

  std::mutex producer_mu_;  // serializes producer sessions, never the worker
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::queue<MapTask> queue_;
  Status first_error_;
  bool stopping_ = false;
  bool busy_ = false;
  std::thread worker_;
};

/// A partial view's membership is a bitmap with one bit per column page:
/// ContainsPage, the duplicate checks and the admission counts
/// (CountPagesNotIn) are bit tests, with no hashing. Without an arena that
/// bitmap and the page count are the whole view: scans read its page runs
/// over the column's base mapping, and membership updates set or clear
/// bits without a syscall. The arena mapping is materialized either
/// eagerly at creation (BuildViewByScan) or lazily by EnsureMaterialized
/// (the adaptive path, once the view's hits reach the engine's threshold).
///
/// With an arena the view also keeps its slot list (slot -> page), dense
/// by construction: materialization maps the bitmap's runs ascending, an
/// add maps at the tail, and a removal swap-removes. Only RemovePage needs
/// a page's slot; the first removal from an arena builds that page->slot
/// index, and ReleaseArena drops it with the slot list.
class VirtualView {
 public:
  /// Creates an empty view without an arena over value range [lo, hi].
  /// Error contract: InvalidArgument when lo > hi.
  static StatusOr<std::unique_ptr<VirtualView>> CreateEmpty(
      const PhysicalColumn& column, Value lo, Value hi);

  Value lo() const { return lo_; }
  Value hi() const { return hi_; }
  RangeQuery value_range() const { return RangeQuery{lo_, hi_}; }

  /// Widens the view's value range to include [lo, hi]; true when lo or hi
  /// moved. ONLY legal when the caller has proven the view already
  /// contains every page holding a value in the extension (e.g. an exact
  /// page-subset candidate was discarded); otherwise the view would
  /// silently miss pages for covered queries.
  bool ExtendRange(Value lo, Value hi) {
    const bool widened = lo < lo_ || hi > hi_;
    if (lo < lo_) lo_ = lo;
    if (hi > hi_) hi_ = hi;
    return widened;
  }

  /// True when this view's pages can answer q exactly: the view indexes
  /// every page holding any value in q.
  bool Covers(const RangeQuery& q) const { return lo_ <= q.lo && hi_ >= q.hi; }

  /// Member page count.
  uint64_t num_pages() const { return num_pages_; }

  /// Maximal runs of consecutive member pages — what a scan without an
  /// arena reads, and the mmaps (after the reservation) a materialization
  /// makes, which leave that many file mappings in the arena.
  uint64_t num_page_runs() const { return MemberRunsCached()->size(); }

  /// The member pages, ascending. Materializes a copy; use ForEachPage to
  /// iterate without allocating.
  std::vector<uint64_t> physical_pages() const;

  /// Invokes fn(physical_page) for every member page, ascending.
  template <typename Fn>
  void ForEachPage(Fn&& fn) const {
    for (size_t w = 0; w < members_.size(); ++w) {
      for (uint64_t word = members_[w]; word != 0; word &= word - 1) {
        fn(w * 64 + static_cast<uint64_t>(__builtin_ctzll(word)));
      }
    }
  }

  /// One bit test on the membership bitmap; false for any page at or past
  /// the column's end.
  bool ContainsPage(uint64_t page) const {
    return page < arena_slots_ && ((members_[page / 64] >> (page % 64)) & 1);
  }

  /// Number of this view's pages that `other` does not hold — the popcount
  /// of (mine & ~theirs), word by word. Exact up to `limit`: counting stops
  /// at the first word that takes it past `limit`, so any result above
  /// `limit` only says "more than limit". Both views must be over the same
  /// column.
  uint64_t CountPagesNotIn(const VirtualView& other, uint64_t limit) const;

  /// ORs the membership bitmap into `bits` (one bit per column page, at
  /// least as many words as the view's column needs) — the union a
  /// multi-view cover reads over the base mapping, its only read.
  void OrMembersInto(std::vector<uint64_t>* bits) const;

  /// Counts `hits` queries this view answers alone while it holds no arena
  /// and returns the total since the view was created or last released its
  /// arena — the engine maps the view once this reaches its threshold. One
  /// atomic add, so among racing readers exactly one sees the threshold
  /// crossed.
  uint64_t CountUnmappedHits(uint64_t hits) {
    return unmapped_hits_.fetch_add(hits, std::memory_order_relaxed) + hits;
  }

  /// True once the arena mapping exists. arena() is only valid then. The
  /// acquire load pairs with EnsureMaterialized's release publish, so a
  /// reader that sees true also sees every mapping the materialization made.
  bool is_materialized() const {
    return arena_ptr_.load(std::memory_order_acquire) != nullptr;
  }
  const VirtualArena& arena() const {
    return *arena_ptr_.load(std::memory_order_acquire);
  }

  /// Usage accounting for the eviction policy.
  const ViewUsageStats& usage() const { return usage_; }
  void RecordHit(uint64_t query_seq) {
    usage_.last_used_query = query_seq;
    ++usage_.hits;
  }
  void SetCreationInfo(uint64_t query_seq, uint64_t scanned_pages) {
    usage_.last_used_query = query_seq;
    usage_.creation_scanned_pages = scanned_pages;
  }

  /// Creates the arena and maps the bitmap's page runs into it in
  /// ascending order, one mmap per run; that order is the slot list. No-op
  /// when already materialized. Safe to race from several reader threads:
  /// a per-view mutex serializes the build and the arena is published
  /// last.
  /// Error contract: on failure the view stays consistently without an
  /// arena.
  Status EnsureMaterialized();

  /// Adds a physical page: AppendPageRun(page, 1, mapper).
  Status AppendPage(uint64_t page, BackgroundMapper* mapper = nullptr) {
    return AppendPageRun(page, 1, mapper);
  }

  /// Adds `count` consecutive physical pages. With an arena they are
  /// mapped at the tail slots in one mmap call first; `mapper` non-null
  /// routes that mmap to the background thread.
  /// Error contract: InvalidArgument for a page at or past the column's
  /// end; FailedPrecondition if a page is already a member; on mmap
  /// failure membership is NOT recorded.
  Status AppendPageRun(uint64_t first_page, uint64_t count,
                       BackgroundMapper* mapper = nullptr);

  /// Installs a page membership — strictly ascending page ids of the view's
  /// column — into an EMPTY view without an arena in one pass: the lazy
  /// candidate build and the durable reopen both end here. Pure
  /// bookkeeping: no mmap happens until the view materializes.
  /// Error contract: FailedPrecondition when the view already has pages or
  /// an arena; InvalidArgument, leaving the view untouched, when the list
  /// is not strictly ascending or holds a page at or past the column's end.
  Status InstallPages(const std::vector<uint64_t>& pages);

  /// Returns the view to the state without an arena, handing the arena
  /// back for epoch retirement (null when there is none) — arena release:
  /// the bitmap stays, the slot list, the page->slot index and the mapping
  /// budget go, the unmapped-hit count restarts at 0, and the next
  /// EnsureMaterialized maps the bitmap file-ordered again.
  /// Not safe to run concurrently with scans or a live BackgroundMapper
  /// (the engine holds exclusive views_mu_ and waits for epoch quiescence
  /// first).
  std::unique_ptr<VirtualArena> ReleaseArena();

  /// Removes a physical page. Without an arena this clears its bit. With
  /// one it is the paper's swap-remove: the tail page is mapped into the
  /// removed page's slot (one mmap, none for the tail page itself), the
  /// edit is recorded, and the old tail slot is unmapped (one mmap), so
  /// the arena stays dense.
  /// Error contract: NotFound when the page is not a member. A failed gap
  /// map leaves the view unchanged. A failed unmap of the old tail slot
  /// returns its error with the view already edited: the stale mapping
  /// lies past the slot list, so scans stay exact.
  Status RemovePage(uint64_t page);

  /// Scans the view filtered by q, sharded across the scan thread pool.
  /// With an arena the slots are one contiguous range; without one, the
  /// member page runs are read in place over the column's base mapping.
  /// Either way the same pages are read, so the result is the same.
  /// `scan_options` overrides thread count / serial cutoff (defaults follow
  /// VMSV_THREADS / VMSV_SERIAL_CUTOFF); results are bit-identical for any
  /// setting.
  PageScanResult Scan(const RangeQuery& q,
                      const ParallelScanOptions& scan_options = {}) const;

  /// Answers several queries in ONE pass over the view's pages (exec/
  /// batch_executor.h): each page is read at most once, and only for the
  /// queries whose range meets its zone in `column_zones` — the zone table
  /// of the column the view was built over (PhysicalColumn::zones()), read
  /// through the view's slot list, or directly for the member page runs
  /// over the base mapping when the view has no arena. Result i is
  /// bit-identical to Scan(queries[i]).
  std::vector<PageScanResult> ScanMany(
      const std::vector<RangeQuery>& queries, const PageZone* column_zones,
      const ParallelScanOptions& scan_options = {}) const;

 private:
  VirtualView(std::shared_ptr<PhysicalMemoryFile> file, const Value* base,
              uint64_t arena_slots, Value lo, Value hi)
      : file_(std::move(file)),
        base_(base),
        arena_slots_(arena_slots),
        lo_(lo),
        hi_(hi),
        members_((arena_slots + 63) / 64, 0) {}

  /// Rejects page ids at or past the column's end (the bitmap's size).
  Status CheckPageRange(uint64_t first_page, uint64_t count) const;

  void SetMember(uint64_t page) {
    members_[page / 64] |= uint64_t{1} << (page % 64);
  }
  void ClearMember(uint64_t page) {
    members_[page / 64] &= ~(uint64_t{1} << (page % 64));
  }

  /// The page->slot index, built from the slot list on first use.
  std::unordered_map<uint64_t, uint64_t>& SlotIndex();

  /// The member page runs (column page ids, ascending), taken from the
  /// membership bitmap and cached until the next membership change.
  /// Concurrent readers may both build the cache after an invalidation —
  /// they build identical lists and either store wins.
  std::shared_ptr<const std::vector<PageRun>> MemberRunsCached() const;

  /// Drops the run cache; every membership-changing path calls this.
  void InvalidateRunCache() {
    std::atomic_store(&member_runs_cache_,
                      std::shared_ptr<const std::vector<PageRun>>());
  }

  /// Installs `arena` as the view's mapping (owner + published pointer).
  void PublishArena(std::unique_ptr<VirtualArena> arena) {
    arena_ = std::move(arena);
    arena_ptr_.store(arena_.get(), std::memory_order_release);
  }

  std::shared_ptr<PhysicalMemoryFile> file_;
  /// The column's identity mapping (page p at offset p pages), which scans
  /// read while the view has no arena. The column outlives its views.
  const Value* base_;
  uint64_t arena_slots_;                    // reservation size (column pages)
  std::unique_ptr<VirtualArena> arena_;     // null until materialized
  /// Readers' view of arena_: published with release AFTER every mapping of
  /// a materialization exists, so lock-free scans never see a half-built
  /// arena.
  std::atomic<VirtualArena*> arena_ptr_{nullptr};
  /// Serializes racing lazy materializations.
  std::mutex materialize_mu_;
  Value lo_;
  Value hi_;
  /// Membership: bit p % 64 of word p / 64 is set when column page p is a
  /// member. Sized to the column at creation (8 KiB per 65,536 pages).
  std::vector<uint64_t> members_;
  uint64_t num_pages_ = 0;
  /// slot -> physical page while the view has an arena (one entry per
  /// member), empty without one.
  std::vector<uint64_t> slot_pages_;
  /// page -> slot, for RemovePage on an arena alone. Built by the first
  /// such removal (see SlotIndex), kept current by the appends and
  /// removals while it exists, and dropped by ReleaseArena. A mapped view
  /// that never loses a page never allocates it.
  std::optional<std::unordered_map<uint64_t, uint64_t>> page_to_slot_;
  /// Cached member page runs; null = invalidated. Accessed with the atomic
  /// shared_ptr free functions.
  mutable std::shared_ptr<const std::vector<PageRun>> member_runs_cache_;
  ViewUsageStats usage_;
  /// Hits answered without an arena since the view last held none.
  std::atomic<uint64_t> unmapped_hits_{0};
};

/// The maximal runs of set bits in `bits` (bit p % 64 of word p / 64 is
/// page p), ascending — a membership bitmap as the page runs a scan reads.
std::vector<PageRun> PageRunsOfBitmap(const std::vector<uint64_t>& bits);

/// Builds the view for [lo, hi] by scanning the column (the paper's
/// creation path: the scan that answers the triggering query also emits the
/// view). Pages whose zone (PhysicalColumn::zones()) misses [lo, hi] hold
/// no member value and are not read; the reported page count is still the
/// whole column. The pass shards per `scan_options` (defaults follow
/// VMSV_THREADS / VMSV_SERIAL_CUTOFF); the view is identical for any
/// setting. Optimizations per `options`; `mapper` may be null unless
/// options.background_mapping is set, in which case it must be provided.
StatusOr<std::unique_ptr<VirtualView>> BuildViewByScan(
    const PhysicalColumn& column, Value lo, Value hi,
    const ViewCreationOptions& options = {}, BackgroundMapper* mapper = nullptr,
    const ParallelScanOptions& scan_options = {});

/// Same scan for the view of `query`'s range, but additionally returns
/// the query's filtered result from the single pass (used by the adaptive
/// layer: answer + candidate in one scan).
struct ViewBuildOutput {
  std::unique_ptr<VirtualView> view;
  PageScanResult query_result;
  uint64_t scanned_pages = 0;
};
StatusOr<ViewBuildOutput> BuildViewAndAnswer(
    const PhysicalColumn& column, const RangeQuery& query,
    const ViewCreationOptions& options, BackgroundMapper* mapper,
    const ParallelScanOptions& scan_options = {});

}  // namespace vmsv

#endif  // VMSV_CORE_VIRTUAL_VIEW_H_
