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
// Lifecycle (this layer + core/view_lifecycle.h): a view is born as a page
// list (created) and answers its first hits by reading its member page runs
// over the column's base mapping — no syscall, no page-table cost. Only
// once its hits have paid for one is it rewired into its own arena
// (mapped; the engine's threshold is AdaptiveConfig::materialize_after_hits).
// A mapped view fragments under membership churn — removals punch PROT_NONE
// holes instead of paying two mmaps for a swap-remove — and is periodically
// re-densified (compacted) by moving its live slot runs into a fresh dense
// arena with mremap(2). Views that stop earning their keep are dropped from
// the pool entirely (evicted), freeing their slot table and mapping budget.
//
// Thread-safety: scans, ScanMany, ContainsPage, RecordHit, CountUnmappedHits
// and lazy EnsureMaterialized may run concurrently from any number of
// reader threads (materialization is internally serialized per view; usage
// counters are relaxed atomics). Membership updates, Compact, ReleaseArena
// and destruction mutate mappings IN PLACE and must not overlap any reader
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
#include <set>
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

/// How VirtualView::Compact re-densifies a fragmented view. Compaction always
/// orders the dense slots by physical page id: adjacent file pages then land
/// in adjacent slots, so the kernel merges their mappings into fewer VMAs
/// (mapping-budget relief) and future re-materializations coalesce; scan
/// results are order-insensitive, so this is always safe. It then attempts
/// to collapse the dense arena's whole congruent 2 MiB units to PMD mappings
/// (no-op unless the backing file carries a huge flavor; see
/// VirtualArena::PromoteRange); refusals are counted in the stats, never
/// errors.
struct ViewCompactionOptions {
  /// Move live runs with mremap(2) so page-table entries (and with them the
  /// already-faulted residency) travel to the new arena. When false — or
  /// when VirtualArena::MremapSupported() is false — every run is rewired
  /// with a fresh mmap instead and its pages fault again on next touch.
  /// This is the forced-fallback knob the lifecycle tests exercise.
  bool use_mremap = true;
};

/// What one Compact call did (all counts are pages/runs of this view).
struct ViewCompactionStats {
  uint64_t live_pages = 0;
  /// PROT_NONE hole slots reclaimed (arena extent shrinks by this much).
  uint64_t holes_reclaimed = 0;
  /// Maximal virtually-contiguous live slot runs before/after. After a
  /// compaction this is 1 (or 0 for an empty view): the dense-range scan
  /// fast path applies again.
  uint64_t slot_runs_before = 0;
  uint64_t slot_runs_after = 0;
  /// Maximal file-contiguous runs (≈ kernel VMAs) before/after.
  uint64_t file_runs_before = 0;
  uint64_t file_runs_after = 0;
  /// Moves executed as mremap (PTEs preserved) vs rewire fallback.
  uint64_t mremap_moves = 0;
  uint64_t remap_moves = 0;
  /// 2 MiB units PMD-backed after the post-compaction promotion pass, and
  /// collapse attempts the kernel refused (0/0 when promotion is off or the
  /// file has no huge flavor).
  uint64_t huge_units_promoted = 0;
  uint64_t huge_promote_failures = 0;
};

/// Per-view usage accounting consumed by the cost-aware eviction policy
/// (core/view_lifecycle.h). The "clock" is a logical query sequence number
/// maintained by the adaptive layer. Fields are relaxed-consistency atomics:
/// concurrent readers RecordHit while the maintenance path scores views, and
/// an approximately-fresh recency is all the policy needs.
struct ViewUsageStats {
  /// Query sequence number at creation.
  std::atomic<uint64_t> created_at_query{0};
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

/// A partial view is born as a page LIST; the contiguous arena mapping is
/// materialized either eagerly at creation (BuildViewByScan) or lazily by
/// EnsureMaterialized (the adaptive path, once the view's hits reach the
/// engine's threshold). While unmaterialized, scans read the member page
/// runs in place over the column's base mapping, and membership updates are
/// list edits that cost no syscalls.
///
/// Membership is a bitmap with one bit per column page: ContainsPage, the
/// duplicate checks and the admission counts (CountPagesNotIn) are bit
/// tests, with no hashing. Only RemovePage needs a page's slot; the first
/// removal builds that page->slot index, and the paths that reorder slots
/// wholesale drop it again.
///
/// Fragmentation model: while materialized, RemovePage punches a PROT_NONE
/// hole into the slot range (one mmap) instead of rewiring the tail into the
/// gap (two mmaps) — cheaper per removal and order-preserving, at the price
/// of fragmenting the virtual range. Scans transparently switch from the
/// dense fast path to a run-wise path while holes exist; Compact() restores
/// density. Holes never exist on unmaterialized views (list removals
/// swap-remove).
class VirtualView {
 public:
  /// Slot-table sentinel: the slot is a hole (no physical page).
  static constexpr uint64_t kHoleSlot = ~uint64_t{0};

  /// Creates an empty unmaterialized view over value range [lo, hi].
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

  /// Live (hole-free) page count.
  uint64_t num_pages() const { return num_live_; }

  /// Arena slots the view currently spans, INCLUDING holes. Equal to
  /// num_pages() exactly when the view is dense.
  uint64_t num_slots() const { return pages_.size(); }

  /// Current hole count; > 0 only while materialized.
  uint64_t hole_slots() const { return holes_.size(); }

  /// Maximal virtually-contiguous live slot runs. 1 for a dense non-empty
  /// view; grows as removals punch holes. The run-count/page-count ratio is
  /// the lifecycle manager's compaction trigger.
  uint64_t num_slot_runs() const { return num_slot_runs_; }

  /// Maximal file-contiguous live runs (≈ kernel VMAs when materialized).
  /// Served from an incrementally-maintained cache (O(1)); list-order
  /// swap-removes on unmaterialized views dirty it, after which one
  /// O(num_slots) walk rebuilds it lazily.
  uint64_t CountFileRuns() const;

  /// Runs of the SORTED page set — the file-run count a sort-by-page
  /// compaction would achieve. Maintained incrementally (order-independent,
  /// so never dirty); the sort-only compaction trigger compares it against
  /// CountFileRuns in O(1).
  uint64_t MinimalFileRuns() const { return num_set_runs_; }

  /// The live physical pages in slot order (holes skipped). Materializes a
  /// copy; use ForEachPage to iterate without allocating.
  std::vector<uint64_t> physical_pages() const;

  /// Invokes fn(physical_page) for every live page in slot order.
  template <typename Fn>
  void ForEachPage(Fn&& fn) const {
    for (const uint64_t page : pages_) {
      if (page != kHoleSlot) fn(page);
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
  /// multi-view cover reads over the base mapping.
  void OrMembersInto(std::vector<uint64_t>* bits) const;

  /// Counts `hits` queries this view answers while it holds no arena and
  /// returns the total since the view was created or last released its
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
    usage_.created_at_query = query_seq;
    usage_.last_used_query = query_seq;
    usage_.creation_scanned_pages = scanned_pages;
  }

  /// Creates the arena and rewires the current page list into it (runs of
  /// consecutive page ids coalesce into single mmap calls). No-op when
  /// already materialized. Safe to race from several reader threads: a
  /// per-view mutex serializes the build and the arena is published last.
  /// Error contract: on failure the view stays consistently UNmaterialized.
  Status EnsureMaterialized();

  /// Appends a physical page. When materialized, a single page fills the
  /// lowest hole if one exists (re-densifying as membership churns),
  /// otherwise maps at the tail slot. `mapper` non-null routes the mmap to
  /// the background thread.
  /// Error contract: InvalidArgument for a page at or past the column's
  /// end; FailedPrecondition if the page is already a member;
  /// ResourceExhausted when the arena reservation is full; on mmap failure
  /// membership is NOT recorded.
  Status AppendPage(uint64_t page, BackgroundMapper* mapper = nullptr);

  /// Appends `count` consecutive physical pages at the tail (one mmap call
  /// when materialized); falls back to filling holes page-wise when the tail
  /// reservation is exhausted but holes can take the pages. Same error
  /// contract as AppendPage.
  Status AppendPageRun(uint64_t first_page, uint64_t count,
                       BackgroundMapper* mapper = nullptr);

  /// Installs a page membership — strictly ascending page ids of the view's
  /// column — into an EMPTY, unmaterialized view in one pass: the lazy
  /// candidate build and the durable reopen both end here. Slot order is
  /// page order; the slot, file and set run counts follow from neighbour
  /// gaps. Pure bookkeeping: no mmap happens until the first scan
  /// materializes the view lazily, and no page->slot index is built.
  /// Error contract: FailedPrecondition when the view already has pages or
  /// an arena; InvalidArgument, leaving the view untouched, when the list
  /// is not strictly ascending or holds a page at or past the column's end.
  Status InstallPages(std::vector<uint64_t> pages);

  /// Returns the view to the unmaterialized state, handing back the arena
  /// for epoch retirement (null when already unmaterialized) — arena
  /// release: membership stays, the mapping budget is released, the
  /// unmapped-hit count restarts at 0, and the next EnsureMaterialized
  /// rebuilds the arena from the page list.
  /// Hole slots densify away (pure list edits, slot order preserved) to
  /// restore the unmaterialized hole-free invariant.
  /// Not safe to run concurrently with scans or a live BackgroundMapper
  /// (same exclusion contract as Compact: the engine holds exclusive
  /// views_mu_ and waits for epoch quiescence first).
  std::unique_ptr<VirtualArena> ReleaseArena();

  /// Removes a physical page. When materialized, the slot becomes a
  /// PROT_NONE hole (one mmap; trailing holes are trimmed for free) — the
  /// view fragments and Compact() is the cure. Unmaterialized removals are
  /// plain list edits (swap-remove).
  /// Error contract: NotFound when the page is not a member.
  Status RemovePage(uint64_t page);

  /// True when the dense-range scan fast path applies (no holes).
  bool is_dense() const { return holes_.empty(); }

  /// Re-densifies a materialized fragmented view: live slot runs move into
  /// a fresh dense arena in file-page order, holes vanish, and adjacent
  /// file pages merge into fewer kernel VMAs. With
  /// options.use_mremap the moves preserve page-table entries — no data is
  /// copied and no refaults follow. No-op on dense unmaterialized or empty
  /// views. `stats` (optional) receives what happened.
  /// Error contract: on a mid-compaction syscall failure the view's mapping
  /// state is unspecified; callers should discard the view. Not safe to run
  /// concurrently with scans or a live BackgroundMapper (Drain first; the
  /// concurrent engine excludes readers via epoch quiescence).
  /// `retired_arena` non-null receives the superseded arena instead of
  /// destroying it inline — the concurrent engine parks it on the epoch
  /// limbo list. (With use_mremap its mappings were already moved out, so
  /// deferral is about uniform object lifetime, not page protection.)
  Status Compact(const ViewCompactionOptions& options = {},
                 ViewCompactionStats* stats = nullptr,
                 std::unique_ptr<VirtualArena>* retired_arena = nullptr);

  /// Scans the view filtered by q, sharded across the scan thread pool.
  /// With an arena, dense views scan as one contiguous range and fragmented
  /// views scan their live runs (slower — see Compact); without one, the
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
  /// through the view's slot table, or directly for the member page runs
  /// over the base mapping when the view has no arena. Result i is
  /// bit-identical to Scan(queries[i]).
  std::vector<PageScanResult> ScanMany(
      const std::vector<RangeQuery>& queries, const PageZone* column_zones,
      const ParallelScanOptions& scan_options = {}) const;

  /// ScanMany restricted to pages passing `include(physical_page)` — the
  /// multi-view dedup hook: membership is decided serially in slot order
  /// (the predicate may be stateful, e.g. a bitmap test-and-set), then the
  /// selected slots are shared-scanned once for ALL queries. The view must
  /// be materialized.
  template <typename Pred>
  std::vector<PageScanResult> ScanManyIf(const std::vector<RangeQuery>& queries,
                                         const PageZone* column_zones,
                                         Pred include) const {
    std::vector<uint64_t> slots;
    slots.reserve(pages_.size());
    for (uint64_t slot = 0; slot < pages_.size(); ++slot) {
      if (pages_[slot] == kHoleSlot) continue;
      if (include(pages_[slot])) slots.push_back(slot);
    }
    return ScanManySelectedSlots(slots, queries, column_zones);
  }

 private:
  VirtualView(std::shared_ptr<PhysicalMemoryFile> file, const Value* base,
              uint64_t arena_slots, Value lo, Value hi)
      : file_(std::move(file)),
        base_(base),
        arena_slots_(arena_slots),
        lo_(lo),
        hi_(hi),
        members_((arena_slots + 63) / 64, 0) {}

  /// ScanMany over an explicit slot list (ascending slot order; every slot
  /// must be live). Consecutive slots coalesce into multi-page kernel calls.
  std::vector<PageScanResult> ScanManySelectedSlots(
      const std::vector<uint64_t>& slots,
      const std::vector<RangeQuery>& queries,
      const PageZone* column_zones) const;

  /// Installs `page` at `slot` in the bookkeeping tables (slot-run counter,
  /// membership bitmap, slot index if built, live count). The mapping itself
  /// must already be arranged by the caller.
  void RecordPageAt(uint64_t slot, uint64_t page);

  /// Rejects page ids at or past the column's end (the bitmap's size).
  Status CheckPageRange(uint64_t first_page, uint64_t count) const;

  void SetMember(uint64_t page) {
    members_[page / 64] |= uint64_t{1} << (page % 64);
  }
  void ClearMember(uint64_t page) {
    members_[page / 64] &= ~(uint64_t{1} << (page % 64));
  }

  /// The page->slot index, built from the slot table on first use.
  std::unordered_map<uint64_t, uint64_t>& SlotIndex();

  /// Collects the maximal live slot runs in ascending slot order.
  std::vector<PageRun> LiveSlotRuns() const;

  /// The live slot runs, served from a cache rebuilt at most once per
  /// membership change (scans used to rebuild the list on EVERY fragmented
  /// scan). Concurrent readers may both build the cache after an
  /// invalidation — they build identical lists and either store wins.
  std::shared_ptr<const std::vector<PageRun>> SlotRunsCached() const;

  /// The member page runs (column page ids, ascending) that a view without
  /// an arena reads over the base mapping, taken from the membership bitmap
  /// and cached like SlotRunsCached.
  std::shared_ptr<const std::vector<PageRun>> MemberRunsCached() const;

  /// Drops both run caches; every membership-changing path calls this.
  void InvalidateRunCache() {
    std::atomic_store(&runs_cache_,
                      std::shared_ptr<const std::vector<PageRun>>());
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
  std::vector<uint64_t> pages_;             // slot -> physical page | kHoleSlot
  /// Membership: bit p % 64 of word p / 64 is set when column page p is a
  /// live member. Sized to the column at creation (8 KiB per 65,536 pages).
  std::vector<uint64_t> members_;
  /// page -> slot, for RemovePage alone. Built by the first removal (see
  /// SlotIndex), kept current by RecordPageAt and RemovePage while it
  /// exists, and dropped by InstallPages, ReleaseArena's densify and
  /// Compact, which reorder slots wholesale. A view that never loses a
  /// page never allocates it.
  std::optional<std::unordered_map<uint64_t, uint64_t>> page_to_slot_;
  std::set<uint64_t> holes_;                // hole slots, ascending
  uint64_t num_live_ = 0;
  uint64_t num_slot_runs_ = 0;
  /// Maximal file-contiguous runs in SLOT order; valid when !dirty.
  /// Swap-removes reorder the list arbitrarily, so they dirty the cache
  /// instead of patching it; CountFileRuns rebuilds lazily.
  mutable uint64_t num_file_runs_ = 0;
  mutable bool file_runs_dirty_ = false;
  /// Maximal runs of the page SET in sorted order (order-independent, so
  /// exact under every mutation path).
  uint64_t num_set_runs_ = 0;
  /// Cached LiveSlotRuns and member page runs; null = invalidated. Accessed
  /// with the atomic shared_ptr free functions.
  mutable std::shared_ptr<const std::vector<PageRun>> runs_cache_;
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

/// Same scan, but additionally returns the filtered result of `query` from
/// the single pass (used by the adaptive layer: answer + candidate in one
/// scan). `query` must be covered by [lo, hi].
struct ViewBuildOutput {
  std::unique_ptr<VirtualView> view;
  PageScanResult query_result;
  uint64_t scanned_pages = 0;
};
StatusOr<ViewBuildOutput> BuildViewAndAnswer(
    const PhysicalColumn& column, Value lo, Value hi, const RangeQuery& query,
    const ViewCreationOptions& options, BackgroundMapper* mapper,
    const ParallelScanOptions& scan_options = {});

}  // namespace vmsv

#endif  // VMSV_CORE_VIRTUAL_VIEW_H_
