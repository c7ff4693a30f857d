#include "core/virtual_view.h"

#include <algorithm>

#include "exec/batch_executor.h"
#include "util/macros.h"

namespace vmsv {

// ---------------------------------------------------------------------------
// BackgroundMapper

BackgroundMapper::BackgroundMapper()
    : worker_([this] { WorkerLoop(); }) {}

BackgroundMapper::~BackgroundMapper() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  worker_.join();
}

void BackgroundMapper::Enqueue(VirtualArena* arena, uint64_t slot_start,
                               uint64_t file_page_start, uint64_t count) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push(MapTask{arena, slot_start, file_page_start, count});
  }
  work_cv_.notify_one();
}

Status BackgroundMapper::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && !busy_; });
  Status result = first_error_;
  first_error_ = OkStatus();
  return result;
}

void BackgroundMapper::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopping_) return;
      continue;
    }
    const MapTask task = queue_.front();
    queue_.pop();
    busy_ = true;
    lock.unlock();
    const Status st =
        task.arena->MapRange(task.slot_start, task.file_page_start, task.count);
    lock.lock();
    busy_ = false;
    if (!st.ok() && first_error_.ok()) first_error_ = st;
    if (queue_.empty()) idle_cv_.notify_all();
  }
}

// ---------------------------------------------------------------------------
// VirtualView

namespace {

/// Walks the maximal live slot runs of a slot table (kHoleSlot breaks a
/// run; `can_extend(slot, len)` may bound it further, e.g. by file
/// contiguity) and calls emit(slot_start, len) per run — the one
/// run-detection loop behind LiveSlotRuns and the compaction move list.
template <typename CanExtend, typename Emit>
void ForEachLiveRun(const std::vector<uint64_t>& pages, CanExtend can_extend,
                    Emit emit) {
  uint64_t slot = 0;
  while (slot < pages.size()) {
    if (pages[slot] == VirtualView::kHoleSlot) {
      ++slot;
      continue;
    }
    uint64_t len = 1;
    while (slot + len < pages.size() &&
           pages[slot + len] != VirtualView::kHoleSlot &&
           can_extend(slot, len)) {
      ++len;
    }
    emit(slot, len);
    slot += len;
  }
}

}  // namespace

StatusOr<std::unique_ptr<VirtualView>> VirtualView::CreateEmpty(
    const PhysicalColumn& column, Value lo, Value hi) {
  if (lo > hi) return InvalidArgument("view range lo > hi");
  return std::unique_ptr<VirtualView>(new VirtualView(
      column.file(), reinterpret_cast<const Value*>(column.base_arena().data()),
      column.num_pages(), lo, hi));
}

std::vector<PageRun> PageRunsOfBitmap(const std::vector<uint64_t>& bits) {
  // Word by word: a run ends at the first clear bit after a set one, which
  // one count-trailing-zeros finds; all-zero and all-one words cost one
  // compare each.
  std::vector<PageRun> runs;
  bool in_run = false;
  uint64_t run_start = 0;
  for (size_t w = 0; w < bits.size(); ++w) {
    const uint64_t word = bits[w];
    unsigned bit = 0;
    while (bit < 64) {
      const uint64_t rest = (in_run ? ~word : word) & (~uint64_t{0} << bit);
      if (rest == 0) break;
      bit = static_cast<unsigned>(__builtin_ctzll(rest));
      const uint64_t page = w * 64 + bit;
      if (in_run) {
        runs.push_back(PageRun{run_start, page - run_start});
      } else {
        run_start = page;
      }
      in_run = !in_run;
    }
  }
  if (in_run) runs.push_back(PageRun{run_start, bits.size() * 64 - run_start});
  return runs;
}

void VirtualView::RecordPageAt(uint64_t slot, uint64_t page) {
  if (slot >= pages_.size()) {
    pages_.resize(slot + 1, kHoleSlot);
  }
  // Slot-run transitions: filling between two live neighbors merges their
  // runs, filling next to one extends it, filling in isolation starts one.
  const bool left_live = slot > 0 && pages_[slot - 1] != kHoleSlot;
  const bool right_live =
      slot + 1 < pages_.size() && pages_[slot + 1] != kHoleSlot;
  if (left_live && right_live) {
    --num_slot_runs_;
  } else if (!left_live && !right_live) {
    ++num_slot_runs_;
  }
  // File-run transitions (slot order): same merge/extend/start logic, but
  // adjacency additionally requires consecutive file pages.
  if (!file_runs_dirty_) {
    const bool left_adj = left_live && pages_[slot - 1] + 1 == page;
    const bool right_adj = right_live && page + 1 == pages_[slot + 1];
    if (left_adj && right_adj) {
      --num_file_runs_;
    } else if (!left_adj && !right_adj) {
      ++num_file_runs_;
    }
  }
  // Set-run transitions (sorted page order): membership of page±1 decides.
  const bool set_left = page > 0 && ContainsPage(page - 1);
  const bool set_right = ContainsPage(page + 1);
  if (set_left && set_right) {
    --num_set_runs_;
  } else if (!set_left && !set_right) {
    ++num_set_runs_;
  }
  pages_[slot] = page;
  SetMember(page);
  if (page_to_slot_.has_value()) (*page_to_slot_)[page] = slot;
  holes_.erase(slot);
  ++num_live_;
  InvalidateRunCache();
}

Status VirtualView::CheckPageRange(uint64_t first_page, uint64_t count) const {
  if (first_page >= arena_slots_ || count > arena_slots_ - first_page) {
    return InvalidArgument("page beyond the view's column");
  }
  return OkStatus();
}

std::unordered_map<uint64_t, uint64_t>& VirtualView::SlotIndex() {
  if (!page_to_slot_.has_value()) {
    auto& index = page_to_slot_.emplace();
    index.reserve(num_live_);
    for (uint64_t slot = 0; slot < pages_.size(); ++slot) {
      if (pages_[slot] != kHoleSlot) index.emplace(pages_[slot], slot);
    }
  }
  return *page_to_slot_;
}

uint64_t VirtualView::CountPagesNotIn(const VirtualView& other,
                                      uint64_t limit) const {
  uint64_t missing = 0;
  for (size_t word = 0; word < members_.size() && missing <= limit; ++word) {
    const uint64_t theirs =
        word < other.members_.size() ? other.members_[word] : 0;
    missing += static_cast<uint64_t>(
        __builtin_popcountll(members_[word] & ~theirs));
  }
  return missing;
}

void VirtualView::OrMembersInto(std::vector<uint64_t>* bits) const {
  for (size_t word = 0; word < members_.size(); ++word) {
    (*bits)[word] |= members_[word];
  }
}

Status VirtualView::EnsureMaterialized() {
  if (is_materialized()) return OkStatus();
  // Lazy materialization happens at the engine's threshold hit, and under
  // the concurrent engine several readers can reach it at once; the
  // per-view mutex makes exactly one of them build the arena.
  std::lock_guard<std::mutex> lock(materialize_mu_);
  if (is_materialized()) return OkStatus();
  auto arena_r = VirtualArena::Create(file_, arena_slots_,
                                      pages_.empty() ? 0 : pages_[0]);
  if (!arena_r.ok()) return arena_r.status();
  // Materialization is transactional: the arena is installed only once every
  // mapping succeeded. A mid-way mmap failure (e.g. vm.max_map_count
  // exhausted) must leave the view consistently UNmaterialized — a
  // half-mapped arena would make the next Scan fault instead of the caller
  // seeing this Status.
  std::unique_ptr<VirtualArena> arena = std::move(arena_r).ValueOrDie();
  // Rewire the page list in coalesced runs of consecutive page ids. The
  // list is dense here: holes only ever exist while materialized.
  uint64_t slot = 0;
  while (slot < pages_.size()) {
    uint64_t run = 1;
    while (slot + run < pages_.size() &&
           pages_[slot + run] == pages_[slot] + run) {
      ++run;
    }
    VMSV_RETURN_IF_ERROR(arena->MapRange(slot, pages_[slot], run));
    slot += run;
  }
  PublishArena(std::move(arena));
  return OkStatus();
}

Status VirtualView::AppendPage(uint64_t page, BackgroundMapper* mapper) {
  VMSV_RETURN_IF_ERROR(CheckPageRange(page, 1));
  if (ContainsPage(page)) return FailedPrecondition("page already in view");
  // A single page re-densifies: fill the lowest hole if one exists (the
  // mmap cost is the same either way, and the arena stays short).
  if (arena_ != nullptr && !holes_.empty()) {
    const uint64_t slot = *holes_.begin();
    if (mapper != nullptr) {
      mapper->Enqueue(arena_.get(), slot, page, 1);
    } else {
      VMSV_RETURN_IF_ERROR(arena_->MapRange(slot, page, 1));
    }
    RecordPageAt(slot, page);
    return OkStatus();
  }
  return AppendPageRun(page, 1, mapper);
}

Status VirtualView::AppendPageRun(uint64_t first_page, uint64_t count,
                                  BackgroundMapper* mapper) {
  VMSV_RETURN_IF_ERROR(CheckPageRange(first_page, count));
  for (uint64_t i = 0; i < count; ++i) {
    if (ContainsPage(first_page + i)) {
      return FailedPrecondition("page already in view");
    }
  }
  const uint64_t slot_start = pages_.size();
  if (slot_start + count > arena_slots_) {
    // The tail reservation is exhausted (hole slots still count against it).
    // Fall back to filling holes page-wise when they can absorb the run.
    // Like the tail path below, ALL maps run before ANY membership is
    // recorded: a mid-way mmap failure must not leave a half-applied run.
    // (A failure can leave some hole slots physically mapped but still
    // logically holes — benign: scans skip them by the slot-table sentinel,
    // and a later fill or compaction reclaims the mapping.)
    if (arena_ != nullptr && holes_.size() >= count) {
      std::vector<uint64_t> targets;
      targets.reserve(count);
      for (auto it = holes_.begin(); targets.size() < count; ++it) {
        targets.push_back(*it);
      }
      for (uint64_t i = 0; i < count; ++i) {
        if (mapper != nullptr) {
          mapper->Enqueue(arena_.get(), targets[i], first_page + i, 1);
        } else {
          VMSV_RETURN_IF_ERROR(arena_->MapRange(targets[i], first_page + i, 1));
        }
      }
      for (uint64_t i = 0; i < count; ++i) {
        RecordPageAt(targets[i], first_page + i);
      }
      return OkStatus();
    }
    return ResourceExhausted("view arena full");
  }
  // Map before recording membership: on mmap failure the view must not be
  // left listing pages whose slots are unmapped (a later Scan would fault).
  // Background-mapped errors surface at Drain, where creation fails as a
  // whole and the view is dropped.
  if (arena_ != nullptr) {
    if (mapper != nullptr) {
      mapper->Enqueue(arena_.get(), slot_start, first_page, count);
    } else {
      VMSV_RETURN_IF_ERROR(arena_->MapRange(slot_start, first_page, count));
    }
  }
  for (uint64_t i = 0; i < count; ++i) {
    RecordPageAt(slot_start + i, first_page + i);
  }
  return OkStatus();
}

Status VirtualView::InstallPages(std::vector<uint64_t> pages) {
  if (!pages_.empty() || arena_ != nullptr) {
    return FailedPrecondition("InstallPages needs an empty unmaterialized view");
  }
  // Slot order is page order, so the file runs and the set runs are the
  // same runs: one starts wherever a page does not follow its neighbour.
  // An empty unmaterialized view has no members, so a rejected list leaves
  // it untouched by zeroing the bits set so far.
  uint64_t runs = 0;
  for (uint64_t slot = 0; slot < pages.size(); ++slot) {
    const uint64_t page = pages[slot];
    if (page >= arena_slots_ || (slot > 0 && pages[slot - 1] >= page)) {
      std::fill(members_.begin(), members_.end(), 0);
      return InvalidArgument(page >= arena_slots_
                                 ? "installed page beyond the view's column"
                                 : "installed pages not strictly ascending");
    }
    if (slot == 0 || pages[slot - 1] + 1 != page) ++runs;
    SetMember(page);
  }
  pages_ = std::move(pages);
  page_to_slot_.reset();
  num_live_ = pages_.size();
  num_slot_runs_ = pages_.empty() ? 0 : 1;
  num_file_runs_ = runs;
  file_runs_dirty_ = false;
  num_set_runs_ = runs;
  InvalidateRunCache();
  return OkStatus();
}

std::unique_ptr<VirtualArena> VirtualView::ReleaseArena() {
  if (arena_ == nullptr) return nullptr;
  arena_ptr_.store(nullptr, std::memory_order_release);
  std::unique_ptr<VirtualArena> retired = std::move(arena_);
  if (!holes_.empty()) {
    // Densify in slot order (not swap-remove): arena release must be
    // deterministic, so the slot order the next materialization maps — and
    // with it every later scan — matches across runs.
    std::vector<uint64_t> dense;
    dense.reserve(num_live_);
    for (const uint64_t page : pages_) {
      if (page != kHoleSlot) dense.push_back(page);
    }
    pages_ = std::move(dense);
    page_to_slot_.reset();
    holes_.clear();
    file_runs_dirty_ = true;  // densification can merge hole-split runs
  }
  num_slot_runs_ = pages_.empty() ? 0 : 1;
  unmapped_hits_.store(0, std::memory_order_relaxed);
  InvalidateRunCache();
  return retired;
}

Status VirtualView::RemovePage(uint64_t page) {
  if (!ContainsPage(page)) return NotFound("page not in view");
  std::unordered_map<uint64_t, uint64_t>& index = SlotIndex();
  auto it = index.find(page);
  const uint64_t slot = it->second;

  // Set-run transitions mirror RecordPageAt's, inverted: removing a page
  // that bridged both neighbors splits a run, removing an isolated page
  // ends one. Order-independent, so shared by both branches below.
  const bool set_left = page > 0 && ContainsPage(page - 1);
  const bool set_right = ContainsPage(page + 1);
  if (set_left && set_right) {
    ++num_set_runs_;
  } else if (!set_left && !set_right) {
    --num_set_runs_;
  }

  if (arena_ == nullptr) {
    // Unmaterialized: plain list edit. Swap-remove keeps the list dense (the
    // hole representation below exists to save mmap calls; there are none to
    // save here). It reorders the list, so the slot-order file-run cache
    // goes dirty rather than being patched.
    file_runs_dirty_ = true;
    const uint64_t last_slot = pages_.size() - 1;
    if (slot != last_slot) {
      const uint64_t moved_page = pages_[last_slot];
      pages_[slot] = moved_page;
      index[moved_page] = slot;
    }
    pages_.pop_back();
    index.erase(it);
    ClearMember(page);
    --num_live_;
    num_slot_runs_ = num_live_ > 0 ? 1 : 0;
    InvalidateRunCache();
    return OkStatus();
  }

  // Materialized: punch a PROT_NONE hole — one mmap call (the historical
  // swap-remove paid two: rewire the tail page in, unmap the tail slot) and
  // slot order survives, which keeps runs coalescible. The price is
  // fragmentation, paid down by Compact(). If the slot sits inside a
  // promoted 2 MiB unit, the unit is demoted to 4 KiB first — the hole
  // punch itself would split the PMD anyway, but demoting keeps the arena's
  // granularity bookkeeping ahead of the kernel, not behind it.
  VMSV_RETURN_IF_ERROR(arena_->DemoteRange(slot, 1));
  VMSV_RETURN_IF_ERROR(arena_->UnmapRange(slot, 1));
  const bool left_live = slot > 0 && pages_[slot - 1] != kHoleSlot;
  const bool right_live =
      slot + 1 < pages_.size() && pages_[slot + 1] != kHoleSlot;
  if (left_live && right_live) {
    ++num_slot_runs_;  // split one run into two
  } else if (!left_live && !right_live) {
    --num_slot_runs_;  // removed a singleton run
  }
  if (!file_runs_dirty_) {
    const bool left_adj = left_live && pages_[slot - 1] + 1 == page;
    const bool right_adj = right_live && page + 1 == pages_[slot + 1];
    if (left_adj && right_adj) {
      ++num_file_runs_;
    } else if (!left_adj && !right_adj) {
      --num_file_runs_;
    }
  }
  pages_[slot] = kHoleSlot;
  holes_.insert(slot);
  index.erase(it);
  ClearMember(page);
  --num_live_;
  // Trailing holes shrink the slot range for free (their slots are already
  // back in the reserved state).
  while (!pages_.empty() && pages_.back() == kHoleSlot) {
    holes_.erase(pages_.size() - 1);
    pages_.pop_back();
  }
  InvalidateRunCache();
  return OkStatus();
}

std::vector<uint64_t> VirtualView::physical_pages() const {
  std::vector<uint64_t> live;
  live.reserve(num_live_);
  ForEachPage([&live](uint64_t page) { live.push_back(page); });
  return live;
}

uint64_t VirtualView::CountFileRuns() const {
  if (!file_runs_dirty_) return num_file_runs_;
  uint64_t runs = 0;
  bool in_run = false;
  uint64_t prev_page = 0;
  for (const uint64_t page : pages_) {
    if (page == kHoleSlot) {
      in_run = false;
      continue;
    }
    if (!in_run || page != prev_page + 1) ++runs;
    in_run = true;
    prev_page = page;
  }
  num_file_runs_ = runs;
  file_runs_dirty_ = false;
  return runs;
}

std::vector<PageRun> VirtualView::LiveSlotRuns() const {
  std::vector<PageRun> runs;
  ForEachLiveRun(
      pages_, [](uint64_t, uint64_t) { return true; },
      [&runs](uint64_t slot, uint64_t len) {
        runs.push_back(PageRun{slot, len});
      });
  return runs;
}

Status VirtualView::Compact(const ViewCompactionOptions& options,
                            ViewCompactionStats* stats,
                            std::unique_ptr<VirtualArena>* retired_arena) {
  ViewCompactionStats local;
  ViewCompactionStats& out = stats != nullptr ? *stats : local;
  out = ViewCompactionStats{};
  out.live_pages = num_live_;
  out.holes_reclaimed = holes_.size();
  out.slot_runs_before = num_slot_runs_;
  out.file_runs_before = CountFileRuns();
  out.slot_runs_after = out.slot_runs_before;
  out.file_runs_after = out.file_runs_before;
  // Unmaterialized views are dense by invariant; empty ones have nothing to
  // move. Either way there is no arena work.
  if (arena_ == nullptr || num_live_ == 0) return OkStatus();

  // Move units: maximal runs contiguous in BOTH slots and file pages — the
  // granularity of one kernel VMA, which is what a single mremap can move.
  struct MoveUnit {
    uint64_t slot;
    uint64_t page;
    uint64_t len;
  };
  std::vector<MoveUnit> units;
  ForEachLiveRun(
      pages_,
      [this](uint64_t slot, uint64_t len) {
        return pages_[slot + len] == pages_[slot] + len;
      },
      [&](uint64_t slot, uint64_t len) {
        units.push_back(MoveUnit{slot, pages_[slot], len});
      });
  const bool sorted_already = std::is_sorted(
      units.begin(), units.end(),
      [](const MoveUnit& a, const MoveUnit& b) { return a.page < b.page; });
  if (holes_.empty() && sorted_already) {
    return OkStatus();  // already as dense as this view can get
  }
  if (!sorted_already) {
    std::sort(units.begin(), units.end(),
              [](const MoveUnit& a, const MoveUnit& b) { return a.page < b.page; });
  }

  // The congruence hint: slot 0 of the dense arena will hold the first file
  // page of the (possibly sorted) layout. Placing the arena base congruent
  // to that page mod 2 MiB is what makes the post-compaction collapse
  // attempt possible at all — the sorted, densified view is file-contiguous,
  // exactly the layout a PMD can map.
  auto arena_r =
      VirtualArena::Create(file_, arena_slots_,
                           units.empty() ? 0 : units.front().page);
  if (!arena_r.ok()) return arena_r.status();
  std::unique_ptr<VirtualArena> dense = std::move(arena_r).ValueOrDie();
  const bool allow_mremap =
      options.use_mremap && VirtualArena::MremapSupported();
  uint64_t dst = 0;
  for (const MoveUnit& unit : units) {
    bool used_mremap = false;
    VMSV_RETURN_IF_ERROR(dense->AdoptRange(arena_.get(), unit.slot, dst,
                                           unit.len, allow_mremap,
                                           &used_mremap));
    if (used_mremap) {
      ++out.mremap_moves;
    } else {
      ++out.remap_moves;
    }
    dst += unit.len;
  }
  if (retired_arena != nullptr) {
    *retired_arena = std::move(arena_);
  }
  PublishArena(std::move(dense));
  if (arena_->HugeCapable()) {
    // Compaction IS the promotion trigger: the view is now dense and
    // file-contiguous, so try to collapse every whole congruent 2 MiB unit.
    // Refusals leave those units at 4 KiB and are only counted — scans are
    // bit-identical either way.
    VMSV_RETURN_IF_ERROR(arena_->PromoteRange(0, num_live_));
    out.huge_units_promoted = arena_->huge_unit_count();
    out.huge_promote_failures = arena_->huge_promote_failures();
  }

  pages_.clear();
  pages_.reserve(num_live_);
  page_to_slot_.reset();
  for (const MoveUnit& unit : units) {
    for (uint64_t i = 0; i < unit.len; ++i) pages_.push_back(unit.page + i);
  }
  holes_.clear();
  num_slot_runs_ = pages_.empty() ? 0 : 1;
  InvalidateRunCache();
  file_runs_dirty_ = true;  // slot order changed wholesale; rebuild below
  out.slot_runs_after = num_slot_runs_;
  out.file_runs_after = CountFileRuns();
  return OkStatus();
}

namespace {

/// Loads `cache`, or builds and stores it when invalidated. Racing readers
/// rebuild identical lists (membership is frozen while any reader scans);
/// last store wins and both copies are valid.
template <typename Build>
std::shared_ptr<const std::vector<PageRun>> LoadOrBuildRuns(
    std::shared_ptr<const std::vector<PageRun>>* cache, Build build) {
  auto cached = std::atomic_load(cache);
  if (cached != nullptr) return cached;
  auto built = std::make_shared<const std::vector<PageRun>>(build());
  std::atomic_store(cache, std::shared_ptr<const std::vector<PageRun>>(built));
  return built;
}

}  // namespace

std::shared_ptr<const std::vector<PageRun>> VirtualView::SlotRunsCached()
    const {
  return LoadOrBuildRuns(&runs_cache_, [this] { return LiveSlotRuns(); });
}

std::shared_ptr<const std::vector<PageRun>> VirtualView::MemberRunsCached()
    const {
  return LoadOrBuildRuns(&member_runs_cache_,
                         [this] { return PageRunsOfBitmap(members_); });
}

PageScanResult VirtualView::Scan(const RangeQuery& q,
                                 const ParallelScanOptions& scan_options) const {
  const ParallelScanner scanner(scan_options);
  const VirtualArena* arena = arena_ptr_.load(std::memory_order_acquire);
  if (arena == nullptr) {
    // No arena: the member pages, read in place over the base mapping.
    return scanner.ScanPageRuns(base_, *MemberRunsCached(), q);
  }
  const Value* base = reinterpret_cast<const Value*>(arena->data());
  if (holes_.empty()) {
    // Dense fast path — the whole point of rewiring (and of compaction): one
    // contiguous sweep, no indirection per page, sharded above the cutoff.
    return scanner.ScanPages(base, pages_.size(), q);
  }
  // Fragmented path: sweep each live run, skipping the PROT_NONE holes.
  const auto runs = SlotRunsCached();
  return scanner.ScanPageRuns(base, *runs, q);
}

std::vector<PageScanResult> VirtualView::ScanMany(
    const std::vector<RangeQuery>& queries, const PageZone* column_zones,
    const ParallelScanOptions& scan_options) const {
  const BatchExecutor executor(scan_options);
  const VirtualArena* arena = arena_ptr_.load(std::memory_order_acquire);
  if (arena == nullptr) {
    return executor.SharedScanPageRuns(base_, *MemberRunsCached(), queries,
                                       ZoneTable{column_zones, nullptr});
  }
  const Value* base = reinterpret_cast<const Value*>(arena->data());
  const ZoneTable zones{column_zones, pages_.data()};
  if (holes_.empty()) {
    return executor.SharedScanPages(base, pages_.size(), queries, zones);
  }
  const auto runs = SlotRunsCached();
  return executor.SharedScanPageRuns(base, *runs, queries, zones);
}

std::vector<PageScanResult> VirtualView::ScanManySelectedSlots(
    const std::vector<uint64_t>& slots,
    const std::vector<RangeQuery>& queries,
    const PageZone* column_zones) const {
  // Coalesce consecutive selected slots so one kernel call covers each
  // virtually-contiguous block — on a compacted view a cover scan
  // degenerates to a handful of long sweeps — then one shared pass answers
  // every query from each page read.
  std::vector<PageRun> runs;
  size_t i = 0;
  while (i < slots.size()) {
    uint64_t len = 1;
    while (i + len < slots.size() && slots[i + len] == slots[i] + len) ++len;
    runs.push_back(PageRun{slots[i], len});
    i += len;
  }
  const BatchExecutor executor;
  return executor.SharedScanPageRuns(
      reinterpret_cast<const Value*>(arena().data()), runs, queries,
      ZoneTable{column_zones, pages_.data()});
}

// ---------------------------------------------------------------------------
// Creation by scan

namespace {

struct BuildState {
  VirtualView* view = nullptr;
  BackgroundMapper* mapper = nullptr;
  bool coalesce = false;
  uint64_t run_start = 0;
  uint64_t run_len = 0;
  Status status;

  void FlushRun() {
    if (run_len == 0 || !status.ok()) return;
    const Status st = view->AppendPageRun(run_start, run_len, mapper);
    if (!st.ok()) status = st;
    run_len = 0;
  }

  void AddPage(uint64_t page) {
    if (!status.ok()) return;
    if (!coalesce) {
      const Status st = view->AppendPage(page, mapper);
      if (!st.ok()) status = st;
      return;
    }
    if (run_len > 0 && page == run_start + run_len) {
      ++run_len;
      return;
    }
    FlushRun();
    run_start = page;
    run_len = 1;
  }
};

}  // namespace

StatusOr<ViewBuildOutput> BuildViewAndAnswer(
    const PhysicalColumn& column, Value lo, Value hi, const RangeQuery& query,
    const ViewCreationOptions& options, BackgroundMapper* mapper,
    const ParallelScanOptions& scan_options) {
  if (options.background_mapping && mapper == nullptr) {
    return InvalidArgument("background_mapping requires a BackgroundMapper");
  }
  auto view_r = VirtualView::CreateEmpty(column, lo, hi);
  if (!view_r.ok()) return view_r.status();
  ViewBuildOutput out;
  out.view = std::move(view_r).ValueOrDie();

  BackgroundMapper* effective_mapper =
      options.background_mapping ? mapper : nullptr;
  // Producer session (see BackgroundMapper): this whole build is one
  // Enqueue...Drain window; a concurrent lazy materialization on another
  // thread must not interleave its Drain with ours.
  std::unique_lock<std::mutex> session;
  if (effective_mapper != nullptr) {
    session = std::unique_lock<std::mutex>(effective_mapper->producer_mutex());
  }
  if (!options.lazy_materialize) {
    // Eager creation: the arena exists up front and the pages are rewired
    // right after the pass (§2.3). Lazy creation records the list only.
    VMSV_RETURN_IF_ERROR(out.view->EnsureMaterialized());
  }
  const RangeQuery view_range{lo, hi};
  const bool ranges_equal = view_range == query;
  const uint64_t num_pages = column.num_pages();
  // A page whose zone misses the view range holds no value of it, nor of
  // the query inside it: it is no member and adds {0, 0}, so it is not read.
  const PageZone* zones = column.zones();
  // One data pass (filter + membership probe), sharded across the scan pool
  // and inline for one shard, collects each shard's ascending qualifying
  // pages; their concatenation in shard order is the view's page list, so
  // view page order — and with it run coalescing and every result — is the
  // same for any thread count.
  struct ShardScan {
    PageScanResult result;
    std::vector<uint64_t> qualifying;
  };
  const ParallelScanner scanner(scan_options);
  std::vector<ShardScan> per_shard(scanner.NumShards(num_pages));
  scanner.ForShards(num_pages, [&](unsigned shard, uint64_t begin,
                                   uint64_t end) {
    ShardScan& s = per_shard[shard];
    for (uint64_t page = begin; page < end; ++page) {
      if (!zones[page].Intersects(view_range)) continue;
      const Value* data = column.PageData(page);
      // One vectorized filter pass answers the query; on the adaptive path
      // the candidate range IS the query range, so the same pass also
      // decides page membership and creation rides on the answering scan
      // for free. A wider view range needs a qualification probe only when
      // the query found nothing on the page.
      const PageScanResult r = ScanPage(data, kValuesPerPage, query);
      s.result.Merge(r);
      const bool qualifies =
          r.match_count > 0 ||
          (!ranges_equal && PageContainsAny(data, kValuesPerPage, view_range));
      if (qualifies) s.qualifying.push_back(page);
    }
  });
  for (const ShardScan& s : per_shard) out.query_result.Merge(s.result);
  out.scanned_pages = num_pages;

  if (options.lazy_materialize) {
    std::vector<uint64_t> pages = std::move(per_shard.front().qualifying);
    for (size_t shard = 1; shard < per_shard.size(); ++shard) {
      pages.insert(pages.end(), per_shard[shard].qualifying.begin(),
                   per_shard[shard].qualifying.end());
    }
    VMSV_RETURN_IF_ERROR(out.view->InstallPages(std::move(pages)));
    return out;
  }
  // Eager: replay the list in page order through the append paths, so the
  // mapping calls (coalesced or page-wise, inline or queued on the mapper)
  // are the ones a page-by-page build would issue, in the same order.
  BuildState state;
  state.view = out.view.get();
  state.mapper = effective_mapper;
  state.coalesce = options.coalesce_runs;
  for (const ShardScan& s : per_shard) {
    for (const uint64_t page : s.qualifying) state.AddPage(page);
  }
  state.FlushRun();
  if (effective_mapper != nullptr) {
    // Drain BEFORE any error return: queued tasks hold a raw pointer into
    // out.view's arena, which dies with this frame on the error path.
    VMSV_RETURN_IF_ERROR(effective_mapper->Drain());
  }
  if (!state.status.ok()) return state.status;
  return out;
}

StatusOr<std::unique_ptr<VirtualView>> BuildViewByScan(
    const PhysicalColumn& column, Value lo, Value hi,
    const ViewCreationOptions& options, BackgroundMapper* mapper,
    const ParallelScanOptions& scan_options) {
  auto out = BuildViewAndAnswer(column, lo, hi, RangeQuery{lo, hi}, options,
                                mapper, scan_options);
  if (!out.ok()) return out.status();
  return std::move(out->view);
}

}  // namespace vmsv
