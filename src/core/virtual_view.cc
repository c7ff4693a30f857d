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

Status VirtualView::CheckPageRange(uint64_t first_page, uint64_t count) const {
  if (first_page >= arena_slots_ || count > arena_slots_ - first_page) {
    return InvalidArgument("page beyond the view's column");
  }
  return OkStatus();
}

std::unordered_map<uint64_t, uint64_t>& VirtualView::SlotIndex() {
  if (!page_to_slot_.has_value()) {
    auto& index = page_to_slot_.emplace();
    index.reserve(slot_pages_.size());
    for (uint64_t slot = 0; slot < slot_pages_.size(); ++slot) {
      index.emplace(slot_pages_[slot], slot);
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
  const auto runs = MemberRunsCached();
  auto arena_r = VirtualArena::Create(file_, arena_slots_);
  if (!arena_r.ok()) return arena_r.status();
  // Materialization is transactional: the arena is installed only once every
  // mapping succeeded. A mid-way mmap failure (e.g. vm.max_map_count
  // exhausted) must leave the view consistently without an arena — a
  // half-mapped arena would make the next Scan fault instead of the caller
  // seeing this Status.
  std::unique_ptr<VirtualArena> arena = std::move(arena_r).ValueOrDie();
  // The bitmap's runs in ascending page order, one mmap each: the arena is
  // dense and file-ordered, with the fewest file mappings.
  std::vector<uint64_t> slot_pages;
  slot_pages.reserve(num_pages_);
  for (const PageRun& run : *runs) {
    VMSV_RETURN_IF_ERROR(
        arena->MapRange(slot_pages.size(), run.start_page, run.num_pages));
    for (uint64_t i = 0; i < run.num_pages; ++i) {
      slot_pages.push_back(run.start_page + i);
    }
  }
  slot_pages_ = std::move(slot_pages);
  PublishArena(std::move(arena));
  return OkStatus();
}

Status VirtualView::AppendPageRun(uint64_t first_page, uint64_t count,
                                  BackgroundMapper* mapper) {
  VMSV_RETURN_IF_ERROR(CheckPageRange(first_page, count));
  for (uint64_t i = 0; i < count; ++i) {
    if (ContainsPage(first_page + i)) {
      return FailedPrecondition("page already in view");
    }
  }
  if (arena_ != nullptr) {
    // Map at the tail before recording membership: on mmap failure the
    // view must not list pages whose slots are unmapped (a later Scan
    // would fault). Background-mapped errors surface at Drain, where
    // creation fails as a whole and the view is dropped.
    const uint64_t tail = slot_pages_.size();
    if (mapper != nullptr) {
      mapper->Enqueue(arena_.get(), tail, first_page, count);
    } else {
      VMSV_RETURN_IF_ERROR(arena_->MapRange(tail, first_page, count));
    }
    for (uint64_t i = 0; i < count; ++i) {
      slot_pages_.push_back(first_page + i);
      if (page_to_slot_.has_value()) {
        (*page_to_slot_)[first_page + i] = tail + i;
      }
    }
  }
  for (uint64_t i = 0; i < count; ++i) SetMember(first_page + i);
  num_pages_ += count;
  InvalidateRunCache();
  return OkStatus();
}

Status VirtualView::InstallPages(const std::vector<uint64_t>& pages) {
  if (num_pages_ > 0 || arena_ != nullptr) {
    return FailedPrecondition(
        "InstallPages needs an empty view without an arena");
  }
  // An empty view has no members, so a rejected list leaves it untouched
  // by zeroing the bits set so far.
  for (size_t i = 0; i < pages.size(); ++i) {
    const uint64_t page = pages[i];
    if (page >= arena_slots_ || (i > 0 && pages[i - 1] >= page)) {
      std::fill(members_.begin(), members_.end(), 0);
      return InvalidArgument(page >= arena_slots_
                                 ? "installed page beyond the view's column"
                                 : "installed pages not strictly ascending");
    }
    SetMember(page);
  }
  num_pages_ = pages.size();
  InvalidateRunCache();
  return OkStatus();
}

std::unique_ptr<VirtualArena> VirtualView::ReleaseArena() {
  if (arena_ == nullptr) return nullptr;
  arena_ptr_.store(nullptr, std::memory_order_release);
  std::unique_ptr<VirtualArena> retired = std::move(arena_);
  slot_pages_ = std::vector<uint64_t>();
  page_to_slot_.reset();
  unmapped_hits_.store(0, std::memory_order_relaxed);
  return retired;
}

Status VirtualView::RemovePage(uint64_t page) {
  if (!ContainsPage(page)) return NotFound("page not in view");
  if (arena_ == nullptr) {
    ClearMember(page);
    --num_pages_;
    InvalidateRunCache();
    return OkStatus();
  }
  // Swap-remove (§2.4): rewire the tail page into the gap, record the
  // edit, then return the old tail slot to the reservation. The arena
  // stays dense, so scans stay one contiguous sweep.
  std::unordered_map<uint64_t, uint64_t>& index = SlotIndex();
  const uint64_t slot = index.at(page);
  const uint64_t tail = slot_pages_.size() - 1;
  if (slot != tail) {
    VMSV_RETURN_IF_ERROR(arena_->MapRange(slot, slot_pages_[tail], 1));
    slot_pages_[slot] = slot_pages_[tail];
    index[slot_pages_[slot]] = slot;
  }
  slot_pages_.pop_back();
  index.erase(page);
  ClearMember(page);
  --num_pages_;
  InvalidateRunCache();
  // The edit stands even if the unmap fails: the old tail slot lies past
  // the slot list, so no scan reads it, and the next tail append maps over
  // it.
  return arena_->UnmapRange(tail, 1);
}

std::vector<uint64_t> VirtualView::physical_pages() const {
  std::vector<uint64_t> pages;
  pages.reserve(num_pages_);
  ForEachPage([&pages](uint64_t page) { pages.push_back(page); });
  return pages;
}

std::shared_ptr<const std::vector<PageRun>> VirtualView::MemberRunsCached()
    const {
  // Racing readers rebuild identical lists (membership is frozen while any
  // reader scans); last store wins and both copies are valid.
  auto cached = std::atomic_load(&member_runs_cache_);
  if (cached != nullptr) return cached;
  auto built =
      std::make_shared<const std::vector<PageRun>>(PageRunsOfBitmap(members_));
  std::atomic_store(&member_runs_cache_,
                    std::shared_ptr<const std::vector<PageRun>>(built));
  return built;
}

PageScanResult VirtualView::Scan(const RangeQuery& q,
                                 const ParallelScanOptions& scan_options) const {
  const ParallelScanner scanner(scan_options);
  const VirtualArena* arena = arena_ptr_.load(std::memory_order_acquire);
  if (arena == nullptr) {
    // No arena: the member pages, read in place over the base mapping.
    return scanner.ScanPageRuns(base_, *MemberRunsCached(), q);
  }
  // The whole point of rewiring: one contiguous sweep, no indirection per
  // page, sharded above the cutoff.
  return scanner.ScanPages(reinterpret_cast<const Value*>(arena->data()),
                           slot_pages_.size(), q);
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
  return executor.SharedScanPages(
      reinterpret_cast<const Value*>(arena->data()), slot_pages_.size(),
      queries, ZoneTable{column_zones, slot_pages_.data()});
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
    const PhysicalColumn& column, const RangeQuery& query,
    const ViewCreationOptions& options, BackgroundMapper* mapper,
    const ParallelScanOptions& scan_options) {
  if (options.background_mapping && mapper == nullptr) {
    return InvalidArgument("background_mapping requires a BackgroundMapper");
  }
  auto view_r = VirtualView::CreateEmpty(column, query.lo, query.hi);
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
  const uint64_t num_pages = column.num_pages();
  // A page whose zone misses the range holds no value of it: it is no
  // member and adds {0, 0}, so it is not read.
  const PageZone* zones = column.zones();
  // One data pass, sharded across the scan pool and inline for one shard,
  // answers the query and collects each shard's ascending qualifying
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
      if (!zones[page].Intersects(query)) continue;
      // One vectorized filter pass answers the query and, since the view
      // range IS the query range, decides page membership too: creation
      // rides on the answering scan for free.
      const PageScanResult r =
          ScanPage(column.PageData(page), kValuesPerPage, query);
      s.result.Merge(r);
      if (r.match_count > 0) s.qualifying.push_back(page);
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
    VMSV_RETURN_IF_ERROR(out.view->InstallPages(pages));
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
  auto out = BuildViewAndAnswer(column, RangeQuery{lo, hi}, options, mapper,
                                scan_options);
  if (!out.ok()) return out.status();
  return std::move(out->view);
}

}  // namespace vmsv
