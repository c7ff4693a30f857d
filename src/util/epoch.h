// EpochManager — epoch-based reclamation for the concurrent query engine.
//
// The hazard it solves: a reader scanning a view's arena must never observe
// the mapping being torn down underneath it. Remapping-under-readers is the
// classic VM-assisted-buffer-manager problem (PAPERS.md: Rayhan & Aref), and
// the synchronization belongs in user space, next to our slot tables, not in
// per-query kernel calls.
//
// Protocol (the adaptive layer is the one client; see adaptive_layer.h):
//
//   - A READER calls Enter() BEFORE dereferencing any view/arena pointer and
//     holds the returned Guard for the whole access. Entering must happen
//     while the reader still holds the lock it used to obtain the pointers
//     (the view-index shared mutex): that ordering is what lets writers
//     reason "every guard entered before my exclusive section is visible to
//     a slot scan, and later readers cannot hold my retired pointers".
//
//   - A WRITER that REPLACES state (evicting a view, releasing an arena)
//     removes the object from all shared indexes first, then hands it
//     to Retire() instead of destroying it. The object — and with it its
//     mappings — stays fully intact on the limbo list until every guard that
//     could still reference it has exited; TryReclaim() then frees it.
//     Writers on this path never wait for readers.
//
//   - A WRITER that MUTATES state in place (update application: tail
//     appends and swap-removes) cannot defer: the old mapping is
//     destroyed by the syscall itself. It blocks new readers (exclusive view
//     index lock), then calls WaitQuiescent(), which returns once every
//     guard entered before the call has exited. In-flight readers finish
//     their scans untouched; the writer mutates only after.
//
// Guards never block on locks while active (the adaptive layer enters them
// under a lock it releases before the scan and exits them lock-free), so
// WaitQuiescent cannot deadlock against a reader stuck behind the writer.
//
// All atomics are seq_cst: entry/exit happens once per query, not per page,
// so the cost is noise — and the strong ordering is exactly what gives
// ThreadSanitizer (and humans) the happens-before edges between a reader's
// last access and the writer's reclaim/mutation.

#ifndef VMSV_UTIL_EPOCH_H_
#define VMSV_UTIL_EPOCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace vmsv {

class EpochManager {
 public:
  /// RAII epoch section. Movable so Enter() can return it; a moved-from
  /// guard is inert.
  class Guard {
   public:
    Guard() = default;
    Guard(Guard&& other) noexcept
        : manager_(other.manager_), slot_(other.slot_) {
      other.manager_ = nullptr;
    }
    Guard& operator=(Guard&& other) noexcept {
      if (this != &other) {
        Exit();
        manager_ = other.manager_;
        slot_ = other.slot_;
        other.manager_ = nullptr;
      }
      return *this;
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    ~Guard() { Exit(); }

    bool active() const { return manager_ != nullptr; }

   private:
    friend class EpochManager;
    Guard(EpochManager* manager, size_t slot)
        : manager_(manager), slot_(slot) {}

    void Exit() {
      if (manager_ != nullptr) {
        manager_->slots_[slot_].epoch.store(kIdle);
        manager_ = nullptr;
      }
    }

    EpochManager* manager_ = nullptr;
    size_t slot_ = 0;
  };

  EpochManager() = default;
  /// Waits for every active guard, then frees the whole limbo list.
  ~EpochManager();
  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// Publishes this thread as an active reader at the current epoch. Spins
  /// (yielding) if all reader slots are taken — kMaxSlots bounds concurrent
  /// READERS, not threads.
  Guard Enter();

  /// Defers `reclaim` until every guard active now has exited. The callback
  /// runs from a later TryReclaim/WaitQuiescent/destructor call, on whatever
  /// thread made that call.
  void Retire(std::function<void()> reclaim);

  /// Convenience: retire ownership of an object (its destructor is the
  /// reclaim action).
  template <typename T>
  void RetireObject(std::unique_ptr<T> object) {
    std::shared_ptr<T> shared = std::move(object);
    Retire([shared]() mutable { shared.reset(); });
  }

  /// Frees every limbo entry no active guard can still reference. Returns
  /// the number of entries reclaimed. Writers call this opportunistically.
  size_t TryReclaim();

  /// Returns once every guard entered before this call has exited, then
  /// reclaims everything they could have referenced. Guards entered after
  /// the call began are not waited for.
  void WaitQuiescent();

  /// Limbo entries currently awaiting reclamation (test/introspection hook).
  size_t limbo_size() const;

 private:
  /// Epoch value marking a free reader slot. Real epochs start at 1.
  static constexpr uint64_t kIdle = 0;
  /// Upper bound on concurrently ACTIVE guards; entry spins above it.
  static constexpr size_t kMaxSlots = 64;

  struct alignas(64) Slot {
    std::atomic<uint64_t> epoch{kIdle};
  };

  struct LimboEntry {
    uint64_t retired_epoch;
    std::function<void()> reclaim;
  };

  /// Smallest epoch any active guard entered at, or ~0 when none is active.
  uint64_t MinActiveEpoch() const;
  /// Extracts (under limbo_mu_) the entries safe to free below `min_active`.
  std::vector<LimboEntry> DetachReclaimable(uint64_t min_active);

  Slot slots_[kMaxSlots];
  std::atomic<uint64_t> global_epoch_{1};
  mutable std::mutex limbo_mu_;
  std::vector<LimboEntry> limbo_;
};

}  // namespace vmsv

#endif  // VMSV_UTIL_EPOCH_H_
