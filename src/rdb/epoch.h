// Epoch-based MVCC core: the writer publishes a new epoch at every
// outermost commit boundary; reader sessions pin the current epoch for the
// duration of one statement (or an explicit long-running snapshot) and see
// exactly the rows whose [begin, end) epoch interval contains their pin.
// Storage superseded inside a newer epoch (old slab buffers on growth,
// pre-update row images, cleared scratch slabs) is retired here and freed
// only once no reader pins an epoch that could still reference it.
//
// Protocol (all seq_cst on the pin path, so the classic epoch-based
// reclamation argument holds):
//
//   reader pin:    loop { e = current; slot.pinned = e;
//                         if (current == e) break; }
//   writer boundary: current += 1; then scan slots for min pinned
//
// A reader whose re-check succeeds is guaranteed visible to every writer
// scan performed after the next epoch advance, so an object retired at
// epoch E is freed only when min(pinned) > E — at which point no reader
// can be executing inside an epoch that could reach it.
//
// The writer-side cost when no reader is pinned is one atomic increment
// and one pin-count load per commit boundary, with no pass over the fixed
// slot array — the "epoch hooks are ~free" property the concurrent read
// bench budget depends on. The same boundary computes the row-slot reuse
// horizon (reuse_horizon below).
#ifndef XUPD_RDB_EPOCH_H_
#define XUPD_RDB_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace xupd::rdb {

/// Row-epoch constants: row metadata stores begin/end as packed u32s (4B
/// commit boundaries before saturation — unreachable in practice; the
/// write path saturates rather than wraps).
inline constexpr uint32_t kRowEpochInf = UINT32_MAX;
inline constexpr uint32_t kRowEpochMax = UINT32_MAX - 1;

/// ExecContext::read_epoch sentinel: not a snapshot read — the writer
/// thread's scans see the latest in-memory state via liveness bits.
inline constexpr uint64_t kLatestEpoch = ~0ULL;

class EpochManager {
 public:
  /// Fixed slot budget: one per concurrently open reader session. 64 slots
  /// of one cache line each keep the writer's min-pinned scan trivially
  /// cheap.
  static constexpr int kMaxReaders = 64;

  EpochManager() = default;
  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;
  ~EpochManager() {
    // Any remaining garbage is unreachable by definition (no readers can
    // outlive the Database that owns this manager).
    for (auto& g : retired_) g.free();
  }

  /// The last published epoch. Rows committed at boundary N carry
  /// begin == N and become visible to pins >= N.
  uint64_t current() const { return current_.load(std::memory_order_seq_cst); }

  /// The epoch the writer's in-flight (uncommitted) changes will belong
  /// to: always current()+1, so nothing in flight is visible to any reader
  /// until the next boundary publishes it.
  uint64_t write_epoch() const {
    return current_.load(std::memory_order_relaxed) + 1;
  }

  /// Claims a reader slot for a session's lifetime; -1 when all
  /// kMaxReaders slots are taken.
  int AcquireSlot() {
    for (int i = 0; i < kMaxReaders; ++i) {
      bool expected = false;
      if (slots_[i].in_use.compare_exchange_strong(
              expected, true, std::memory_order_acq_rel)) {
        slots_[i].pinned.store(0, std::memory_order_relaxed);
        return i;
      }
    }
    return -1;
  }

  void ReleaseSlot(int slot) {
    Unpin(slot);
    slots_[slot].in_use.store(false, std::memory_order_release);
  }

  /// Pins the current epoch into `slot` and returns it. The store-then-
  /// revalidate loop guarantees the pin is visible to every writer scan
  /// after the next Advance (see file comment). The pin count goes up
  /// before the slot store, so a writer that reads a zero count after an
  /// Advance knows every later pin lands at or above that epoch.
  uint64_t Pin(int slot) {
    if (!IsPinned(slot)) pins_.fetch_add(1, std::memory_order_seq_cst);
    for (;;) {
      const uint64_t e = current_.load(std::memory_order_seq_cst);
      slots_[slot].pinned.store(e, std::memory_order_seq_cst);
      if (current_.load(std::memory_order_seq_cst) == e) return e;
    }
  }

  bool IsPinned(int slot) const {
    return slots_[slot].pinned.load(std::memory_order_relaxed) != 0;
  }

  /// Drops the slot's pin (a no-op when it holds none). Any thread may
  /// unpin a slot it owns.
  void Unpin(int slot) {
    if (slots_[slot].pinned.exchange(0, std::memory_order_acq_rel) != 0) {
      pins_.fetch_sub(1, std::memory_order_seq_cst);
    }
  }

  /// Publishes a new epoch (writer thread, at an outermost commit
  /// boundary) and returns it.
  uint64_t Advance() {
    return current_.fetch_add(1, std::memory_order_seq_cst) + 1;
  }

  /// Smallest pinned epoch, or UINT64_MAX when no reader is pinned. Must
  /// be called after Advance for the reclamation argument to hold. With no
  /// pin held anywhere it returns without scanning the slots.
  uint64_t MinPinned() const {
    if (pins_.load(std::memory_order_seq_cst) == 0) return UINT64_MAX;
    uint64_t min = UINT64_MAX;
    for (const Slot& s : slots_) {
      const uint64_t p = s.pinned.load(std::memory_order_seq_cst);
      if (p != 0 && p < min) min = p;
    }
    return min;
  }

  /// Queues `free` to run once no reader pins an epoch <= `epoch`.
  /// Writer thread only.
  void Retire(uint64_t epoch, std::function<void()> free) {
    retired_.push_back({epoch, std::move(free)});
  }

  bool has_retired() const { return !retired_.empty(); }

  /// Frees every queued object retired strictly before `min_pinned`
  /// (writer thread, called at commit boundaries). Each freed retirement
  /// bumps the reclaim counter when one is attached.
  void ReclaimBefore(uint64_t min_pinned) {
    size_t kept = 0;
    uint64_t freed = 0;
    for (size_t i = 0; i < retired_.size(); ++i) {
      if (retired_[i].epoch < min_pinned) {
        retired_[i].free();
        ++freed;
      } else {
        if (kept != i) retired_[kept] = std::move(retired_[i]);
        ++kept;
      }
    }
    retired_.resize(kept);
    if (freed != 0 && reclaim_counter != nullptr) {
      reclaim_counter->fetch_add(freed, std::memory_order_relaxed);
    }
  }

  /// Retirements still queued (waiting on a pinned reader to unpin).
  size_t retired_pending() const { return retired_.size(); }

  /// Row-slot reuse horizon (writer thread only), refreshed at every
  /// commit boundary by Database::AdvanceEpochBoundary: the smallest pinned
  /// epoch, or the published epoch when nothing is pinned. A tombstoned
  /// slot whose end epoch is at or below it is invisible to every current
  /// and future pin, so Table::Insert may overwrite it. A delete stamps
  /// end = write_epoch() > horizon, so no slot is reused before its delete
  /// is published. 0 (before the first boundary) reuses nothing.
  uint64_t reuse_horizon = 0;

  /// True while a background checkpoint copies durable tables' slots —
  /// dead ones included — through Table::SnapshotReadRow. The writer sets
  /// it before the checkpoint thread starts; the thread clears it (release)
  /// once its serializer has read the slots, before the file write. A
  /// durable slot reused while it is set parks its dead image for the
  /// checkpointer (see Table::Place).
  std::atomic<bool> capture_open{false};

  /// Count of pre-update row images parked in table version buffers
  /// (maintained by Table; the writer consults it to decide whether a
  /// boundary needs a GC pass at all). Writer thread only.
  uint64_t version_entries = 0;

  /// Optional metrics hooks, resolved once by Database::InitMetrics so the
  /// epoch hot path touches plain atomics, never a registry map.
  /// Active-reader gauge (readers.active): statements currently holding a
  /// pinned epoch.
  std::atomic<int64_t>* readers_gauge = nullptr;
  /// Epoch-lag gauge (epoch.lag): published − min pinned at the last
  /// boundary, 0 when no reader was pinned. The writer updates it from
  /// AdvanceEpochBoundary.
  std::atomic<int64_t>* lag_gauge = nullptr;
  /// Reclaim counter (mvcc.slab_reclaims): retired slabs/scratch buffers
  /// actually freed by ReclaimBefore.
  std::atomic<uint64_t>* reclaim_counter = nullptr;

 private:
  struct alignas(64) Slot {
    std::atomic<bool> in_use{false};
    std::atomic<uint64_t> pinned{0};  // 0 = not pinned.
  };

  struct Garbage {
    uint64_t epoch = 0;
    std::function<void()> free;
  };

  /// Epoch 1 is "everything loaded before the first boundary": snapshot /
  /// recovery rows get begin = 1 via RowEpochClamp, visible to every pin.
  std::atomic<uint64_t> current_{1};
  /// Slots holding a pin (MinPinned's no-scan fast path).
  std::atomic<int64_t> pins_{0};
  Slot slots_[kMaxReaders];
  std::vector<Garbage> retired_;  // writer thread only.
};

/// Saturating u64 -> row-epoch (u32) conversion for row metadata.
inline uint32_t RowEpochClamp(uint64_t e) {
  return e > kRowEpochMax ? kRowEpochMax : static_cast<uint32_t>(e);
}

}  // namespace xupd::rdb

#endif  // XUPD_RDB_EPOCH_H_
