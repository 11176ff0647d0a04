#include "rdb/table.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>

#include "rdb/txn.h"

namespace xupd::rdb {

// ---------------------------------------------------------------------------
// HashIndex: flat open-addressing (value, rowid) pair table + chain heads.

namespace {
constexpr uint8_t kEmpty = 0;
constexpr uint8_t kOccupied = 1;
constexpr uint8_t kTombstone = 2;
constexpr int32_t kHeadEmpty = -1;
constexpr int32_t kHeadTombstone = -2;
constexpr size_t kInitialCap = 16;
}  // namespace

int32_t HashIndex::FindPair(uint64_t vhash, const Value& v,
                            size_t rowid) const {
  if (slots_.empty()) return -1;
  const size_t mask = slots_.size() - 1;
  size_t pos = PairHash(vhash, rowid) & mask;
  for (;;) {
    const Slot& s = slots_[pos];
    if (s.state == kEmpty) return -1;
    if (s.state == kOccupied && s.rowid == rowid && s.vhash == vhash &&
        s.value == v) {
      return static_cast<int32_t>(pos);
    }
    pos = (pos + 1) & mask;
  }
}

int32_t HashIndex::FindHead(uint64_t vhash, const Value& v) const {
  if (heads_.empty()) return -1;
  const size_t mask = heads_.size() - 1;
  size_t pos = HeadHash(vhash) & mask;
  for (;;) {
    int32_t head = heads_[pos];
    if (head == kHeadEmpty) return -1;
    if (head != kHeadTombstone) {
      const Slot& s = slots_[static_cast<size_t>(head)];
      if (s.vhash == vhash && s.value == v) return static_cast<int32_t>(pos);
    }
    pos = (pos + 1) & mask;
  }
}

void HashIndex::Rehash(size_t new_cap) {
  std::vector<Slot> old = std::move(slots_);
  slots_.clear();
  slots_.resize(new_cap);
  heads_.assign(new_cap, kHeadEmpty);
  slots_used_ = 0;
  heads_used_ = 0;
  size_ = 0;
  for (Slot& s : old) {
    if (s.state == kOccupied) InsertEntry(s.vhash, s.value, s.rowid);
  }
}

size_t HashIndex::CapacityFor(size_t live) {
  return std::bit_ceil(std::max(kInitialCap, live * 2));
}

void HashIndex::Insert(const Value& v, size_t rowid) {
  // Rehash at 3/4 load of either table (tombstones count — they lengthen
  // probe runs just like live entries), to a capacity sized from the live
  // entries: it grows when they fill the table and stays put or shrinks
  // when tombstones do. After a rehash the live entries fill at most half
  // the table, so at least 1/4 of it is inserted before the next one.
  if (slots_.empty()) {
    Rehash(kInitialCap);
  } else if ((slots_used_ + 1) * 4 > slots_.size() * 3 ||
             (heads_used_ + 1) * 4 > heads_.size() * 3) {
    Rehash(CapacityFor(size_ + 1));
  }
  InsertEntry(v.Hash(), v, rowid);
}

void HashIndex::InsertEntry(uint64_t vhash, const Value& v, size_t rowid) {
  const size_t mask = slots_.size() - 1;

  // One probe pass finds an existing exact pair (duplicate insert = no-op,
  // matching the old map-of-sets semantics) or the insertion slot.
  size_t pos = PairHash(vhash, rowid) & mask;
  int32_t insert_at = -1;
  for (;;) {
    const Slot& s = slots_[pos];
    if (s.state == kEmpty) {
      if (insert_at < 0) insert_at = static_cast<int32_t>(pos);
      break;
    }
    if (s.state == kTombstone) {
      if (insert_at < 0) insert_at = static_cast<int32_t>(pos);
    } else if (s.rowid == rowid && s.vhash == vhash && s.value == v) {
      return;  // exact pair already present
    }
    pos = (pos + 1) & mask;
  }

  Slot& dst = slots_[static_cast<size_t>(insert_at)];
  const bool was_empty = dst.state == kEmpty;
  dst.vhash = vhash;
  dst.rowid = rowid;
  dst.value = v;
  dst.prev = -1;
  dst.next = -1;
  dst.state = kOccupied;
  if (was_empty) ++slots_used_;
  ++size_;

  // Link at the head of the key's chain.
  const size_t hmask = heads_.size() - 1;
  size_t hpos = HeadHash(vhash) & hmask;
  int32_t hinsert = -1;
  for (;;) {
    int32_t head = heads_[hpos];
    if (head == kHeadEmpty) {
      if (hinsert < 0) {
        hinsert = static_cast<int32_t>(hpos);
        ++heads_used_;
      }
      heads_[static_cast<size_t>(hinsert)] = insert_at;
      return;
    }
    if (head == kHeadTombstone) {
      if (hinsert < 0) hinsert = static_cast<int32_t>(hpos);
    } else {
      Slot& h = slots_[static_cast<size_t>(head)];
      if (h.vhash == vhash && h.value == v) {
        dst.next = head;
        h.prev = insert_at;
        heads_[hpos] = insert_at;
        return;
      }
    }
    hpos = (hpos + 1) & hmask;
  }
}

void HashIndex::Erase(const Value& v, size_t rowid) {
  const uint64_t vhash = v.Hash();
  int32_t at = FindPair(vhash, v, rowid);
  if (at < 0) return;
  Slot& s = slots_[static_cast<size_t>(at)];
  if (s.prev >= 0) {
    slots_[static_cast<size_t>(s.prev)].next = s.next;
    if (s.next >= 0) slots_[static_cast<size_t>(s.next)].prev = s.prev;
  } else {
    // Chain head: repoint (or tombstone) its heads_ entry.
    int32_t hpos = FindHead(vhash, v);
    if (hpos >= 0) {
      if (s.next >= 0) {
        heads_[static_cast<size_t>(hpos)] = s.next;
        slots_[static_cast<size_t>(s.next)].prev = -1;
      } else {
        heads_[static_cast<size_t>(hpos)] = kHeadTombstone;
      }
    }
  }
  s.state = kTombstone;
  s.value = Value();  // release a heap string's reference
  s.prev = -1;
  s.next = -1;
  --size_;
  // Shrink once live entries fill under 1/8 of the table. A rehash leaves
  // more than 1/4 live, so more than 1/8 of the table is erased in between.
  if (slots_.size() > kInitialCap && size_ * 8 < slots_.size()) {
    Rehash(CapacityFor(size_));
  }
}

void HashIndex::Lookup(const Value& v, std::vector<size_t>* out) const {
  ++probes_;
  int32_t hpos = FindHead(v.Hash(), v);
  if (hpos < 0) return;
  ++hits_;
  for (int32_t at = heads_[static_cast<size_t>(hpos)]; at >= 0;
       at = slots_[static_cast<size_t>(at)].next) {
    out->push_back(slots_[static_cast<size_t>(at)].rowid);
  }
}

void HashIndex::Clear() {
  slots_ = std::vector<Slot>();
  heads_ = std::vector<int32_t>();
  size_ = 0;
  slots_used_ = 0;
  heads_used_ = 0;
}

// ---------------------------------------------------------------------------
// Table

Table::~Table() {
  Value* cells = cells_.load(std::memory_order_relaxed);
  if (cells != nullptr) {
    const size_t n = filled_.load(std::memory_order_relaxed) * stride_;
    for (size_t i = 0; i < n; ++i) cells[i].~Value();
    ::operator delete(cells);
    if (mem_ != nullptr) {
      mem_->Release(MemoryAccountant::kTableSlabs,
                    cap_rows_ * stride_ * sizeof(Value));
    }
  }
  if (mem_ != nullptr && version_bytes_.load() != 0) {
    mem_->Release(MemoryAccountant::kVersionBuffers, version_bytes_.load());
  }
  // A dropped table's parked images leave the epoch manager's count with
  // it; otherwise every later boundary would run the GC pass for them.
  if (em_ != nullptr) em_->version_entries -= versions_.size();
}

Value* Table::ReserveRowSlot() {
  Value* cells = cells_.load(std::memory_order_relaxed);
  const size_t rows = filled_.load(std::memory_order_relaxed);
  if (rows == cap_rows_) {
    const size_t new_cap = cap_rows_ == 0 ? 8 : cap_rows_ * 2;
    const size_t old_bytes = cap_rows_ * stride_ * sizeof(Value);
    auto* grown =
        static_cast<Value*>(::operator new(new_cap * stride_ * sizeof(Value)));
    if (mem_ != nullptr) {
      mem_->Charge(MemoryAccountant::kTableSlabs,
                   new_cap * stride_ * sizeof(Value));
    }
    if (cells != nullptr) {
      // Raw byte copy, NOT Value moves: the new buffer takes over every
      // heap reference; the old buffer keeps ghost images that pinned
      // readers may still be streaming, and is retired without running
      // destructors.
      std::memcpy(static_cast<void*>(grown), static_cast<const void*>(cells),
                  rows * stride_ * sizeof(Value));
    }
    cells_.store(grown, std::memory_order_release);
    cap_rows_ = new_cap;
    if (cells != nullptr) {
      RetireBuffer(cells, rows, /*destroy_values=*/false, old_bytes);
    }
    cells = grown;
  }
  return cells + rows * stride_;
}

void Table::RetireBuffer(Value* buf, size_t rows, bool destroy_values,
                         size_t charged_bytes) {
  const size_t cell_count = rows * stride_;
  MemoryAccountant* mem = mem_;
  auto free_fn = [buf, cell_count, destroy_values, mem, charged_bytes] {
    if (destroy_values) {
      for (size_t i = 0; i < cell_count; ++i) buf[i].~Value();
    }
    ::operator delete(buf);
    if (mem != nullptr) {
      mem->Release(MemoryAccountant::kTableSlabs, charged_bytes);
    }
  };
  if (em_ != nullptr) {
    em_->Retire(em_->current(), std::move(free_fn));
  } else {
    free_fn();
  }
}

void Table::AppendRow(Row&& row, uint32_t begin, uint32_t end, uint64_t mod) {
  Value* slot = ReserveRowSlot();
  for (size_t c = 0; c < arity_; ++c) {
    new (slot + c) Value(std::move(row[c]));
  }
  Value* meta_cell = new (slot + arity_) Value();
  RowMetaRef m(meta_cell);
  m.StoreBeginEnd(begin, end);
  m.StoreMod(mod);
  // Publish: the release pairs with readers' SnapshotRowCount acquire.
  filled_.store(filled_.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
}

Status Table::CheckArity(const Row& row) const {
  if (row.size() == arity_) return Status::OK();
  return Status::InvalidArgument(
      "row arity " + std::to_string(row.size()) + " does not match table '" +
      schema_.name() + "' (" + std::to_string(arity_) + ")");
}

size_t Table::TakeReusableSlot() {
  // No epoch manager: no boundary ever publishes a delete, so nothing is
  // provably invisible (and UndoDelete must find its cells in place).
  if (em_ == nullptr) return live_.size();
  while (!reuse_queue_.empty()) {
    const size_t rowid = reuse_queue_.front();
    if (rowid < live_.size() && !live_[rowid]) {
      // Entries run in end-epoch order: the first one a pin may still see
      // ends the search.
      if (RowMetaRef::End(meta(rowid).begin_end()) > em_->reuse_horizon) {
        break;
      }
      reuse_queue_.pop_front();
      return rowid;
    }
    reuse_queue_.pop_front();  // stale: revived, refilled, or truncated
  }
  return live_.size();
}

Result<size_t> Table::Insert(Row row) {
  XUPD_RETURN_IF_ERROR(CheckArity(row));
  const size_t rowid = TakeReusableSlot();
  Place(rowid, std::move(row));
  return rowid;
}

Status Table::InsertAt(size_t rowid, Row row) {
  XUPD_RETURN_IF_ERROR(CheckArity(row));
  if (rowid > live_.size() || (rowid < live_.size() && live_[rowid])) {
    return Status::InvalidArgument(
        "row id " + std::to_string(rowid) + " of table '" + schema_.name() +
        "' is neither a tombstoned slot nor the next one (capacity " +
        std::to_string(live_.size()) + ")");
  }
  // The slot's queue entry goes stale; TakeReusableSlot drops it later.
  Place(rowid, std::move(row));
  return Status::OK();
}

void Table::Place(size_t rowid, Row&& row) {
  if (interner_ != nullptr) {
    for (Value& v : row) interner_->InternInPlace(&v);
  }
  for (const auto& index : indexes_) {
    index->Insert(row[static_cast<size_t>(index->column())], rowid);
  }
  const uint64_t w = WriteEpoch();
  ++live_count_;
  ++access_stats_.rows_inserted;
  if (rowid == live_.size()) {
    AppendRow(std::move(row), RowEpochClamp(w), kRowEpochInf, w);
    live_.push_back(true);
    if (txn_ != nullptr) txn_->LogInsert(this, rowid);
    return;
  }
  // Reuse. A reader session never reads the cells of a slot it cannot
  // see, and the new row is born at w, invisible to every pin. A slot
  // Insert takes is dead at or below the horizon, so no session sees it.
  // The one reader of dead cells is a background checkpoint: while its
  // capture is open, park the dead image for it, as an in-place update
  // parks a pre-image (SnapshotReadRow serves it). Pausing reuse instead
  // would stop it for good once checkpoints run back to back. InsertAt
  // (WAL replay) never runs beside a capture, but TryHeal runs it beside
  // reader statements, and it may overwrite a tombstone a pin still sees:
  // the stamps go first and the row's seqlock window opens before any
  // cell store, so such a reader's copy fails instead of tearing, and its
  // retry finds the row unborn and skips it — part of the heal-window
  // anomaly Durability::Reopen documents.
  RowMetaRef m = meta(rowid);
  const uint64_t old_begin_end = m.begin_end();
  if (durable_ && em_ != nullptr &&
      em_->capture_open.load(std::memory_order_acquire)) {
    PrepareRowUpdate(rowid);
  }
  m.StoreBeginEnd(RowEpochClamp(w), kRowEpochInf);
  m.StoreMod(w);
  std::atomic_thread_fence(std::memory_order_release);
  // Word-atomic stores (a reader's seqlock copy may race them); `row`
  // keeps the dead occupant's cells for the undo log.
  Value* cells = mutable_row(rowid);
  for (size_t c = 0; c < arity_; ++c) {
    row[c] = std::move(row[c]).RacyPublishTo(cells + c);
  }
  live_[rowid] = true;
  if (stats_ != nullptr) ++stats_->slots_reused;
  if (txn_ != nullptr) txn_->LogReuse(this, rowid, &row, old_begin_end);
}

void Table::LoadSlot(Row row, bool live) {
  if (interner_ != nullptr) {
    for (Value& v : row) interner_->InternInPlace(&v);
  }
  // Snapshot/recovery rows predate every possible pin: born at epoch 1.
  // Dead slots get an empty [1, 1) interval — never visible, but their
  // positions (and values) are preserved for WAL redo addressing.
  if (!live) reuse_queue_.push_back(live_.size());
  AppendRow(std::move(row), 1, live ? kRowEpochInf : 1, 1);
  live_.push_back(live);
  if (live) ++live_count_;
}

Status Table::Delete(size_t rowid) {
  if (rowid >= live_.size() || !live_[rowid]) {
    return Status::NotFound("row already deleted or out of range");
  }
  const Value* r = row(rowid);
  for (const auto& index : indexes_) {
    index->Erase(r[static_cast<size_t>(index->column())], rowid);
  }
  // Tombstone for readers: end = write epoch. Pins below it still see the
  // row (its values stay in the slot); pins at or above it do not.
  meta(rowid).StoreEnd(RowEpochClamp(WriteEpoch()));
  live_[rowid] = false;
  --live_count_;
  reuse_queue_.push_back(rowid);
  ++access_stats_.rows_deleted;
  if (txn_ != nullptr) txn_->LogDelete(this, rowid);
  return Status::OK();
}

void Table::PrepareRowUpdate(size_t rowid) {
  if (em_ == nullptr) return;
  const uint64_t w = em_->write_epoch();
  RowMetaRef m = meta(rowid);
  if (m.mod() == w) return;  // window already open for this row
  {
    std::lock_guard<std::mutex> lock(versions_mu_);
    OldVersion ov;
    ov.end_valid = w;
    ov.values = CopyRow(rowid);
    versions_.emplace(rowid, std::move(ov));
    ++em_->version_entries;
    ++version_rows_;
    version_bytes_ += arity_ * sizeof(Value);
    if (mem_ != nullptr) {
      mem_->Charge(MemoryAccountant::kVersionBuffers, arity_ * sizeof(Value));
    }
  }
  // Seqlock open: stamp the mod word, then fence, then (in the caller)
  // word-atomic cell stores. A reader that observes any new cell bytes is
  // therefore guaranteed to observe mod >= w on revalidation and divert
  // to the parked pre-image.
  m.StoreMod(w);
  std::atomic_thread_fence(std::memory_order_release);
}

Status Table::SetColumn(size_t rowid, int column, Value v) {
  if (rowid >= live_.size() || !live_[rowid]) {
    return Status::NotFound("row deleted or out of range");
  }
  if (interner_ != nullptr) interner_->InternInPlace(&v);
  PrepareRowUpdate(rowid);
  Value& cell = mutable_row(rowid)[static_cast<size_t>(column)];
  if (txn_ != nullptr) {
    txn_->LogUpdate(this, rowid, column, cell, v);
  }
  for (const auto& index : indexes_) {
    if (index->column() == column) {
      index->Erase(cell, rowid);
      index->Insert(v, rowid);
    }
  }
  std::move(v).RacyPublishTo(&cell);
  ++access_stats_.rows_updated;
  return Status::OK();
}

void Table::Clear() {
  Value* cells = cells_.load(std::memory_order_relaxed);
  const size_t rows = filled_.load(std::memory_order_relaxed);
  // Readers re-load the row count and cell pointer per access, so after
  // these stores they observe an empty table (Clear is not snapshot-
  // isolated — it only serves writer-private scratch tables); the retired
  // buffer keeps any in-flight row copies valid until their pins drop.
  const size_t charged = cap_rows_ * stride_ * sizeof(Value);
  filled_.store(0, std::memory_order_release);
  cells_.store(nullptr, std::memory_order_release);
  cap_rows_ = 0;
  live_.clear();
  live_count_ = 0;
  reuse_queue_.clear();
  if (cells != nullptr) {
    RetireBuffer(cells, rows, /*destroy_values=*/true, charged);
  }
  for (const auto& index : indexes_) index->Clear();
}

void Table::UndoInsert(size_t rowid) {
  if (rowid >= live_.size() || !live_[rowid]) return;
  const Value* r = row(rowid);
  for (const auto& index : indexes_) {
    index->Erase(r[static_cast<size_t>(index->column())], rowid);
  }
  live_[rowid] = false;
  --live_count_;
  if (rowid + 1 == live_.size()) {
    // Pop the slot. Readers with a stale row count reject it by its begin
    // epoch (> their pin) without touching the cells, so destroying the
    // writer's references here is safe.
    Value* cells = cells_.load(std::memory_order_relaxed);
    filled_.store(rowid, std::memory_order_release);
    for (size_t c = 0; c < stride_; ++c) {
      cells[rowid * stride_ + c].~Value();
    }
    live_.pop_back();
  } else {
    // Mid-undo of an interleaved multi-table scope: kill the row for every
    // epoch (empty interval) but keep the slot, reusable once published.
    const uint32_t w = RowEpochClamp(WriteEpoch());
    meta(rowid).StoreBeginEnd(w, w);
    reuse_queue_.push_back(rowid);
  }
}

void Table::UndoReuse(size_t rowid, Value* image) {
  if (rowid >= live_.size() || !live_[rowid]) return;
  Value* cells = mutable_row(rowid);
  for (const auto& index : indexes_) {
    index->Erase(cells[static_cast<size_t>(index->column())], rowid);
  }
  const auto old_begin_end = static_cast<uint64_t>(image[arity_].AsInt());
  meta(rowid).StoreBeginEnd(static_cast<uint32_t>(old_begin_end),
                            static_cast<uint32_t>(old_begin_end >> 32));
  for (size_t c = 0; c < arity_; ++c) {
    std::move(image[c]).RacyPublishTo(cells + c);
  }
  live_[rowid] = false;
  --live_count_;
  // It was the oldest reusable entry when Insert took it.
  reuse_queue_.push_front(rowid);
}

void Table::UndoDelete(size_t rowid) {
  if (rowid >= live_.size() || live_[rowid]) return;
  meta(rowid).StoreEnd(kRowEpochInf);
  live_[rowid] = true;
  ++live_count_;
  // LIFO undo: the delete's queue entry is normally still the newest one.
  if (!reuse_queue_.empty() && reuse_queue_.back() == rowid) {
    reuse_queue_.pop_back();
  }
  const Value* r = row(rowid);
  for (const auto& index : indexes_) {
    index->Insert(r[static_cast<size_t>(index->column())], rowid);
  }
}

void Table::UndoSetColumn(size_t rowid, int column, const Value& v) {
  if (rowid >= live_.size()) return;
  // The row's seqlock window is already open (the forward SetColumn opened
  // it), so readers of older epochs are diverted; still store word-
  // atomically so a reader's optimistic copy attempt never tears.
  Value& cell = mutable_row(rowid)[static_cast<size_t>(column)];
  for (const auto& index : indexes_) {
    if (index->column() == column) {
      index->Erase(cell, rowid);
      index->Insert(v, rowid);
    }
  }
  Value(v).RacyPublishTo(&cell);
}

bool Table::SnapshotReadRow(size_t rowid, uint64_t pin, Row* out,
                            bool* live) const {
  out->clear();
  for (int attempt = 0;; ++attempt) {
    // Visibility first: the begin/end pair is one untorn word, and during
    // slot reuse (pop + re-insert, or an insert into a tombstoned slot)
    // every transient value of `begin` is 0 (meta mid-construction) or
    // exceeds any pinned epoch, so an unborn row is rejected without ever
    // touching its cells. A row born and ended at or before the pin is dead
    // at that pin, and a caller asking for dead slots (the checkpointer)
    // copies it through the same seqlock path — or, once an insert has
    // reused the slot (begin > pin), from the dead image that reuse parked
    // while the capture was open. Acquire on the buffer pointer: a grow
    // publishes the memcpy'd rows via the release store of `cells_`, and
    // this load may observe a buffer newer than the one `filled_`'s
    // acquire synchronized with.
    const Value* cells = cells_.load(std::memory_order_acquire);
    const Value* slot = cells + rowid * stride_;
    RowMetaRef m(slot + arity_);
    const uint64_t begin_end = m.begin_end();
    const uint32_t begin = RowMetaRef::Begin(begin_end);
    const bool visible = RowMetaRef::Visible(begin_end, pin);
    if (!visible && (live == nullptr || begin == 0)) return false;
    if (live != nullptr) *live = visible;
    const uint64_t m1 = m.mod_acquire();
    if (begin <= pin && m1 <= pin) {
      // Optimistic seqlock copy: raw word loads, fence, revalidate, and
      // only then materialize owning Values (a torn heap pointer must
      // never reach a refcount).
      uint64_t stack_words[2 * 16];
      std::vector<uint64_t> heap_words;
      uint64_t* w = stack_words;
      if (arity_ > 16) {
        heap_words.resize(2 * arity_);
        w = heap_words.data();
      }
      for (size_t c = 0; c < arity_; ++c) {
        Value::RacyLoadWords(slot + c, w + 2 * c);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (m.mod() == m1) {
        for (size_t c = 0; c < arity_; ++c) {
          out->push_back(Value::FromSnapshotWords(w + 2 * c));
        }
        return true;
      }
      continue;  // writer opened the row's window mid-copy; retry
    }
    // The row was modified inside a window newer than our pin: fetch the
    // matching parked pre-image — the entry with the smallest end_valid
    // still above the pin holds the row as of our epoch.
    {
      std::lock_guard<std::mutex> lock(versions_mu_);
      auto [it, end] = versions_.equal_range(rowid);
      const OldVersion* best = nullptr;
      for (; it != end; ++it) {
        if (it->second.end_valid > pin &&
            (best == nullptr || it->second.end_valid < best->end_valid)) {
          best = &it->second;
        }
      }
      if (best != nullptr) {
        out->insert(out->end(), best->values.begin(), best->values.end());
        return true;
      }
    }
    // No entry can only mean the writer is between stamping `mod` and
    // parking the pre-image becoming observable, or, in a slot WAL replay
    // refills, between the new `mod` and the new `begin` becoming
    // observable — retry resolves it. The attempt bound is sheer paranoia
    // (treat the row as dead rather than spin forever on a logic bug).
    if (attempt > 1000) return false;
  }
}

size_t Table::GcVersions(uint64_t min_pinned) {
  std::lock_guard<std::mutex> lock(versions_mu_);
  size_t trimmed = 0;
  for (auto it = versions_.begin(); it != versions_.end();) {
    if (it->second.end_valid <= min_pinned) {
      it = versions_.erase(it);
      if (em_ != nullptr) --em_->version_entries;
      ++trimmed;
    } else {
      ++it;
    }
  }
  if (trimmed != 0) {
    version_rows_ -= trimmed;
    version_bytes_ -= trimmed * arity_ * sizeof(Value);
    if (mem_ != nullptr) {
      mem_->Release(MemoryAccountant::kVersionBuffers,
                    trimmed * arity_ * sizeof(Value));
    }
  }
  return trimmed;
}

Status Table::CreateIndex(const std::string& index_name, int column) {
  if (FindIndexByName(index_name) != nullptr) {
    return Status::AlreadyExists("index '" + index_name + "' already exists");
  }
  if (column < 0 || static_cast<size_t>(column) >= arity_) {
    return Status::InvalidArgument("bad index column");
  }
  auto index = std::make_unique<HashIndex>(index_name, column);
  for (size_t rowid = 0; rowid < live_.size(); ++rowid) {
    if (live_[rowid]) {
      index->Insert(row(rowid)[static_cast<size_t>(column)], rowid);
    }
  }
  indexes_.push_back(std::move(index));
  return Status::OK();
}

bool Table::TryDropIndex(std::string_view index_name) {
  for (auto it = indexes_.begin(); it != indexes_.end(); ++it) {
    if (EqualsIgnoreCase((*it)->name(), index_name)) {
      indexes_.erase(it);
      return true;
    }
  }
  return false;
}

Status Table::DropIndex(const std::string& index_name) {
  if (TryDropIndex(index_name)) return Status::OK();
  return Status::NotFound("index '" + index_name + "' not found");
}

const HashIndex* Table::FindIndexOnColumn(int column) const {
  for (const auto& index : indexes_) {
    if (index->column() == column) return index.get();
  }
  return nullptr;
}

const HashIndex* Table::FindIndexByName(const std::string& name) const {
  for (const auto& index : indexes_) {
    if (EqualsIgnoreCase(index->name(), name)) return index.get();
  }
  return nullptr;
}

}  // namespace xupd::rdb
