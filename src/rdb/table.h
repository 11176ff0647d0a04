// Heap table with tombstone deletes, hash indexes, and epoch-snapshot MVCC.
//
// Storage layout (the scan/probe hot path of every fig. 6-11 workload):
//
//  * Rows live in ONE contiguous slab per table — `(arity + 1) * 16` bytes
//    per row slot (16-byte compact Values, rdb/value.h, plus one trailing
//    16-byte MVCC metadata slot). Scan/IndexProbe/Filter stream over
//    cache-line-friendly memory and a row is addressed by one multiply
//    (`slab + rowid * stride`), not a double indirection.
//
//  * Slots are reused: an insert takes the oldest tombstoned slot that no
//    snapshot can see any more (its end epoch is at or below the epoch
//    manager's reuse horizon) and appends only when there is none, so
//    under delete/insert churn the slab stays near the live row count. Row
//    ids are still physical addresses — the WAL's insert records carry
//    them, and replay places each row at its recorded id (InsertAt). A
//    durable slot reused while a background checkpoint's capture is open
//    parks its dead image in the version buffer: the checkpointer copies
//    dead slots' cells too.
//
//  * HashIndex is a flat open-addressing table whose entries hold
//    (hash, value, rowid) inline — no per-key map node, no per-entry set
//    node. Entries of equal key are threaded through a doubly-linked chain
//    (indexes into the entry array) whose head is found through a second
//    flat table keyed by value, so Lookup walks a chain and Erase of an
//    exact (value, rowid) pair is O(1): the pair itself is open-addressed.
//    Indexes are writer-private: snapshot readers always scan (their plans
//    are built with index probes disabled), so index mutation needs no
//    synchronization.
//
// MVCC (single writer, many pinned readers — see rdb/epoch.h):
//
//  * Each row's metadata slot packs word0 = (end_epoch << 32 | begin_epoch)
//    and word1 = the epoch of the row's last in-place modification. A
//    reader pinned at epoch P sees the row iff begin <= P < end. Insert
//    stamps begin = write_epoch (invisible until the boundary publishes
//    it); Delete stamps end = write_epoch (still visible to older pins —
//    the tombstoned values stay in the slot); rollback restores the stamps.
//    A reused slot gets begin = mod = write_epoch like an appended one, so
//    no current pin sees the new row.
//
//  * In-place column updates use a per-row seqlock: the first update of a
//    row inside an epoch window parks a copy of the whole pre-image in the
//    table's version buffer (keyed by rowid, tagged with the window), then
//    stamps word1 = write_epoch and overwrites cells with word-atomic
//    stores. A reader whose pin predates word1 — or whose optimistic
//    word-copy fails revalidation — fetches the row from the version
//    buffer instead. Version entries are garbage-collected once no reader
//    pins an epoch they could serve.
//
//  * The slab itself is published through an atomic pointer + atomic row
//    count: growth copies into a fresh buffer and retires the old one via
//    the epoch manager (freed raw, without running Value destructors — the
//    new buffer owns every reference; the old one holds ghost images that
//    pinned readers may still be streaming).
#ifndef XUPD_RDB_TABLE_H_
#define XUPD_RDB_TABLE_H_

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "rdb/epoch.h"
#include "rdb/governance.h"
#include "rdb/schema.h"
#include "rdb/stats.h"
#include "rdb/value.h"

namespace xupd::rdb {

class TransactionManager;

/// Per-table access statistics (SHOW TABLE STATS): maintained by the exec
/// nodes (scans, rows read) and the Table mutation entry points (rows
/// inserted/deleted/updated), so direct-API writes count too. RelaxedU64
/// keeps every bump one relaxed fetch_add — safe from reader sessions and
/// free of ordering cost on the scan hot path.
struct TableAccessStats {
  RelaxedU64 scans;          ///< scan operator opens over this table.
  RelaxedU64 rows_read;      ///< rows emitted by scans/probes of this table.
  RelaxedU64 rows_inserted;
  RelaxedU64 rows_deleted;
  RelaxedU64 rows_updated;
};

/// Hash index over one column: value -> set of row ids. Erase of an exact
/// (value, rowid) pair stays O(1) even for low-cardinality keys (e.g. a
/// parentId shared by thousands of children, an ASR column holding the
/// single root id, or the ASR `marked` flag) because the pair table is
/// open-addressed on (value, rowid), not on the value alone.
///
/// Capacity follows the live entries, not the insert history: a rehash —
/// triggered when occupied + tombstoned slots reach 3/4 on insert, or when
/// live entries fall below 1/8 on erase — sizes both flat tables to hold
/// the live entries at most half full. A column whose values flip back and
/// forth (two index entries per flip) therefore keeps a bounded footprint.
class HashIndex {
 public:
  HashIndex(std::string name, int column)
      : name_(std::move(name)), column_(column) {}

  const std::string& name() const { return name_; }
  int column() const { return column_; }

  /// Adds (v, rowid); a duplicate exact pair is a no-op (set semantics).
  void Insert(const Value& v, size_t rowid);
  /// Removes (v, rowid); absent pairs are a no-op.
  void Erase(const Value& v, size_t rowid);
  /// Appends matching row ids to *out (chain order — callers that need a
  /// deterministic order sort; multi-probe callers dedupe too). Counts one
  /// probe, and one hit when at least one row id matched.
  void Lookup(const Value& v, std::vector<size_t>* out) const;
  /// Drops every entry and releases both flat tables.
  void Clear();
  size_t size() const { return size_; }
  /// Entry-table slots (live + tombstoned + empty): the memory footprint
  /// in entries. Stays within max(16, 8 * size()).
  size_t capacity() const { return slots_.size(); }

  /// Probe lookups issued against this index, and how many found at least
  /// one entry (SHOW TABLE STATS).
  uint64_t probes() const { return probes_.load(); }
  uint64_t probe_hits() const { return hits_.load(); }

  /// Scrub hook (rdb/integrity.cc): calls fn(value, rowid) for every live
  /// entry, in slot order.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.state == 1) fn(s.value, static_cast<size_t>(s.rowid));
    }
  }

 private:
  /// One entry: the key's hash, the key, the rowid, and the doubly-linked
  /// same-key chain threaded through the entry array.
  struct Slot {
    uint64_t vhash = 0;
    uint64_t rowid = 0;
    Value value;
    int32_t prev = -1;  ///< chain: previous entry index, -1 = chain head.
    int32_t next = -1;  ///< chain: next entry index, -1 = chain tail.
    uint8_t state = 0;  ///< 0 empty, 1 occupied, 2 tombstone.
  };

  /// Entry index of (v, rowid) in slots_, or -1.
  int32_t FindPair(uint64_t vhash, const Value& v, size_t rowid) const;
  /// Insert with a precomputed value hash (Rehash relinks without
  /// recomputing Value::Hash, which re-parses numeric-looking strings).
  void InsertEntry(uint64_t vhash, const Value& v, size_t rowid);
  /// heads_ position whose chain head carries key `v`, or -1.
  int32_t FindHead(uint64_t vhash, const Value& v) const;
  /// Rebuilds both flat tables at `new_cap` slots, dropping tombstones and
  /// relinking every chain.
  void Rehash(size_t new_cap);
  /// Power-of-two capacity that holds `live` entries at most half full.
  static size_t CapacityFor(size_t live);
  /// Finalizing bit mixer (murmur3 fmix64). Value::Hash of an integer is
  /// the identity (libstdc++ std::hash<int64_t>), and the engine's keys and
  /// rowids are dense sequential ints — feeding them to linear probing
  /// unmixed coalesces the table into one giant probe run (O(n) inserts).
  static uint64_t Mix(uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
  }
  static uint64_t PairHash(uint64_t vhash, uint64_t rowid) {
    return Mix(vhash ^ (rowid + 0x9e3779b97f4a7c15ULL));
  }
  static uint64_t HeadHash(uint64_t vhash) { return Mix(vhash); }

  std::string name_;
  int column_;
  /// Flat entry array, open-addressed on PairHash(value, rowid).
  /// Power-of-two capacity; linear probing; tombstoned on erase.
  std::vector<Slot> slots_;
  /// Chain heads, open-addressed on the value hash alone: -1 empty,
  /// -2 tombstone, else the entry index of the key's chain head.
  std::vector<int32_t> heads_;
  size_t size_ = 0;        ///< live entries.
  size_t slots_used_ = 0;  ///< occupied + tombstoned entry slots.
  size_t heads_used_ = 0;  ///< occupied + tombstoned head slots.
  mutable RelaxedU64 probes_;  ///< Lookup calls (access stats).
  mutable RelaxedU64 hits_;    ///< Lookups that matched >= 1 entry.
};

/// View over one row's 16-byte MVCC metadata slot (the trailing Value-sized
/// cell of each row). Word 0 packs (end << 32 | begin) row epochs so the
/// pair is always read/written in one untorn operation; word 1 holds the
/// epoch of the row's last in-place modification (the seqlock word). All
/// accesses are atomic: the writer stamps from its thread while pinned
/// readers load concurrently. Stores keep byte 15 (the Value tag byte)
/// zero — epochs stay far below 2^56 — so metadata slots destruct as NULL
/// Values.
class RowMetaRef {
 public:
  explicit RowMetaRef(const Value* slot)
      : words_(reinterpret_cast<uint64_t*>(
            const_cast<Value*>(slot))) {}

  static uint32_t Begin(uint64_t w0) { return static_cast<uint32_t>(w0); }
  static uint32_t End(uint64_t w0) { return static_cast<uint32_t>(w0 >> 32); }
  static bool Visible(uint64_t w0, uint64_t pin) {
    return Begin(w0) <= pin && pin < End(w0);
  }

  uint64_t begin_end() const {
    return std::atomic_ref<uint64_t>(words_[0]).load(
        std::memory_order_relaxed);
  }
  void StoreBeginEnd(uint32_t begin, uint32_t end) {
    std::atomic_ref<uint64_t>(words_[0]).store(
        (static_cast<uint64_t>(end) << 32) | begin,
        std::memory_order_relaxed);
  }
  void StoreEnd(uint32_t end) {
    StoreBeginEnd(Begin(begin_end()), end);
  }

  uint64_t mod() const {
    return std::atomic_ref<uint64_t>(words_[1]).load(
        std::memory_order_relaxed);
  }
  uint64_t mod_acquire() const {
    return std::atomic_ref<uint64_t>(words_[1]).load(
        std::memory_order_acquire);
  }
  void StoreMod(uint64_t m) {
    std::atomic_ref<uint64_t>(words_[1]).store(m, std::memory_order_relaxed);
  }

 private:
  uint64_t* words_;
};

class Table {
 public:
  /// `txn` (optional) is the undo log every mutation reports to while a
  /// transaction is active; tables created through the Database catalog are
  /// always wired to its TransactionManager.
  explicit Table(TableSchema schema, TransactionManager* txn = nullptr)
      : schema_(std::move(schema)),
        arity_(schema_.column_count()),
        stride_(arity_ + 1),
        txn_(txn) {}
  ~Table();
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const TableSchema& schema() const { return schema_; }

  /// Durable tables participate in write-ahead logging and snapshots
  /// (rdb/wal.h): tables created through SQL DDL or recovered from a
  /// snapshot are durable; engine scratch tables created through the direct
  /// catalog API are not — their contents are rebuilt, not recovered.
  bool durable() const { return durable_; }
  void set_durable(bool durable) { durable_ = durable; }

  /// Wires the per-Database string interner: long string values are
  /// canonicalized on their way into the slab, so repeated names/paths
  /// across millions of rows share one heap block.
  void set_interner(StringInterner* interner) { interner_ = interner; }

  /// Wires the Database's epoch manager: row metadata is stamped with its
  /// write epoch and superseded storage is retired through it. Tables
  /// without a manager (unit tests) behave single-threaded — every row is
  /// born at epoch 1 and storage is freed eagerly.
  void set_epoch_manager(EpochManager* em) { em_ = em; }

  /// Wires the Database's memory accountant: slab capacity is charged to
  /// mem.table_slabs at growth (released when the superseded buffer is
  /// actually freed, which may lag behind epoch retirement) and parked
  /// pre-images to mem.version_buffers. Null = unaccounted (unit tests).
  void set_accountant(MemoryAccountant* mem) { mem_ = mem; }

  /// Wires the Database's statistics: slot reuse counts to
  /// Stats::slots_reused. Null = uncounted (unit tests).
  void set_stats(Stats* stats) { stats_ = stats; }

  /// Number of row slots (live + tombstoned). Scans iterate this range.
  /// Writer-thread view; readers use SnapshotRowCount().
  size_t capacity() const { return live_.size(); }
  size_t live_count() const { return live_count_; }

  /// The reuse queue: tombstoned row ids, oldest death first. Entries go
  /// stale when their slot is revived or refilled by InsertAt; Insert skips
  /// those lazily. Every dead slot has at least one entry. For the
  /// integrity scrub.
  const std::deque<size_t>& reuse_queue() const { return reuse_queue_; }

  bool is_live(size_t rowid) const { return live_[rowid]; }
  /// The row's columns, contiguous in the table slab. Valid until the next
  /// insert into this table (slab growth may relocate it) — the same
  /// lifetime the old vector-of-rows layout gave. Writer thread only;
  /// pinned readers go through SnapshotReadRow.
  const Value* row(size_t rowid) const {
    return cells_.load(std::memory_order_relaxed) + rowid * stride_;
  }
  /// Range-for friendly view of one row.
  std::span<const Value> row_span(size_t rowid) const {
    return {row(rowid), arity_};
  }
  /// Copies one row out (callers that must survive later mutations).
  Row CopyRow(size_t rowid) const {
    const Value* r = row(rowid);
    return Row(r, r + arity_);
  }

  // --- pinned-reader snapshot API (any thread, under an epoch pin) --------

  /// Row slots a reader pinned at some epoch may examine. The acquire load
  /// pairs with the writer's release publication of each appended row, so
  /// every slot below the returned count is fully initialized (possibly
  /// with a begin epoch newer than the reader's pin, which the visibility
  /// check rejects).
  size_t SnapshotRowCount() const {
    return filled_.load(std::memory_order_acquire);
  }

  /// Copies the version of row `rowid` visible at epoch `pin` into `out`
  /// (cleared, then exactly arity() values). Returns false when no version
  /// of the row is visible at that epoch. With `live` non-null (the
  /// background checkpointer), a slot that was already dead at `pin` is
  /// copied too — through the same seqlock, or from the dead image a reuse
  /// parked while EpochManager::capture_open was set — and `*live` reports
  /// the slot's liveness; false then only means the slot was not yet born
  /// at `pin`. `rowid` must be < a prior SnapshotRowCount() result.
  /// Thread-safe against every writer mutation.
  bool SnapshotReadRow(size_t rowid, uint64_t pin, Row* out,
                       bool* live = nullptr) const;

  size_t arity() const { return arity_; }

  /// Access statistics for SHOW TABLE STATS; bumped from the exec nodes
  /// (any thread) and the mutation entry points (writer thread).
  TableAccessStats& access_stats() const { return access_stats_; }

  /// Version-buffer occupancy: parked pre-image rows and their approximate
  /// byte footprint (cells only). Readable from any thread.
  uint64_t version_rows() const { return version_rows_.load(); }
  uint64_t version_bytes() const { return version_bytes_.load(); }

  /// Frees version-buffer entries no pinned reader can need anymore
  /// (writer thread, at commit boundaries). Returns the number of parked
  /// pre-images trimmed.
  size_t GcVersions(uint64_t min_pinned);

  /// Inserts a row (arity must match the schema) into the oldest reusable
  /// tombstoned slot, or appends it. Returns its rowid.
  Result<size_t> Insert(Row row);

  /// WAL replay: inserts `row` at `rowid`, which must be capacity() (an
  /// append) or a tombstoned slot below it (a reuse).
  Status InsertAt(size_t rowid, Row row);

  /// Snapshot-restore append (rdb/snapshot.cc): places `row` in the next
  /// slot with the given liveness, without undo/WAL logging or index
  /// maintenance — tombstoned slots keep their positions (row ids are
  /// physical WAL addresses) and join the reuse queue in rowid order;
  /// indexes are created after all slots load.
  void LoadSlot(Row row, bool live);

  /// Tombstones a row; index entries are removed.
  Status Delete(size_t rowid);

  /// Truncates the table: every row slot (live and tombstoned), the reuse
  /// queue and all index entries are discarded, resetting capacity() to 0.
  /// NOT transactional — no undo is logged and any undo records already
  /// held for this table become no-ops (their rowids fall out of range).
  /// For scratch tables.
  void Clear();

  /// Sets one column; index entries are maintained.
  Status SetColumn(size_t rowid, int column, Value v);

  /// Creates a hash index over `column` (by index), populating from current
  /// rows. Fails if an index of this name exists.
  Status CreateIndex(const std::string& index_name, int column);
  Status DropIndex(const std::string& index_name);
  /// Drops the index if this table owns one of that name; returns whether it
  /// did. Single scan — lets DROP INDEX's owning-table search avoid the
  /// find-then-drop double lookup.
  bool TryDropIndex(std::string_view index_name);

  /// Index over `column`, or null.
  const HashIndex* FindIndexOnColumn(int column) const;
  const HashIndex* FindIndexByName(const std::string& name) const;
  /// All indexes, for snapshot serialization.
  const std::vector<std::unique_ptr<HashIndex>>& indexes() const {
    return indexes_;
  }

  // --- rollback hooks (TransactionManager only; none of these log) --------

  /// Reverts an appending Insert: removes index entries and kills the row.
  /// When the row is still the newest slot (always true under LIFO undo)
  /// the slot is popped, restoring capacity() too.
  void UndoInsert(size_t rowid);
  /// Reverts an Insert into a reused slot: removes index entries and puts
  /// back the dead image — `image` holds the old cells followed by the old
  /// begin/end word (TransactionManager::LogReuse) — and its queue entry.
  /// The mod word keeps the reuse's epoch: it is a seqlock sequence and
  /// must not move backwards under a checkpointer's copy.
  void UndoReuse(size_t rowid, Value* image);
  /// Reverts a Delete: revives the tombstoned row (its data is still in the
  /// slot) and re-adds its index entries.
  void UndoDelete(size_t rowid);
  /// Reverts a SetColumn: writes the old value back, index-maintaining.
  void UndoSetColumn(size_t rowid, int column, const Value& v);

 private:
  /// One parked pre-image: the row's contents before its first in-place
  /// update inside epoch window `end_valid` — i.e. the version readers
  /// pinned at P < end_valid must see when the slab cells have moved on.
  struct OldVersion {
    uint64_t end_valid = 0;
    Row values;
  };

  Value* mutable_row(size_t rowid) {
    return cells_.load(std::memory_order_relaxed) + rowid * stride_;
  }
  RowMetaRef meta(size_t rowid) const {
    return RowMetaRef(cells_.load(std::memory_order_relaxed) +
                      rowid * stride_ + arity_);
  }
  /// The epoch the writer's in-flight changes belong to (1 when no epoch
  /// manager is attached — single-threaded mode).
  uint64_t WriteEpoch() const { return em_ != nullptr ? em_->write_epoch() : 1; }

  /// Ensures room for one more row, growing (and epoch-retiring the old
  /// buffer) as needed. Returns the cell pointer for the new row slot.
  Value* ReserveRowSlot();
  Status CheckArity(const Row& row) const;
  /// Pops the oldest reuse-queue entry whose slot is dead at or below the
  /// reuse horizon (dropping stale entries on the way); capacity() when
  /// there is none.
  size_t TakeReusableSlot();
  /// Inserts `row` at `rowid` — an append when it equals capacity(), else
  /// into that tombstoned slot — with index, stats and undo/WAL upkeep.
  void Place(size_t rowid, Row&& row);
  /// Appends `row` (already interned) as the next slot with the given
  /// MVCC stamps, publishing it to readers.
  void AppendRow(Row&& row, uint32_t begin, uint32_t end, uint64_t mod);
  /// Parks the row's pre-image for pinned readers and opens its seqlock
  /// window, if this is the row's first in-place update in the current
  /// epoch window.
  void PrepareRowUpdate(size_t rowid);
  /// Retires `buf` (holding `rows` row slots) through the epoch manager,
  /// or frees it immediately when no reader can reference it.
  /// `destroy_values` runs Value destructors at free time (Clear); growth
  /// retires ghost images without them. `charged_bytes` is the slab charge
  /// released from the accountant when the buffer is actually freed.
  void RetireBuffer(Value* buf, size_t rows, bool destroy_values,
                    size_t charged_bytes);

  TableSchema schema_;
  size_t arity_;
  size_t stride_;  ///< arity_ + 1 (trailing MVCC metadata slot).
  TransactionManager* txn_ = nullptr;
  StringInterner* interner_ = nullptr;
  EpochManager* em_ = nullptr;
  MemoryAccountant* mem_ = nullptr;
  bool durable_ = false;
  /// Row slots back to back: slot i occupies cells_[i*stride_ ..
  /// (i+1)*stride_). Published atomically so pinned readers can chase the
  /// pointer while the writer grows or clears the slab; the buffer itself
  /// is raw storage managed by ReserveRowSlot/RetireBuffer.
  std::atomic<Value*> cells_{nullptr};
  size_t cap_rows_ = 0;                ///< writer-only buffer capacity.
  std::atomic<size_t> filled_{0};      ///< published (initialized) rows.
  std::vector<bool> live_;             ///< writer-only liveness view.
  size_t live_count_ = 0;
  /// Writer-only reuse queue (see reuse_queue()): Delete pushes at the
  /// back, so entries run in end-epoch order and Insert stops at the first
  /// one still above the horizon.
  std::deque<size_t> reuse_queue_;
  Stats* stats_ = nullptr;
  /// Parked pre-images for rows updated in place while readers could be
  /// pinned; guarded by versions_mu_ (writer emplaces/GCs, readers look
  /// up on seqlock failure).
  mutable std::mutex versions_mu_;
  std::unordered_multimap<size_t, OldVersion> versions_;
  /// Version-buffer occupancy mirrors of versions_ (rows / approx bytes),
  /// readable without the mutex for gauges and SHOW TABLE STATS.
  RelaxedU64 version_rows_;
  RelaxedU64 version_bytes_;
  mutable TableAccessStats access_stats_;
  std::vector<std::unique_ptr<HashIndex>> indexes_;
};

}  // namespace xupd::rdb

#endif  // XUPD_RDB_TABLE_H_
