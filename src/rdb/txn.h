// TransactionManager: an in-memory logical undo log over Table mutations.
//
// Every Table insert/delete/update logs one undo record while a transaction
// is active (the Table holds a pointer back to the manager, so every write
// path — SQL DML, trigger bodies, the direct bulk API — logs into the
// enclosing transaction automatically). Scopes nest: a Begin() while a
// transaction is active opens a savepoint; Rollback() undoes only the
// records of the innermost scope, Commit() merges them into the parent.
// Scopes may carry a name (the SQL SAVEPOINT surface): RollbackTo() undoes
// every record back to the named scope and keeps it open, Release() merges
// it (and any scopes nested inside it) into its parent.
// Undo is applied strictly LIFO, which keeps the records logical and small:
//   insert  -> re-kill the inserted rowid (and pop it when it is still the
//              newest slot, restoring table capacity too)
//   reuse   -> an insert into a tombstoned slot: put the slot's dead image
//              (cells and begin/end word) and its reuse-queue entry back
//   delete  -> revive the tombstoned rowid (the row data is still in place)
//              and re-add its hash-index entries
//   update  -> write the old value back (index-maintaining)
// DDL is NOT undoable; the Database rejects SQL DDL inside a transaction
// (see database.h for the policy). Scratch tables created through the
// direct catalog API are never wired to the log, so none of their writes
// are recorded.
//
// When a WAL is attached (rdb/wal.h), the same hooks also serialize one
// logical REDO record per mutation of a durable table into the WAL's
// pending buffer — rollback truncates that buffer in lockstep with the
// undo log (each scope carries both positions), so only committed work is
// ever written to the file.
//
// The record log is region-allocated: fixed 4096-record chunks (~96 KiB)
// that are allocated once, never copied on growth (unlike vector
// reallocation, appending the N+1th chunk leaves existing records in
// place), and retained across transactions, so steady-state logging of any
// size never touches the allocator.
#ifndef XUPD_RDB_TXN_H_
#define XUPD_RDB_TXN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "rdb/schema.h"
#include "rdb/stats.h"
#include "rdb/value.h"
#include "rdb/wal.h"

namespace xupd::rdb {

class Table;

/// One logical undo record. Kept trivially copyable and small (the hot
/// delete/insert paths append one per row): kUpdate's old value and
/// kReuse's dead slot image (arity cells, then the begin/end word as an
/// Int) live in a parallel side vector, appended in log order — LIFO undo
/// always consumes the vector from the back, so no index needs to be
/// stored.
struct UndoRecord {
  enum class Kind : uint8_t { kInsert, kReuse, kDelete, kUpdate };
  Kind kind = Kind::kInsert;
  int column = 0;  ///< kUpdate only.
  Table* table = nullptr;
  size_t rowid = 0;
};

/// Chunked region log of UndoRecords. Appends never relocate existing
/// records; chunks are retained on clear() for reuse.
class UndoLog {
 public:
  /// 4096 records/chunk * 24 bytes = one ~96 KiB region per chunk.
  static constexpr size_t kChunkBits = 12;
  static constexpr size_t kChunkRecords = size_t{1} << kChunkBits;

  ~UndoLog() {
    if (mem_ != nullptr) {
      mem_->Release(MemoryAccountant::kUndoLog,
                    chunks_.size() * kChunkRecords * sizeof(UndoRecord));
    }
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Wires the Database's memory accountant: chunk regions charge to
  /// mem.undo_log when allocated (chunks are retained across transactions,
  /// so the charge tracks the log's high-water footprint).
  void set_accountant(MemoryAccountant* mem) { mem_ = mem; }

  void Append(const UndoRecord& rec) {
    if (size_ == chunks_.size() * kChunkRecords) {
      chunks_.push_back(std::make_unique<UndoRecord[]>(kChunkRecords));
      if (mem_ != nullptr) {
        mem_->Charge(MemoryAccountant::kUndoLog,
                     kChunkRecords * sizeof(UndoRecord));
      }
    }
    chunks_[size_ >> kChunkBits][size_ & (kChunkRecords - 1)] = rec;
    ++size_;
  }

  const UndoRecord& at(size_t i) const {
    return chunks_[i >> kChunkBits][i & (kChunkRecords - 1)];
  }
  const UndoRecord& back() const { return at(size_ - 1); }

  void pop_back() { --size_; }
  /// Keeps the chunks for the next transaction.
  void clear() { size_ = 0; }

 private:
  std::vector<std::unique_ptr<UndoRecord[]>> chunks_;
  size_t size_ = 0;
  MemoryAccountant* mem_ = nullptr;
};

class TransactionManager {
 public:
  explicit TransactionManager(Stats* stats) : stats_(stats) {}

  bool active() const { return !scopes_.empty(); }
  size_t depth() const { return scopes_.size(); }
  size_t undo_size() const { return log_.size(); }

  /// Opens a scope (a savepoint when one is already active). `next_id` is
  /// the Database id counter to restore if this scope rolls back. `name`
  /// (optional) makes the scope addressable by RollbackTo/Release.
  void Begin(int64_t next_id, std::string name = {});

  /// Pops the innermost scope, keeping its records for the parent; clears
  /// the log when the outermost scope commits.
  Status Commit();

  /// Undoes the innermost scope's records in reverse order and returns the
  /// id-counter snapshot taken at its Begin.
  Result<int64_t> Rollback();

  /// Undoes every record logged since the innermost scope named `name`
  /// (scopes nested inside it are discarded); the named scope itself stays
  /// open, per SQL ROLLBACK TO semantics. Returns its id-counter snapshot.
  Result<int64_t> RollbackTo(std::string_view name);

  /// Merges the innermost scope named `name` — and any scopes nested inside
  /// it — into its parent (SQL RELEASE semantics: the records are kept and
  /// commit or roll back with the enclosing scope).
  Status Release(std::string_view name);

  /// Attaches the write-ahead log (rdb/wal.h): from then on every mutation
  /// hook also pends a redo record for durable tables — inside a
  /// transaction (truncated again if the scope rolls back) or not (the
  /// Database flushes autocommit units at statement boundaries).
  void AttachWal(WalWriter* wal) { wal_ = wal; }

  /// Wires the memory accountant into the undo log (see UndoLog).
  void set_accountant(MemoryAccountant* mem) { log_.set_accountant(mem); }

  /// Record hooks (no-ops unless a transaction is active or a WAL is
  /// attached). Inline: they sit on the per-row hot path of every Table
  /// mutation.
  void LogInsert(Table* table, size_t rowid) {
    if (wal_ != nullptr) WalInsert(table, rowid);
    if (scopes_.empty()) return;
    log_.Append({UndoRecord::Kind::kInsert, 0, table, rowid});
    ++stats_->undo_records;
  }
  /// An insert into the tombstoned slot `rowid`: `dead_cells` holds the
  /// slot's previous cells (moved out here when a scope is active) and
  /// `old_begin_end` its previous begin/end word.
  void LogReuse(Table* table, size_t rowid, Row* dead_cells,
                uint64_t old_begin_end) {
    if (wal_ != nullptr) WalInsert(table, rowid);
    if (scopes_.empty()) return;
    log_.Append({UndoRecord::Kind::kReuse, 0, table, rowid});
    for (Value& v : *dead_cells) old_values_.push_back(std::move(v));
    old_values_.push_back(Value::Int(static_cast<int64_t>(old_begin_end)));
    ++stats_->undo_records;
  }
  void LogDelete(Table* table, size_t rowid) {
    if (wal_ != nullptr) WalDelete(table, rowid);
    if (scopes_.empty()) return;
    log_.Append({UndoRecord::Kind::kDelete, 0, table, rowid});
    ++stats_->undo_records;
  }
  void LogUpdate(Table* table, size_t rowid, int column, Value old_value,
                 const Value& new_value) {
    if (wal_ != nullptr) WalUpdate(table, rowid, column, new_value);
    if (scopes_.empty()) return;
    log_.Append({UndoRecord::Kind::kUpdate, column, table, rowid});
    old_values_.push_back(std::move(old_value));
    ++stats_->undo_records;
  }

 private:
  struct Scope {
    size_t undo_start = 0;  ///< log_ size at Begin.
    int64_t next_id = 0;    ///< Database id counter at Begin.
    std::string name;       ///< SAVEPOINT name (empty for plain Begin).
    /// WAL pending position at Begin; rollback truncates the redo buffer
    /// back to it in lockstep with the undo log.
    WalWriter::Mark wal_mark;
  };

  /// Undoes log records down to `undo_start` (LIFO).
  void UndoDownTo(size_t undo_start);
  /// Innermost scope index with a case-insensitive name match, or -1.
  int FindScope(std::string_view name) const;

  // Out-of-line redo pends (they need the complete Table type to check
  // durability; the inline hooks above only test the wal_ pointer).
  void WalInsert(Table* table, size_t rowid);
  void WalDelete(Table* table, size_t rowid);
  void WalUpdate(Table* table, size_t rowid, int column,
                 const Value& new_value);

  Stats* stats_;
  WalWriter* wal_ = nullptr;
  UndoLog log_;
  /// Old values of kUpdate records and dead images of kReuse records,
  /// appended in log order.
  std::vector<Value> old_values_;
  std::vector<Scope> scopes_;
};

}  // namespace xupd::rdb

#endif  // XUPD_RDB_TXN_H_
