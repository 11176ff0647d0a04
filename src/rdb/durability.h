// Durability: the component that keeps a Database's committed work across
// crashes. A commit unit goes in (CommitUnit, LogDdl); the durable boundary
// and health come out. It owns the data directory, the Vfs and the LOCK
// file, the WalWriter (which owns the group-commit flusher), recovery,
// both checkpoint kinds, TryHeal, the background-thread watchdogs and the
// one fail-stop state. Database forwards its durability API here.
//
// Open(dir) turns the database durable: if `dir` holds a snapshot and/or
// WAL from an earlier run, the snapshot is loaded and the WAL's committed
// prefix replayed (a torn or uncommitted tail is discarded), otherwise the
// directory is initialized fresh. From then on every committed unit of
// work on *durable* tables — an outermost transaction commit, or each
// top-level statement outside a transaction — is appended to the WAL as
// logical redo records framed with length + CRC32 and a commit marker
// carrying the next-id counter. Durable tables are those created through
// SQL DDL (or recovered); engine scratch tables made through the direct
// catalog API are ephemeral and bypass both WAL and snapshot. SQL DDL is
// logged as its statement text and replayed by re-execution.
//
// Loss bounds per SyncMode, as observed after a crash (what ReplayWal
// recovers):
//
//  * kCommit  — an acknowledged commit is never lost (fsync before ack).
//  * kBatched — at most the acknowledged units of ONE group-commit window
//    (group_commit_window_us, default 2ms) are lost; a crash never yields a
//    torn or reordered unit, only a clean prefix of acknowledged commits.
//  * kNone    — acknowledged units survive process crashes (the OS page
//    cache holds appended records) but an OS/power crash may lose anything
//    since the last checkpoint or explicit Sync.
//
// Graceful degradation: when the WAL fail-stops (append, fsync — on the
// writer or the flusher thread — or post-checkpoint reset failure), the
// FailStop trips and the Database is READ-ONLY from that moment on, on
// every thread: SELECT and EXPLAIN keep serving the in-memory state, while
// DML/DDL against durable tables (and the direct write APIs) return
// kUnavailable naming the original errno and failed operation. Ephemeral
// scratch tables bypass the WAL and stay writable. TryHeal() re-opens the
// data directory — discarding in-memory effects that were never durable
// (they already surfaced as statement errors) and rebuilding from the
// snapshot + committed WAL prefix — to return to read-write once the
// underlying fault clears.
//
// Everything here runs on the writer thread (see the threading model in
// rdb/database.h) except read_only() and health(), which any thread may call.
#ifndef XUPD_RDB_DURABILITY_H_
#define XUPD_RDB_DURABILITY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include "common/result.h"
#include "rdb/governance.h"
#include "rdb/vfs.h"
#include "rdb/wal.h"

namespace xupd::rdb {

class Database;
struct CheckpointCapture;

class Durability {
 public:
  struct Health {
    bool read_only = false;
    std::string cause;  ///< First failure (op + path + errno); "" if healthy.
    /// Background-thread watchdogs: true when the group-commit flusher /
    /// background checkpointer has made no progress for
    /// watchdog_stall_windows() consecutive windows.
    bool flusher_stalled = false;
    bool checkpoint_stalled = false;
    bool degraded() const {
      return read_only || flusher_stalled || checkpoint_stalled;
    }
  };

  /// Upper bound on one TryHeal backoff sleep, milliseconds.
  static constexpr int kMaxHealBackoffMs = 100;

  /// `db` is the Database this component makes durable; it must outlive it.
  explicit Durability(Database* db);
  Durability(const Durability&) = delete;
  Durability& operator=(const Durability&) = delete;

  /// Opens durability under `dir` (created if missing), recovering any
  /// existing state. The Database must be fresh (no tables, no open
  /// transaction) and this is allowed at most once.
  Status Open(const std::string& dir, const DurabilityOptions& options);
  /// Joins a background checkpoint, commits pending redo when
  /// `commit_pending` (direct-API writes outside a transaction), and closes
  /// the WAL. The Database calls it before tearing its tables down.
  void Close(bool commit_pending);

  bool open() const { return wal_ != nullptr; }
  /// True when the last Open found existing durable state.
  bool recovered() const { return recovered_; }
  const std::string& dir() const { return dir_; }
  Vfs* vfs() const { return vfs_; }
  const WalWriter* wal() const { return wal_.get(); }

  /// Flushes the pending redo as one committed unit carrying the current
  /// next-id. No-op when durability is off or nothing is pending.
  Status CommitUnit();
  /// Pends the text of an executed DDL statement.
  void LogDdl(std::string_view sql_text);

  /// Both checkpoint kinds capture the current commit boundary (catalog,
  /// every row slot with its liveness and cells, index and trigger
  /// definitions, next-id) and hand it to one serializer (WriteSnapshot in
  /// rdb/snapshot.h). Both are rejected inside a transaction: a snapshot
  /// must not contain uncommitted effects.
  ///
  /// Checkpoint() serializes the capture inline on the writer thread —
  /// blocking the writer for the whole write, taking no reader slot — and
  /// then resets the WAL (a new writer, and under kBatched a new flusher)
  /// to the next epoch. A running background checkpoint is joined first.
  Status Checkpoint();
  /// Off-thread checkpoint: captures the boundary with the synced WAL
  /// offset, pins its epoch in a reader slot, and serializes it on a
  /// background thread while the writer keeps committing. The WAL is NOT
  /// truncated — recovery loads the snapshot and replays only the WAL
  /// suffix past the recorded offset. Returns once the capture is done
  /// (fast); CheckpointWait() joins the serialization and reports its
  /// status. Rejected while a background checkpoint is already running and
  /// (kUnavailable) when every reader slot is taken. A
  /// background-checkpoint failure is benign: the previous snapshot + full
  /// WAL still recover everything.
  Status CheckpointBackground();
  /// Joins an in-flight background checkpoint (no-op when none is running)
  /// and returns its final status.
  Status CheckpointWait();
  bool checkpoint_running() const { return checkpoint_running_; }

  bool read_only() const { return fail_.tripped(); }
  /// kUnavailable naming the fail-stop cause, for a rejected write path.
  Status ReadOnlyError(const std::string& action) const {
    return fail_.Error(action);
  }
  /// Current health, including lazy watchdog evaluation: the first call that
  /// observes a stalled background thread bumps watchdog.flusher_stalls /
  /// watchdog.checkpoint_stalls and records a kGovernance trace event.
  Health health() const;
  /// Attempts to return a read-only database to read-write: re-runs recovery
  /// from disk, retrying up to `max_attempts` times with exponential backoff.
  /// The backoff is bounded (capped at kMaxHealBackoffMs per attempt),
  /// interruptible (the Database's cancel token aborts the sleep with
  /// kCancelled), and observable (each attempt bumps Stats::heal_attempts
  /// and each backoff records a kGovernance trace event annotated
  /// "heal_backoff"). No-op when not read-only; rejected inside a
  /// transaction. On success the in-memory state equals the last
  /// committed-on-disk unit boundary.
  Status TryHeal(int max_attempts);

  /// Watchdogs: a background thread is stalled after stall_windows()
  /// progress-free windows (>= 1) — the flusher's window is
  /// group_commit_window_us, the checkpointer's checkpoint_window_us
  /// (default 1s; it has no natural period).
  void set_stall_windows(int windows) {
    stall_windows_ = windows < 1 ? 1 : windows;
  }
  int stall_windows() const { return stall_windows_; }
  void set_checkpoint_window_us(int64_t us) {
    checkpoint_window_us_ = us < 1 ? 1 : us;
  }
  int64_t checkpoint_window_us() const { return checkpoint_window_us_; }

 private:
  /// Loads the snapshot, replays the WAL's committed prefix, and opens the
  /// writer. Requires an empty catalog; on failure partial state may linger
  /// (callers reset or stay read-only).
  Status RecoverFromDir();
  /// Opens the WAL writer for `epoch` (resuming appends at `valid_bytes`)
  /// and attaches it to the transaction manager's redo hooks.
  Status OpenWriter(uint64_t epoch, uint64_t valid_bytes,
                    const std::vector<std::pair<std::string, uint16_t>>*
                        table_ids = nullptr);
  /// The one reset path (a failed Open, a heal): drops the writer, empties
  /// the Database's catalog, triggers and next-id, and clears the
  /// fail-stop state.
  void Reset();
  /// The prologue every checkpoint shares: durability open, not read-only,
  /// no transaction open (and no background checkpoint running — a
  /// blocking one joins it, a background one is rejected); commits the
  /// pending unit, publishes an epoch boundary, and fills `*out` with it.
  /// `reset_wal` (blocking Checkpoint) stamps epoch+1 and WAL offset 0 —
  /// the caller resets the WAL before anything else commits; otherwise the
  /// WAL is synced and the capture keeps its epoch and synced offset.
  Status Capture(bool reset_wal, CheckpointCapture* out);
  /// One TryHeal attempt: probe-recover into a scratch Database first (it
  /// reads the files and opens no writer), then rebuild the Database from
  /// disk and reopen the WAL writer.
  Status Reopen();

  Database* db_;
  std::string dir_;
  DurabilityOptions options_;
  /// All durable file I/O goes through this (never null once Open ran).
  Vfs* vfs_ = nullptr;
  /// flock'd <dir>/LOCK guarding against two Databases sharing one WAL.
  std::unique_ptr<VfsFile> lock_file_;
  bool recovered_ = false;
  FailStop fail_;
  int stall_windows_ = 8;
  int64_t checkpoint_window_us_ = 1000000;
  Watchdog flusher_watchdog_;
  Watchdog checkpoint_watchdog_;
  /// Declared after everything it reports into, so it closes first.
  std::unique_ptr<WalWriter> wal_;

  /// At most one background checkpoint. The writer thread owns this state;
  /// the spawned thread writes checkpoint_status_ before exiting and it is
  /// read after join.
  std::thread checkpoint_thread_;
  Status checkpoint_status_;
  int checkpoint_slot_ = -1;
  bool checkpoint_running_ = false;
};

}  // namespace xupd::rdb

#endif  // XUPD_RDB_DURABILITY_H_
