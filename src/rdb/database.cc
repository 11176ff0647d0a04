#include "rdb/database.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/stopwatch.h"
#include "common/str_util.h"
#include "rdb/exec_node.h"
#include "rdb/snapshot.h"
#include "rdb/sql_executor.h"
#include "rdb/sql_parser.h"
#include "rdb/vfs.h"

namespace xupd::rdb {

namespace {

// Busy-wait so the simulated latency shows up in wall-clock measurements.
// Deadline-aware: an armed statement deadline cuts the spin short so a
// timed-out statement fails promptly instead of first paying the full
// simulated round trip.
void SpinFor(double us, uint64_t deadline_ns = 0) {
  if (us <= 0) return;
  Stopwatch sw;
  while (sw.ElapsedSeconds() * 1e6 < us) {
    if (deadline_ns != 0 && MonotonicNanos() >= deadline_ns) return;
  }
}

}  // namespace

std::string MultiRowInsertSql(std::string_view table, size_t columns,
                              size_t rows) {
  std::string sql = "INSERT INTO ";
  sql += table;
  sql += " VALUES ";
  for (size_t r = 0; r < rows; ++r) {
    if (r > 0) sql += ", ";
    sql += "(";
    for (size_t c = 0; c < columns; ++c) {
      if (c > 0) sql += ", ";
      sql += "?";
    }
    sql += ")";
  }
  return sql;
}

Database::Database() {
  InitMetrics();
  // Wire the memory accountant into the always-present charge sites; tables
  // and the WAL writer are wired as they are created/opened.
  interner_.set_accountant(&mem_);
  txn_.set_accountant(&mem_);
}

void Database::InitMetrics() {
  static constexpr const char* kStmtHistNames[kStmtKindSlots] = {
      "stmt.select", "stmt.insert", "stmt.delete", "stmt.update",
      "stmt.ddl",    "stmt.txn",    "stmt.explain", "stmt.other",
  };
  for (size_t i = 0; i < kStmtKindSlots; ++i) {
    stmt_hists_[i] = metrics_.GetHistogram(kStmtHistNames[i]);
  }
  exec_ns_ = metrics_.Counter("db.exec_ns");
  trigger_ns_ = metrics_.Counter("db.trigger_ns");
  epochs_.readers_gauge = metrics_.Gauge("readers.active");
  // Concurrency telemetry (PR 9): resolved once so the commit-boundary and
  // reader hot paths touch plain atomics.
  epochs_.lag_gauge = metrics_.Gauge("epoch.lag");
  epochs_.reclaim_counter = metrics_.Counter("mvcc.slab_reclaims");
  epoch_published_gauge_ = metrics_.Gauge("epoch.published");
  version_rows_gauge_ = metrics_.Gauge("mvcc.version_rows");
  version_bytes_gauge_ = metrics_.Gauge("mvcc.version_bytes");
  version_gc_rows_ = metrics_.Counter("mvcc.version_gc_rows");
  reader_sessions_gauge_ = metrics_.Gauge("readers.sessions");
  // Resource governance (PR 10): statement-kill counters, heal/watchdog
  // observability, and the mem.* gauges the accountant mirrors into.
  stmt_cancelled_ = metrics_.Counter("stmt.cancelled");
  stmt_deadline_exceeded_ = metrics_.Counter("stmt.deadline_exceeded");
  stmt_resource_exhausted_ = metrics_.Counter("stmt.resource_exhausted");
  stmt_shed_ = metrics_.Counter("stmt.shed");
  flusher_stall_counter_ = metrics_.Counter("watchdog.flusher_stalls");
  checkpoint_stall_counter_ = metrics_.Counter("watchdog.checkpoint_stalls");
  mem_.AttachMetrics(&metrics_);
}

size_t Database::StmtKindSlot(sql::Statement::Kind kind) {
  switch (kind) {
    case sql::Statement::Kind::kSelect:
      return 0;
    case sql::Statement::Kind::kInsert:
      return 1;
    case sql::Statement::Kind::kDelete:
      return 2;
    case sql::Statement::Kind::kUpdate:
      return 3;
    case sql::Statement::Kind::kCreateTable:
    case sql::Statement::Kind::kCreateIndex:
    case sql::Statement::Kind::kCreateTrigger:
    case sql::Statement::Kind::kDrop:
      return 4;
    case sql::Statement::Kind::kBegin:
    case sql::Statement::Kind::kCommit:
    case sql::Statement::Kind::kRollback:
    case sql::Statement::Kind::kSavepoint:
    case sql::Statement::Kind::kRelease:
      return 5;
    case sql::Statement::Kind::kExplain:
      return 6;
    default:  // kCheckIntegrity, kShow
      return 7;
  }
}

bool Database::IsDdl(const sql::Statement& stmt) {
  switch (stmt.kind) {
    case sql::Statement::Kind::kCreateTable:
    case sql::Statement::Kind::kCreateIndex:
    case sql::Statement::Kind::kCreateTrigger:
    case sql::Statement::Kind::kDrop:
      return true;
    default:
      return false;
  }
}

void Database::InvalidateStatementCache() {
  cache_index_.clear();
  cache_lru_.clear();
  BumpCatalogVersion();
}

void Database::BumpCatalogVersion() {
  catalog_version_.fetch_add(1, std::memory_order_acq_rel);
  trigger_plans_.clear();
}

void Database::PublishCatalog(Catalog next) {
  const Catalog* old = catalog_.exchange(new Catalog(std::move(next)),
                                         std::memory_order_acq_rel);
  // A statement pinned at or before the current epoch may have resolved
  // names through `old`; only pins taken after the next boundary cannot.
  epochs_.Retire(epochs_.current(), [old] { delete old; });
}

// ---------------------------------------------------------------------------
// Durability

Database::~Database() {
  // Background threads first: the checkpoint thread holds a reader slot,
  // the flusher dereferences wal_.
  (void)CheckpointWait();
  StopFlusher();
  // The metrics registry dies before the tables, interner_ and txn_ do,
  // and their destructors release memory charges — stop mirroring into
  // gauges now.
  mem_.AttachMetrics(nullptr);
  if (wal_ != nullptr) {
    // Clean shutdown persists pending direct-API writes; an open
    // transaction's pending redo is uncommitted and must not.
    if (!txn_.active()) (void)WalCommitUnit();
    (void)wal_->Close();
  }
  delete catalog_.load(std::memory_order_relaxed);
  // lock_file_'s destructor releases the directory flock.
}

Status Database::Open(const std::string& dir,
                      const DurabilityOptions& options) {
  if (wal_ != nullptr) {
    return Status::InvalidArgument("durability is already open");
  }
  if (!catalog().empty() || txn_.active()) {
    return Status::InvalidArgument(
        "Open requires a fresh Database (no tables, no open transaction)");
  }
  vfs_ = options.vfs != nullptr ? options.vfs : Vfs::Default();
  int err = vfs_->Mkdir(dir);
  if (err == 0) {
    // Make the new directory's own entry durable (see WalWriter::Open for
    // the file-level counterpart); without this a power loss could lose
    // the whole directory even though its files were fsynced.
    if (options.sync_mode != SyncMode::kNone) {
      if ((err = vfs_->SyncDir(dir)) != 0) {
        return ErrnoStatus("cannot fsync parent of data directory", dir, err);
      }
    }
  } else if (err != EEXIST) {
    return ErrnoStatus("cannot create data directory", dir, err);
  }
  data_dir_ = dir;
  durability_options_ = options;

  // Exclusive directory lock: two writers on one WAL would truncate and
  // overwrite each other's committed frames with no error until the next
  // recovery hits a CRC mismatch. flock conflicts across processes AND
  // across two Database instances in one process; released in ~Database.
  std::string lock_path = dir + "/LOCK";
  std::unique_ptr<VfsFile> lock =
      vfs_->Open(lock_path, Vfs::OpenMode::kWrite, &err);
  if (lock == nullptr) {
    return ErrnoStatus("cannot open lock file", lock_path, err);
  }
  if (lock->TryLockExclusive() != 0) {
    return Status::InvalidArgument(
        "data directory '" + dir +
        "' is already in use by another Database (lock held)");
  }
  lock_file_ = std::move(lock);
  // Restore the documented fresh-Database precondition on any failure: a
  // half-loaded snapshot or half-replayed WAL must not linger as a partial
  // catalog the caller could mistake for usable in-memory state.
  auto fail = [&](Status s) {
    PublishCatalog({});
    triggers_.clear();
    trigger_plans_.clear();
    next_id_ = 1;
    data_dir_.clear();
    recovered_ = false;
    lock_file_ = nullptr;
    return s;
  };

  // A crash (or ENOSPC) between a checkpoint's temp-file write and its
  // rename leaves an orphan temp snapshot; clean it up here so it cannot
  // accumulate in the data dir forever.
  if (vfs_->Exists(SnapshotTmpPath(dir))) {
    (void)vfs_->Remove(SnapshotTmpPath(dir));
  }

  Status recovered = RecoverFromDir();
  if (!recovered.ok()) return fail(recovered);
  if (durability_options_.sync_mode == SyncMode::kBatched) StartFlusher();
  return Status::OK();
}

Status Database::RecoverFromDir() {
  const uint64_t t0 = MonotonicNanos();
  uint64_t epoch = 1;
  uint64_t wal_offset = 0;
  bool have_snapshot = false;
  if (vfs_->Exists(SnapshotPath(data_dir_))) {
    auto loaded = LoadSnapshot(this, vfs_, SnapshotPath(data_dir_));
    if (!loaded.ok()) return loaded.status();
    epoch = loaded.value().epoch;
    wal_offset = loaded.value().wal_offset;
    have_snapshot = true;
  }
  WalReplayResult replay;
  if (vfs_->Exists(WalPath(data_dir_))) {
    auto replayed = ReplayWal(this, vfs_, WalPath(data_dir_), epoch,
                              wal_offset);
    if (!replayed.ok()) return replayed.status();
    replay = replayed.value();
  }
  if (replay.valid_bytes < wal_offset) {
    // The snapshot (written by a background checkpoint) contains every
    // commit up to wal_offset, but the WAL's valid prefix ends short of
    // that — a synced region was lost or corrupted. Resuming appends at
    // valid_bytes would alias NEW commits into the byte range the next
    // recovery skips as snapshot-covered, silently dropping them; fail
    // loudly instead.
    return Status::Internal(
        "WAL valid prefix (" + std::to_string(replay.valid_bytes) +
        " bytes) ends before the snapshot's recorded offset (" +
        std::to_string(wal_offset) + "): a synced WAL region was lost");
  }
  stats_.recovery_replayed += replay.applied_records;
  recovered_ = have_snapshot || replay.applied_records > 0;

  XUPD_RETURN_IF_ERROR(
      OpenWalWriter(epoch, replay.valid_bytes, &replay.table_ids));
  // Everything loaded so far belongs to the pre-boundary epoch; publish the
  // first post-recovery boundary so reader pins see the recovered state.
  epochs_.Advance();
  const uint64_t dur = MonotonicNanos() - t0;
  metrics_.GetHistogram("db.recovery")->Record(dur);
  events_.Record({TraceEvent::Kind::kRecovery, t0, dur,
                  replay.applied_records, 0, nullptr});
  return Status::OK();
}

Status Database::OpenWalWriter(
    uint64_t epoch, uint64_t valid_bytes,
    const std::vector<std::pair<std::string, uint16_t>>* table_ids) {
  auto writer = WalWriter::Open(vfs_, WalPath(data_dir_), epoch, valid_bytes,
                                durability_options_, &stats_, table_ids);
  if (!writer.ok()) return writer.status();
  wal_ = std::move(writer).value();
  wal_->AttachMetrics(metrics_.GetHistogram("wal.commit_unit"),
                      metrics_.GetHistogram("wal.fsync"),
                      metrics_.GetHistogram("wal.batch_commits"), &events_);
  wal_->set_accountant(&mem_);
  txn_.AttachWal(wal_.get());
  return Status::OK();
}

Status Database::CaptureCheckpoint(bool reset_wal, CheckpointCapture* out) {
  if (wal_ == nullptr) {
    return Status::InvalidArgument("durability is not open");
  }
  if (read_only_) return ReadOnlyError("checkpoint");
  if (txn_.active()) {
    return Status::InvalidArgument(
        "cannot checkpoint inside a transaction (the snapshot must not "
        "contain uncommitted effects)");
  }
  if (checkpoint_running_) {
    if (!reset_wal) {
      return Status::InvalidArgument(
          "a background checkpoint is already running");
    }
    // The running one holds raw Table* and a WAL offset the reset below
    // would invalidate. Its own failure is benign (old snapshot + full WAL
    // stay consistent), so it does not block this checkpoint.
    (void)CheckpointWait();
  }
  XUPD_RETURN_IF_ERROR(WalCommitUnit());
  if (!reset_wal) {
    // Everything the snapshot will claim (bytes below wal_offset) must be
    // power-loss durable before the offset is stamped: under kBatched
    // there may be acknowledged-but-unsynced units.
    Status synced = wal_->Sync();
    if (!synced.ok()) {
      if (wal_->broken()) EnterReadOnly(synced);
      return synced;
    }
  }
  // Publish the boundary the snapshot captures. Only this (writer) thread
  // advances epochs, so nothing commits between here and the WAL reset of
  // a blocking checkpoint.
  AdvanceEpochBoundary();
  out->pin_epoch = epochs_.current();
  out->next_id = next_id_;
  out->wal_offset = reset_wal ? 0 : wal_->file_size();
  out->epoch = reset_wal ? wal_->epoch() + 1 : wal_->epoch();
  for (const auto& [name, table] : catalog()) {
    if (!table->durable()) continue;
    CheckpointCapture::TableImage& image = out->tables.emplace_back();
    image.table = table.get();
    image.slot_count = table->SnapshotRowCount();
    for (const auto& index : table->indexes()) {
      image.indexes.emplace_back(index->name(), index->column());
    }
  }
  for (const auto& trigger : triggers_) out->trigger_sql.push_back(trigger.sql);
  return Status::OK();
}

Status Database::Checkpoint() {
  CheckpointCapture capture;
  XUPD_RETURN_IF_ERROR(CaptureCheckpoint(/*reset_wal=*/true, &capture));
  // Inline on the writer thread: it is the only thread that retires
  // storage, so the captured epoch needs no reader slot.
  const uint64_t t0 = MonotonicNanos();
  bool renamed = false;
  Status snap = WriteSnapshot(*this, vfs_, SnapshotPath(data_dir_),
                              SnapshotTmpPath(data_dir_), capture, &renamed);
  if (!snap.ok()) {
    // Fail-stop only when the new-epoch snapshot is already visible (the
    // failure hit the post-rename directory fsync): the still-open
    // old-epoch writer would otherwise accept commits that the next
    // recovery silently ignores. A pre-rename failure (e.g. transient
    // ENOSPC on the temp file) leaves old snapshot + WAL fully consistent,
    // so the writer keeps going and the checkpoint can simply be retried.
    if (renamed) {
      wal_->MarkBroken("checkpoint failed after the new snapshot became "
                       "visible: " + snap.message());
      EnterReadOnly(snap);
    }
    return snap;
  }
  // The snapshot now contains every WAL record; reset the log to the new
  // epoch. A crash between the rename above and this reset leaves an
  // old-epoch WAL that recovery recognizes as contained and ignores.
  // flusher_mu_ keeps the group-commit flusher off wal_ across the swap.
  std::unique_lock<std::mutex> flusher_lock(flusher_mu_);
  Status reset = wal_->Close();
  if (reset.ok()) reset = OpenWalWriter(capture.epoch, 0);
  if (!reset.ok()) {
    // Same fail-stop: the snapshot is durable up to this point, but the
    // log cannot accept new units. The (closed) writer stays attached in
    // its broken state so mutations still pend and every later durable
    // COMMIT fails loudly at its unit boundary.
    wal_->MarkBroken("cannot reset WAL after checkpoint: " + reset.message());
    flusher_lock.unlock();
    EnterReadOnly(reset);
    return reset;
  }
  flusher_lock.unlock();
  ++stats_.checkpoints;
  const uint64_t dur = MonotonicNanos() - t0;
  metrics_.GetHistogram("db.checkpoint")->Record(dur);
  events_.Record({TraceEvent::Kind::kCheckpoint, t0, dur, 0, 0, nullptr});
  return Status::OK();
}

Status Database::WalFlush() {
  if (txn_.active()) return Status::OK();
  Status unit = WalCommitUnit();
  // Every top-level boundary publishes an epoch — also on statement failure
  // (outside a transaction partial effects stay visible, matching the
  // documented single-thread semantics) and on non-durable Databases.
  AdvanceEpochBoundary();
  return unit;
}

void Database::AdvanceEpochBoundary() {
  const uint64_t published = epochs_.Advance();
  epoch_published_gauge_->store(static_cast<int64_t>(published),
                                std::memory_order_relaxed);
  // Fast path: nothing retired, no version-buffer images, no reader
  // pinned, and no stale lag to decay → the boundary cost stays the single
  // atomic increment plus three relaxed gauge touches. The min-pinned slot
  // scan runs only while it has something to observe (readers to measure
  // lag against, garbage to reclaim, or a nonzero lag to decay back to 0).
  const bool has_garbage =
      epochs_.has_retired() || epochs_.version_entries > 0;
  if (!has_garbage &&
      epochs_.readers_gauge->load(std::memory_order_relaxed) == 0 &&
      epochs_.lag_gauge->load(std::memory_order_relaxed) == 0) {
    return;
  }
  const uint64_t min_pinned = epochs_.MinPinned();
  epochs_.lag_gauge->store(
      min_pinned == UINT64_MAX ? 0
                               : static_cast<int64_t>(published - min_pinned),
      std::memory_order_relaxed);
  if (!has_garbage) return;
  epochs_.ReclaimBefore(min_pinned);
  uint64_t version_bytes = 0;
  if (epochs_.version_entries > 0) {
    uint64_t trimmed = 0;
    for (auto& [name, table] : catalog()) {
      trimmed += table->GcVersions(min_pinned);
      version_bytes += table->version_bytes();
    }
    if (trimmed != 0) {
      version_gc_rows_->fetch_add(trimmed, std::memory_order_relaxed);
    }
  }
  version_rows_gauge_->store(static_cast<int64_t>(epochs_.version_entries),
                             std::memory_order_relaxed);
  version_bytes_gauge_->store(static_cast<int64_t>(version_bytes),
                              std::memory_order_relaxed);
}

Status Database::WalCommitUnit() {
  if (wal_ == nullptr || wal_->pending_empty()) return Status::OK();
  Status s = wal_->CommitPending(next_id_);
  // A fail-stopped writer can never accept another unit: flip the whole
  // Database into read-only mode so later statements are rejected up front
  // with a clean kUnavailable instead of each discovering the broken log.
  if (!s.ok() && wal_->broken()) EnterReadOnly(s);
  return s;
}

void Database::WalLogDdl(std::string_view sql_text) {
  if (wal_ == nullptr || sql_text.empty()) return;
  wal_->PendDdl(sql_text);
}

// ---------------------------------------------------------------------------
// Graceful degradation

Database::Health Database::health() const {
  Health h;
  h.read_only = read_only_.load(std::memory_order_acquire);
  h.cause = read_only_cause_;
  h.flusher_stalled = WatchdogStalled(
      flusher_.joinable(), flusher_heartbeat_ns_, GroupCommitWindowUs(),
      &flusher_stall_reported_, flusher_stall_counter_, "flusher_stall");
  // A finished-but-unjoined background checkpoint made its progress; only
  // a thread still inside the snapshot write can be stalled.
  h.checkpoint_stalled = WatchdogStalled(
      checkpoint_running_ && !checkpoint_done_.load(std::memory_order_acquire),
      checkpoint_heartbeat_ns_, checkpoint_watchdog_window_us_,
      &checkpoint_stall_reported_, checkpoint_stall_counter_,
      "checkpoint_stall");
  return h;
}

int Database::GroupCommitWindowUs() const {
  return durability_options_.group_commit_window_us > 0
             ? durability_options_.group_commit_window_us
             : 2000;
}

bool Database::WatchdogStalled(bool running,
                               const std::atomic<uint64_t>& heartbeat_ns,
                               int64_t window_us, std::atomic<bool>* reported,
                               std::atomic<uint64_t>* counter,
                               const char* event) const {
  const uint64_t hb = heartbeat_ns.load(std::memory_order_acquire);
  const uint64_t budget = static_cast<uint64_t>(watchdog_stall_windows_) *
                          static_cast<uint64_t>(window_us) * 1000;
  const uint64_t now = MonotonicNanos();
  if (!running || hb == 0 || now - hb <= budget) {
    reported->store(false, std::memory_order_release);
    return false;
  }
  if (!reported->exchange(true, std::memory_order_acq_rel)) {
    counter->fetch_add(1, std::memory_order_relaxed);
    events_.Record({TraceEvent::Kind::kGovernance, hb, now - hb,
                    static_cast<uint64_t>(watchdog_stall_windows_),
                    static_cast<uint64_t>(window_us), event});
  }
  return true;
}

void Database::EnterReadOnly(const Status& cause) {
  if (read_only_) return;  // keep the first (root) cause
  read_only_ = true;
  read_only_cause_ = cause.message();
}

Status Database::ReadOnlyError(const std::string& action) const {
  return Status::Unavailable(
      action + " rejected: database is in read-only mode after a storage "
      "fault (" + read_only_cause_ + "); retry after TryHeal()");
}

Status Database::CheckWritable(const sql::Statement& stmt) const {
  if (!read_only_) return Status::OK();
  const char* action = nullptr;
  switch (stmt.kind) {
    // DDL always goes through the WAL when durability is open.
    case sql::Statement::Kind::kCreateTable:
      action = "CREATE TABLE";
      break;
    case sql::Statement::Kind::kCreateIndex:
      action = "CREATE INDEX";
      break;
    case sql::Statement::Kind::kCreateTrigger:
      action = "CREATE TRIGGER";
      break;
    case sql::Statement::Kind::kDrop:
      action = "DROP";
      break;
    // DML is rejected only against durable tables: engine scratch tables
    // (idlists, setup markers) bypass the WAL and must keep working so
    // reads — which stage intermediate ids — still run in degraded mode.
    case sql::Statement::Kind::kInsert: {
      const Table* t = FindTable(stmt.insert.table);
      if (t == nullptr || t->durable()) action = "INSERT";
      break;
    }
    case sql::Statement::Kind::kDelete: {
      const Table* t = FindTable(stmt.del.table);
      if (t == nullptr || t->durable()) action = "DELETE";
      break;
    }
    case sql::Statement::Kind::kUpdate: {
      const Table* t = FindTable(stmt.update.table);
      if (t == nullptr || t->durable()) action = "UPDATE";
      break;
    }
    // SELECT, EXPLAIN, CHECK INTEGRITY, and transaction control stay
    // available (a txn holding only scratch-table writes is legitimate).
    default:
      break;
  }
  if (action == nullptr) return Status::OK();
  return ReadOnlyError(action);
}

Status Database::ReopenFromDisk() {
  // No background work may straddle the rebuild: the checkpoint thread
  // writes the snapshot the probe below reads, the flusher dereferences
  // wal_.
  (void)CheckpointWait();
  // Probe first: recover the on-disk state into a scratch Database. Free
  // functions only (no Open), so the scratch never touches our flock. If
  // the fault is still active this fails without disturbing our readable
  // in-memory catalog.
  {
    Database probe;
    probe.data_dir_ = data_dir_;
    probe.durability_options_ = durability_options_;
    probe.vfs_ = vfs_;
    Status probed = probe.RecoverFromDir();
    // The probe opened its own writer on our WAL path; close it before we
    // reopen ours so the header/truncate below is the only writer.
    if (probe.wal_ != nullptr) {
      (void)probe.wal_->Close();
      probe.wal_ = nullptr;
      probe.txn_.AttachWal(nullptr);
    }
    probe.data_dir_.clear();
    if (!probed.ok()) return probed;
  }

  // The disk state recovers cleanly — rebuild this Database from it.
  // Publishing an empty catalog retires the old tables (statements pinned
  // before it finish on them) and the version bump invalidates every
  // cached plan. Recovery then publishes the tables one by one: reader
  // statements racing the rebuild may see a partial catalog — a documented
  // heal-window anomaly.
  {
    std::lock_guard<std::mutex> flusher_lock(flusher_mu_);
    wal_ = nullptr;
  }
  txn_.AttachWal(nullptr);
  PublishCatalog({});
  triggers_.clear();
  InvalidateStatementCache();
  next_id_ = 1;
  recovered_ = false;
  // Clear the gate BEFORE replaying: snapshot load re-executes CREATE
  // TRIGGER text through the Executor, which checks CheckWritable.
  read_only_ = false;
  read_only_cause_.clear();
  Status s = RecoverFromDir();
  if (!s.ok()) {
    // Half-recovered catalog: stay degraded with the new cause. Reads over
    // whatever loaded still work; writes stay rejected.
    EnterReadOnly(s);
    return s;
  }
  return Status::OK();
}

Status Database::TryHeal(int max_attempts) {
  if (data_dir_.empty()) {
    return Status::InvalidArgument("durability is not open");
  }
  if (!read_only_) return Status::OK();
  if (txn_.active()) {
    return Status::InvalidArgument(
        "cannot heal inside a transaction (roll back first)");
  }
  Status last = Status::OK();
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      // Exponential backoff, bounded by kMaxHealBackoffMs and interruptible
      // via the cancel token (slept in 1ms slices so a Cancel() from
      // another thread is honored within ~1ms). Each backoff is a
      // kGovernance trace span annotated with the attempt and planned wait.
      const int backoff_ms =
          std::min(1 << attempt, kMaxHealBackoffMs);
      const uint64_t t0 = MonotonicNanos();
      for (int slept = 0; slept < backoff_ms; ++slept) {
        if (cancel_token_.cancelled()) {
          events_.Record({TraceEvent::Kind::kGovernance, t0,
                          MonotonicNanos() - t0,
                          static_cast<uint64_t>(attempt),
                          static_cast<uint64_t>(backoff_ms), "heal_backoff"});
          return Status::Cancelled(
              "heal cancelled during backoff (attempt " +
              std::to_string(attempt) + " of " +
              std::to_string(max_attempts) + ")");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      events_.Record({TraceEvent::Kind::kGovernance, t0,
                      MonotonicNanos() - t0, static_cast<uint64_t>(attempt),
                      static_cast<uint64_t>(backoff_ms), "heal_backoff"});
    }
    ++stats_.heal_attempts;
    last = ReopenFromDisk();
    if (last.ok()) return Status::OK();
  }
  return Status::Unavailable(
      "heal failed after " + std::to_string(max_attempts) +
      " attempts, database remains read-only (" + last.message() + ")");
}

Status Database::Begin() {
  if (!txn_.active()) txn_start_ns_ = MonotonicNanos();
  txn_.Begin(next_id_);
  return Status::OK();
}

Status Database::Commit() {
  XUPD_RETURN_IF_ERROR(txn_.Commit());
  // The outermost commit makes the unit durable: flush its redo records.
  if (!txn_.active()) {
    Status unit = WalCommitUnit();
    AdvanceEpochBoundary();
    const uint64_t dur = MonotonicNanos() - txn_start_ns_;
    metrics_.GetHistogram("db.txn")->Record(dur);
    events_.Record({TraceEvent::Kind::kTxn, txn_start_ns_, dur, 1, 0,
                    nullptr});
    return unit;
  }
  return Status::OK();
}

Status Database::Rollback() {
  auto next_id = txn_.Rollback();
  if (!next_id.ok()) return next_id.status();
  next_id_ = next_id.value();
  if (!txn_.active()) {
    // Rolled-back state is a boundary too: rows un-deleted by undo carry
    // their restored metadata and must become visible to new pins.
    AdvanceEpochBoundary();
    const uint64_t dur = MonotonicNanos() - txn_start_ns_;
    metrics_.GetHistogram("db.txn")->Record(dur);
    events_.Record({TraceEvent::Kind::kTxn, txn_start_ns_, dur, 0, 0,
                    nullptr});
  }
  return Status::OK();
}

Status Database::Savepoint(const std::string& name) {
  if (!txn_.active()) {
    return Status::InvalidArgument(
        "SAVEPOINT requires an active transaction");
  }
  txn_.Begin(next_id_, name);
  return Status::OK();
}

Status Database::RollbackTo(const std::string& name) {
  auto next_id = txn_.RollbackTo(name);
  if (!next_id.ok()) return next_id.status();
  next_id_ = next_id.value();
  return Status::OK();
}

Status Database::Release(const std::string& name) {
  XUPD_RETURN_IF_ERROR(txn_.Release(name));
  // Releasing the outermost scope commits the unit — WalFlush also
  // publishes the epoch boundary.
  if (!txn_.active()) return WalFlush();
  return Status::OK();
}

Status Database::ConsumeFailpoint() {
  if (fail_after_statements_ < 0) return Status::OK();
  if (fail_after_statements_ == 0) {
    fail_after_statements_ = -1;
    return Status::Internal("injected failure");
  }
  --fail_after_statements_;
  return Status::OK();
}

Status Database::CheckDdlBarrier(const sql::Statement& stmt) const {
  if (txn_.active() && IsDdl(stmt)) {
    return Status::InvalidArgument(
        "DDL is not allowed inside a transaction (catalog changes are not "
        "undoable; commit or roll back first)");
  }
  return Status::OK();
}

void Database::set_prepared_cache_capacity(size_t capacity) {
  cache_capacity_ = capacity;
  while (cache_lru_.size() > cache_capacity_) {
    cache_index_.erase(cache_lru_.back().first);
    cache_lru_.pop_back();
  }
}

uint64_t Database::EffectiveDeadline(int64_t timeout_us) const {
  uint64_t deadline =
      timeout_us > 0 ? MonotonicNanos() + static_cast<uint64_t>(timeout_us) *
                                              1000
                     : 0;
  // An armed engine-op deadline bounds every statement of the op; the
  // earlier of the two wins.
  if (operation_deadline_ns_ != 0 &&
      (deadline == 0 || operation_deadline_ns_ < deadline)) {
    deadline = operation_deadline_ns_;
  }
  return deadline;
}

bool Database::GovernanceExempt(sql::Statement::Kind kind) {
  switch (kind) {
    // Resource-releasing and diagnostic statements must run even over
    // budget / past a deadline: COMMIT and ROLLBACK shrink the very
    // buffers the budgets meter, and SHOW / CHECK INTEGRITY / SET are how
    // an operator diagnoses and fixes an overloaded database.
    case sql::Statement::Kind::kCommit:
    case sql::Statement::Kind::kRollback:
    case sql::Statement::Kind::kRelease:
    case sql::Statement::Kind::kShow:
    case sql::Statement::Kind::kCheckIntegrity:
    case sql::Statement::Kind::kSet:
      return true;
    default:
      return false;
  }
}

Status Database::GovernanceAdmission(uint64_t deadline_ns) const {
  if (cancel_token_.cancelled()) {
    return Status::Cancelled(
        "statement cancelled via CancelToken (Reset() to resume)");
  }
  if (deadline_ns != 0 && MonotonicNanos() >= deadline_ns) {
    return Status::DeadlineExceeded(
        "statement deadline exceeded before execution (see "
        "Database::set_statement_timeout_us / SET STATEMENT_TIMEOUT)");
  }
  XUPD_RETURN_IF_ERROR(mem_.CheckHard());
  return mem_.CheckAdmission();
}

Result<ResultSet> Database::RunStatement(const sql::Statement& stmt,
                                         const std::vector<Value>* params,
                                         std::string_view sql_text,
                                         PlanCacheSlot* slot,
                                         uint64_t deadline_ns) {
  // DDL invalidation happens inside the Executor, the choke point shared
  // by all entry paths.
  const bool exempt = GovernanceExempt(stmt.kind);
  // Snapshot stats when governance could kill this statement, so a killed
  // statement's slow-log entry carries the partial-work delta even with
  // the slow log's threshold disabled.
  const bool governed =
      !exempt && (deadline_ns != 0 || cancel_at_pull_armed_ ||
                  mem_.soft_budget() != 0 || mem_.hard_budget() != 0 ||
                  mem_.wal_pending_limit() != 0);
  const bool slow_enabled = slow_statement_threshold_us_ >= 0;
  Stats before;
  if (slow_enabled || governed) before = stats_;
  const uint64_t t0 = MonotonicNanos();
  // Root (or nested, inside a trigger cascade) span of the statement: every
  // engine op, WAL unit and fsync recorded below inherits it through the
  // thread-local trace context.
  trace::SpanScope stmt_span;
  Executor exec(this, params, sql_text);
  exec.set_deadline(deadline_ns);
  Status gate = exempt ? Status::OK() : GovernanceAdmission(deadline_ns);
  auto result = gate.ok() ? exec.Run(stmt, slot) : Result<ResultSet>(gate);
  Status wal = WalFlush();
  const uint64_t dur = MonotonicNanos() - t0;
  stmt_hists_[StmtKindSlot(stmt.kind)]->Record(dur);
  *exec_ns_ += dur;
  TraceEvent stmt_ev{TraceEvent::Kind::kStatement, t0, dur,
                     static_cast<uint64_t>(stmt.kind), 0, nullptr};
  stmt_span.Annotate(&stmt_ev);
  events_.Record(stmt_ev);
  // Classify governance kills: count them, and force a slow-log entry with
  // the cause so operators can see WHAT was killed and how far it got.
  const char* cause = nullptr;
  if (!result.ok()) {
    switch (result.status().code()) {
      case StatusCode::kCancelled:
        cause = "cancelled";
        stmt_cancelled_->fetch_add(1, std::memory_order_relaxed);
        break;
      case StatusCode::kDeadlineExceeded:
        cause = "deadline_exceeded";
        stmt_deadline_exceeded_->fetch_add(1, std::memory_order_relaxed);
        break;
      case StatusCode::kResourceExhausted:
        cause = "resource_exhausted";
        stmt_resource_exhausted_->fetch_add(1, std::memory_order_relaxed);
        if (!gate.ok()) stmt_shed_->fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        break;
    }
  }
  if ((slow_enabled && dur >= slow_statement_threshold_us_ * 1000.0) ||
      cause != nullptr) {
    SlowStatement slow;
    slow.sql = std::string(sql_text);
    slow.duration_ns = dur;
    if (slow_enabled || governed) slow.delta = stats_.Delta(before);
    if (exec.last_plan() != nullptr) slow.plan = PlanToString(*exec.last_plan());
    if (cause != nullptr) slow.cause = cause;
    if (slow_log_.size() >= slow_log_capacity_) {
      slow_log_.erase(slow_log_.begin());
    }
    slow_log_.push_back(std::move(slow));
    ++stats_.slow_statements;
  }
  if (!result.ok()) return result;
  if (!wal.ok()) return wal;
  return result;
}

Status Database::Execute(std::string_view sql_text) {
  return Execute(sql_text, statement_timeout_us());
}

Status Database::Execute(std::string_view sql_text, int64_t timeout_us) {
  auto result = ExecuteQuery(sql_text, timeout_us);
  if (!result.ok()) return result.status();
  return Status::OK();
}

Result<ResultSet> Database::ExecuteQuery(std::string_view sql_text) {
  return ExecuteQuery(sql_text, statement_timeout_us());
}

Result<ResultSet> Database::ExecuteQuery(std::string_view sql_text,
                                         int64_t timeout_us) {
  ++stats_.statements;
  const uint64_t deadline_ns = EffectiveDeadline(timeout_us);
  SpinFor(statement_latency_us_, deadline_ns);
  ++stats_.sql_parses;
  auto stmt = sql::ParseSql(sql_text);
  if (!stmt.ok()) return stmt.status();
  return RunStatement(stmt.value(), nullptr, sql_text, nullptr, deadline_ns);
}

Result<StatementHandle> Database::Prepare(std::string_view sql_text,
                                          bool cacheable) {
  auto it = cache_index_.find(sql_text);
  if (it != cache_index_.end()) {
    ++stats_.prepared_hits;
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
    return it->second->second;
  }
  ++stats_.prepared_misses;
  ++stats_.sql_parses;
  auto stmt = sql::ParseSql(sql_text);
  if (!stmt.ok()) return stmt.status();
  auto prepared = std::make_shared<PreparedStatement>();
  prepared->sql = std::string(sql_text);
  prepared->param_count = stmt.value().param_count;
  prepared->stmt = std::move(stmt).value();
  StatementHandle handle = std::move(prepared);
  // DDL is never cached: executing it would invalidate its own entry.
  if (cacheable && !IsDdl(handle->stmt) && cache_capacity_ > 0) {
    cache_lru_.emplace_front(handle->sql, handle);
    cache_index_[handle->sql] = cache_lru_.begin();
    if (cache_lru_.size() > cache_capacity_) {
      cache_index_.erase(cache_lru_.back().first);
      cache_lru_.pop_back();
    }
  }
  return handle;
}

Status Database::ExecutePrepared(const StatementHandle& handle,
                                 const std::vector<Value>& params) {
  auto result = ExecuteQueryPrepared(handle, params);
  if (!result.ok()) return result.status();
  return Status::OK();
}

Result<ResultSet> Database::ExecuteQueryPrepared(
    const StatementHandle& handle, const std::vector<Value>& params) {
  if (handle == nullptr) {
    return Status::InvalidArgument("null prepared statement handle");
  }
  if (static_cast<int>(params.size()) != handle->param_count) {
    return Status::InvalidArgument(
        "bound " + std::to_string(params.size()) + " parameters, statement has " +
        std::to_string(handle->param_count));
  }
  ++stats_.statements;
  const uint64_t deadline_ns = EffectiveDeadline(statement_timeout_us());
  SpinFor(statement_latency_us_, deadline_ns);
  return RunStatement(handle->stmt, &params, handle->sql,
                      &handle->plan_slot, deadline_ns);
}

Status Database::ExecuteBound(std::string_view sql,
                              const std::vector<Value>& params,
                              bool cacheable) {
  auto handle = Prepare(sql, cacheable);
  if (!handle.ok()) return handle.status();
  return ExecutePrepared(handle.value(), params);
}

Result<ResultSet> Database::ExecuteQueryBound(std::string_view sql,
                                              const std::vector<Value>& params,
                                              bool cacheable) {
  auto handle = Prepare(sql, cacheable);
  if (!handle.ok()) return handle.status();
  return ExecuteQueryPrepared(handle.value(), params);
}

Result<Table*> Database::CreateTableDirect(TableSchema schema, bool durable) {
  if (read_only_ && durable) return ReadOnlyError("CREATE TABLE");
  if (FindTable(schema.name()) != nullptr) {
    return Status::AlreadyExists("table '" + schema.name() + "' already exists");
  }
  std::string key = schema.name();
  auto table = std::make_shared<Table>(std::move(schema),
                                       durable ? &txn_ : nullptr);
  table->set_durable(durable);
  table->set_interner(&interner_);
  table->set_epoch_manager(&epochs_);
  table->set_accountant(&mem_);
  Table* raw = table.get();
  Catalog next = catalog();
  next.emplace(std::move(key), std::move(table));
  PublishCatalog(std::move(next));
  return raw;
}

Status Database::InsertDirect(Table* table, Row row) {
  if (read_only_ && table->durable()) return ReadOnlyError("INSERT");
  auto rowid = table->Insert(std::move(row));
  if (!rowid.ok()) return rowid.status();
  ++stats_.rows_inserted;
  return Status::OK();
}

Table* Database::FindTable(std::string_view name) {
  const Catalog& tables = catalog();
  auto it = tables.find(name);
  return it == tables.end() ? nullptr : it->second.get();
}

const Table* Database::FindTable(std::string_view name) const {
  const Catalog& tables = catalog();
  auto it = tables.find(name);
  return it == tables.end() ? nullptr : it->second.get();
}

std::vector<std::string> Database::TableNames() const {
  const Catalog& tables = catalog();
  std::vector<std::string> out;
  out.reserve(tables.size());
  for (const auto& [key, table] : tables) {
    out.push_back(table->schema().name());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Group-commit flusher (kBatched durability)

void Database::StartFlusher() {
  if (flusher_.joinable()) return;
  flusher_stop_ = false;
  // Seed the heartbeat so the watchdog measures from thread start, not
  // from a stale stamp left by a previous flusher incarnation.
  flusher_heartbeat_ns_.store(MonotonicNanos(), std::memory_order_release);
  flusher_stall_reported_.store(false, std::memory_order_relaxed);
  flusher_ = std::thread([this] { FlusherLoop(); });
}

void Database::StopFlusher() {
  if (!flusher_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(flusher_mu_);
    flusher_stop_ = true;
  }
  flusher_cv_.notify_all();
  flusher_.join();
}

void Database::FlusherLoop() {
  trace::SetCurrentThreadName("wal-flusher");
  const int window_us = GroupCommitWindowUs();
  // Occupancy of the group-commit window: how much of each period the
  // flusher spent inside Sync (100 ≈ fsync saturates the window and
  // commits start seeing un-amortized latency).
  Histogram* occupancy = metrics_.GetHistogram("wal.window_occupancy_pct");
  std::unique_lock<std::mutex> lock(flusher_mu_);
  while (!flusher_stop_) {
    flusher_cv_.wait_for(lock, std::chrono::microseconds(window_us));
    if (flusher_stop_) break;
    // flusher_mu_ (held) keeps wal_ stable across checkpoint/heal swaps;
    // Sync itself no-ops when nothing is dirty. A sync failure is left for
    // the writer to discover at its next commit (MarkBroken happened
    // inside Sync); the flusher never flips the Database read-only from
    // off-thread.
    if (wal_ != nullptr && !wal_->broken()) {
      const uint64_t t0 = MonotonicNanos();
      Status synced = wal_->Sync();
      const uint64_t sync_ns = MonotonicNanos() - t0;
      occupancy->Record(sync_ns * 100 / (static_cast<uint64_t>(window_us) *
                                         1000));
      // Heartbeat only on a successful fsync: a broken or wedged WAL stops
      // the stamps, and the watchdog reports the stall after K windows.
      if (synced.ok()) {
        flusher_heartbeat_ns_.store(MonotonicNanos(),
                                    std::memory_order_release);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Off-thread checkpoint

Status Database::CheckpointBackground() {
  CheckpointCapture capture;
  XUPD_RETURN_IF_ERROR(CaptureCheckpoint(/*reset_wal=*/false, &capture));
  // Pin the captured boundary like a reader: the writer keeps committing
  // past it while the background thread reads the pinned epoch's view, and
  // reclamation holds anything the pin can still reach — slab buffers, and
  // every captured table a later DROP retires. Pin() returns the captured
  // epoch — only this thread advances epochs.
  const int slot = epochs_.AcquireSlot();
  if (slot < 0) {
    return Status::Unavailable(
        "no epoch slot free for a background checkpoint (all reader "
        "sessions in use)");
  }
  epochs_.Pin(slot);
  checkpoint_slot_ = slot;
  checkpoint_running_ = true;
  checkpoint_status_ = Status::OK();
  checkpoint_done_.store(false, std::memory_order_release);
  checkpoint_stall_reported_.store(false, std::memory_order_relaxed);
  checkpoint_heartbeat_ns_.store(MonotonicNanos(), std::memory_order_release);

  // Writer-side scheduling span (kCheckpoint a=2): the background thread's
  // snapshot-write span (a=1) adopts its handoff, so the trace carries a
  // writer -> checkpoint-thread flow edge.
  trace::SpanScope schedule_span;
  {
    const uint64_t sched_ns = MonotonicNanos();
    TraceEvent ev{TraceEvent::Kind::kCheckpoint, sched_ns, 0, 2, 0,
                  "schedule"};
    schedule_span.Annotate(&ev);
    events_.Record(ev);
  }
  const trace::Handoff bg_handoff = schedule_span.handoff();

  // The thread reads only the capture (its tables stay alive under the
  // pin) and thread-safe Database state (metrics, events, heartbeats).
  checkpoint_thread_ = std::thread([this, capture = std::move(capture),
                                    bg_handoff] {
    trace::SetCurrentThreadName("checkpoint");
    trace::SpanScope snapshot_span{bg_handoff};
    const uint64_t t0 = MonotonicNanos();
    checkpoint_heartbeat_ns_.store(t0, std::memory_order_release);
    Status s = WriteSnapshot(*this, vfs_, SnapshotPath(data_dir_),
                             SnapshotTmpPath(data_dir_), capture);
    checkpoint_heartbeat_ns_.store(MonotonicNanos(), std::memory_order_release);
    checkpoint_status_ = s;
    if (s.ok()) {
      const uint64_t dur = MonotonicNanos() - t0;
      metrics_.GetHistogram("db.checkpoint")->Record(dur);
      TraceEvent ev{TraceEvent::Kind::kCheckpoint, t0, dur, 1, 0, "snapshot"};
      snapshot_span.Annotate(&ev);
      events_.Record(ev);
    }
    // Finished-but-unjoined is not a stall: the watchdog ignores the
    // heartbeat once this flips, even before CheckpointWait runs.
    checkpoint_done_.store(true, std::memory_order_release);
  });
  return Status::OK();
}

Status Database::CheckpointWait() {
  if (!checkpoint_running_) return Status::OK();
  checkpoint_thread_.join();
  checkpoint_running_ = false;
  checkpoint_done_.store(false, std::memory_order_release);
  checkpoint_stall_reported_.store(false, std::memory_order_relaxed);
  epochs_.Unpin(checkpoint_slot_);
  epochs_.ReleaseSlot(checkpoint_slot_);
  checkpoint_slot_ = -1;
  // A background-checkpoint failure is benign — the WAL was not truncated
  // and the previous snapshot (or none) plus the full WAL recover every
  // committed unit; even a renamed-but-unsynced new snapshot is consistent
  // because its wal_offset only skips records it already contains. No
  // fail-stop: the caller may simply retry.
  if (checkpoint_status_.ok()) ++stats_.checkpoints;
  return checkpoint_status_;
}

// ---------------------------------------------------------------------------
// Reader sessions

Result<std::unique_ptr<ReaderSession>> Database::OpenReaderSession() {
  const int slot = epochs_.AcquireSlot();
  if (slot < 0) {
    return Status::Unavailable(
        "all " + std::to_string(EpochManager::kMaxReaders) +
        " reader session slots are in use; retry after an open session "
        "closes (sessions release their slot on destruction)");
  }
  reader_sessions_gauge_->fetch_add(1, std::memory_order_relaxed);
  return std::unique_ptr<ReaderSession>(new ReaderSession(this, slot));
}

ReaderSession::~ReaderSession() {
  Unpin();
  db_->epochs_.ReleaseSlot(slot_);
  db_->reader_sessions_gauge_->fetch_sub(1, std::memory_order_relaxed);
}

uint64_t ReaderSession::PinSnapshot() {
  if (explicit_pin_) return pin_epoch_;
  pin_epoch_ = db_->epochs_.Pin(slot_);
  explicit_pin_ = true;
  if (db_->epochs_.readers_gauge != nullptr) {
    db_->epochs_.readers_gauge->fetch_add(1, std::memory_order_relaxed);
  }
  return pin_epoch_;
}

void ReaderSession::Unpin() {
  if (!explicit_pin_) return;
  db_->epochs_.Unpin(slot_);
  explicit_pin_ = false;
  pin_epoch_ = 0;
  if (db_->epochs_.readers_gauge != nullptr) {
    db_->epochs_.readers_gauge->fetch_sub(1, std::memory_order_relaxed);
  }
}

Result<ResultSet> ReaderSession::ExecuteQuery(std::string_view sql) {
  return Run(sql, nullptr);
}

Result<ResultSet> ReaderSession::ExecuteQueryBound(
    std::string_view sql, const std::vector<Value>& params) {
  return Run(sql, &params);
}

Result<ResultSet> ReaderSession::Run(std::string_view sql_text,
                                     const std::vector<Value>* params) {
  ++stats_.statements;
  // Parse, or reuse this session's cached parse of the same text.
  auto it = plan_cache_.find(sql_text);
  if (it == plan_cache_.end()) {
    ++stats_.sql_parses;
    auto parsed = sql::ParseSql(sql_text);
    if (!parsed.ok()) return parsed.status();
    CachedPlan entry;
    entry.param_count = parsed.value().param_count;
    entry.stmt = std::move(parsed).value();
    it = plan_cache_.emplace(std::string(sql_text), std::move(entry)).first;
  }
  CachedPlan& cached = it->second;

  // Only SELECT and plain EXPLAIN SELECT: everything else mutates, needs
  // the writer's transaction machinery, or reports writer-private state.
  const sql::Statement* target = &cached.stmt;
  bool explain = false;
  if (target->kind == sql::Statement::Kind::kExplain) {
    if (target->explain_analyze ||
        target->explain->kind != sql::Statement::Kind::kSelect) {
      return Status::InvalidArgument(
          "reader sessions accept only SELECT and EXPLAIN SELECT");
    }
    explain = true;
    target = target->explain.get();
  } else if (target->kind != sql::Statement::Kind::kSelect) {
    return Status::InvalidArgument(
        "reader sessions accept only SELECT and EXPLAIN SELECT");
  }
  const size_t bound = params != nullptr ? params->size() : 0;
  if (static_cast<int>(bound) != cached.param_count) {
    return Status::InvalidArgument(
        "bound " + std::to_string(bound) + " parameters, statement has " +
        std::to_string(cached.param_count));
  }

  // Pin before resolving any name: the pin keeps every catalog version and
  // table this statement reaches alive until it unpins (DDL retires them
  // through the epoch manager), and row visibility reads at it. A cached
  // plan validated against the catalog version holds tables that are
  // either still in the catalog or retired no earlier than this pin.
  struct StatementPin {
    ReaderSession* session;
    bool owned;  ///< false inside an explicit PinSnapshot.
    ~StatementPin() {
      if (owned) session->Unpin();
    }
  } statement_pin{this, !explicit_pin_};
  const uint64_t pin = PinSnapshot();
  std::shared_ptr<const PlannedStatement> plan;
  if (cached.plan != nullptr && cached.version == db_->catalog_version()) {
    ++stats_.plan_cache_hits;
    plan = cached.plan;
  }
  if (plan == nullptr) {
    // Read the version first: DDL bumps it after changing the catalog, so a
    // plan built over a newer catalog is at worst rebuilt once more.
    const uint64_t version = db_->catalog_version();
    Planner planner(db_, nullptr);
    planner.set_allow_index_probes(false);
    auto planned = planner.Plan(*target);
    if (!planned.ok()) return planned.status();
    ++stats_.plans_built;
    plan = std::move(planned).value();
    cached.plan = plan;
    cached.version = version;
  }
  if (explain) {
    ResultSet out;
    out.columns = {"plan"};
    for (const std::string& line : SplitChar(PlanToString(*plan), '\n')) {
      out.rows.push_back({Value::Str(line)});
    }
    return out;
  }

  std::vector<std::unique_ptr<ResultSet>> cte_store(
      static_cast<size_t>(plan->cte_slot_count));
  ExecContext::SubqueryMemo memo;
  ExecContext ctx;
  ctx.db = db_;
  ctx.stats = &stats_;
  ctx.read_epoch = pin;
  ctx.params = params;
  ctx.cte_values = &cte_store;
  ctx.subquery_memo = &memo;
  // Governance for readers: the statement timeout (read atomically — the
  // writer thread owns the setting) and the shared cancel token. The
  // cancel-at-pull hook and engine-op deadline are writer-thread state and
  // are NOT consulted here.
  const int64_t timeout_us = db_->statement_timeout_us();
  ctx.deadline_ns =
      timeout_us > 0
          ? MonotonicNanos() + static_cast<uint64_t>(timeout_us) * 1000
          : 0;
  ctx.cancel = db_->cancel_token_.flag();
  ctx.mem = &db_->mem_;
  return ExecutePlannedSelect(*plan->select, ctx);
}

std::string ResultSet::ToString(size_t max_rows) const {
  std::string out = Join(columns, " | ") + "\n";
  size_t shown = 0;
  for (const Row& row : rows) {
    if (shown++ >= max_rows) {
      out += "... (" + std::to_string(rows.size()) + " rows)\n";
      break;
    }
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += " | ";
      out += row[i].ToString();
    }
    out += "\n";
  }
  return out;
}

}  // namespace xupd::rdb
