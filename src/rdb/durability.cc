#include "rdb/durability.h"

#include <algorithm>
#include <chrono>

#include "rdb/database.h"
#include "rdb/snapshot.h"

namespace xupd::rdb {

namespace {

/// What recovery found on disk: the WAL epoch to continue, where the WAL's
/// committed prefix ends and the table dictionary of that prefix, and
/// whether there was any state at all.
struct DiskState {
  uint64_t epoch = 1;
  WalReplayResult replay;
  bool found = false;
};

/// Loads the snapshot under `dir` into `db` and replays the WAL's committed
/// prefix on top. Reads the files only: the heal probe runs it against a
/// scratch Database while the live one keeps serving reads.
Result<DiskState> LoadDiskState(Database* db, Vfs* vfs,
                                const std::string& dir) {
  DiskState out;
  uint64_t wal_offset = 0;
  if (vfs->Exists(SnapshotPath(dir))) {
    XUPD_ASSIGN_OR_RETURN(SnapshotLoadInfo loaded,
                          LoadSnapshot(db, vfs, SnapshotPath(dir)));
    out.epoch = loaded.epoch;
    wal_offset = loaded.wal_offset;
    out.found = true;
  }
  if (vfs->Exists(WalPath(dir))) {
    XUPD_ASSIGN_OR_RETURN(
        out.replay, ReplayWal(db, vfs, WalPath(dir), out.epoch, wal_offset));
  }
  if (out.replay.valid_bytes < wal_offset) {
    // The snapshot (written by a background checkpoint) contains every
    // commit up to wal_offset, but the WAL's valid prefix ends short of
    // that — a synced region was lost or corrupted. Resuming appends at
    // valid_bytes would alias NEW commits into the byte range the next
    // recovery skips as snapshot-covered, silently dropping them; fail
    // loudly instead.
    return Status::Internal(
        "WAL valid prefix (" + std::to_string(out.replay.valid_bytes) +
        " bytes) ends before the snapshot's recorded offset (" +
        std::to_string(wal_offset) + "): a synced WAL region was lost");
  }
  out.found = out.found || out.replay.applied_records > 0;
  return out;
}

}  // namespace

Durability::Durability(Database* db)
    : db_(db),
      flusher_watchdog_(db->metrics().Counter("watchdog.flusher_stalls"),
                        "flusher_stall"),
      checkpoint_watchdog_(
          db->metrics().Counter("watchdog.checkpoint_stalls"),
          "checkpoint_stall") {}

Status Durability::Open(const std::string& dir,
                        const DurabilityOptions& options) {
  if (wal_ != nullptr) {
    return Status::InvalidArgument("durability is already open");
  }
  if (!db_->catalog().empty() || db_->txn_.active()) {
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

  // Exclusive directory lock: two writers on one WAL would truncate and
  // overwrite each other's committed frames with no error until the next
  // recovery hits a CRC mismatch. flock conflicts across processes AND
  // across two Database instances in one process; released with this
  // component.
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
  dir_ = dir;
  options_ = options;
  options_.group_commit_window_us = std::max(options.group_commit_window_us, 1);

  // A crash (or ENOSPC) between a checkpoint's temp-file write and its
  // rename leaves an orphan temp snapshot; clean it up here so it cannot
  // accumulate in the data dir forever.
  if (vfs_->Exists(SnapshotTmpPath(dir))) {
    (void)vfs_->Remove(SnapshotTmpPath(dir));
  }

  Status recovered = RecoverFromDir();
  if (!recovered.ok()) {
    // Restore the documented fresh-Database precondition: a half-loaded
    // snapshot or half-replayed WAL must not linger as a partial catalog
    // the caller could mistake for usable in-memory state.
    Reset();
    dir_.clear();
    lock_file_ = nullptr;
  }
  return recovered;
}

void Durability::Close(bool commit_pending) {
  // The checkpoint thread reads the tables the Database is about to free.
  (void)CheckpointWait();
  if (wal_ == nullptr) return;
  if (commit_pending) (void)CommitUnit();
  (void)wal_->Close();
}

Status Durability::RecoverFromDir() {
  const uint64_t t0 = MonotonicNanos();
  XUPD_ASSIGN_OR_RETURN(DiskState disk, LoadDiskState(db_, vfs_, dir_));
  db_->stats_.recovery_replayed += disk.replay.applied_records;
  recovered_ = disk.found;
  XUPD_RETURN_IF_ERROR(OpenWriter(disk.epoch, disk.replay.valid_bytes,
                                  &disk.replay.table_ids));
  // Everything loaded so far belongs to the pre-boundary epoch; publish the
  // first post-recovery boundary so reader pins see the recovered state.
  db_->epochs_.Advance();
  const uint64_t dur = MonotonicNanos() - t0;
  db_->metrics().GetHistogram("db.recovery")->Record(dur);
  db_->events().Record({TraceEvent::Kind::kRecovery, t0, dur,
                        disk.replay.applied_records, 0, nullptr});
  return Status::OK();
}

Status Durability::OpenWriter(
    uint64_t epoch, uint64_t valid_bytes,
    const std::vector<std::pair<std::string, uint16_t>>* table_ids) {
  const WalSinks sinks{&db_->stats_,    &db_->mem_,     &fail_,
                       &db_->metrics(), &db_->events(), &flusher_watchdog_};
  XUPD_ASSIGN_OR_RETURN(wal_, WalWriter::Open(vfs_, WalPath(dir_), epoch,
                                              valid_bytes, options_, sinks,
                                              table_ids));
  db_->txn_.AttachWal(wal_.get());
  return Status::OK();
}

void Durability::Reset() {
  // The writer (and with it its flusher) goes before the fail-stop state
  // clears, so no stale flusher can trip the fresh state.
  db_->txn_.AttachWal(nullptr);
  wal_ = nullptr;
  db_->ResetCatalog();
  recovered_ = false;
  fail_.Clear();
}

Status Durability::CommitUnit() {
  if (wal_ == nullptr || wal_->pending_empty()) return Status::OK();
  return wal_->CommitPending(db_->next_id_);
}

void Durability::LogDdl(std::string_view sql_text) {
  if (wal_ == nullptr || sql_text.empty()) return;
  wal_->PendDdl(sql_text);
}

// ---------------------------------------------------------------------------
// Checkpoints

Status Durability::Capture(bool reset_wal, CheckpointCapture* out) {
  if (wal_ == nullptr) {
    return Status::InvalidArgument("durability is not open");
  }
  if (read_only()) return ReadOnlyError("checkpoint");
  if (db_->txn_.active()) {
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
  XUPD_RETURN_IF_ERROR(CommitUnit());
  // Everything the snapshot will claim (bytes below wal_offset) must be
  // power-loss durable before the offset is stamped: under kBatched there
  // may be acknowledged-but-unsynced units.
  if (!reset_wal) XUPD_RETURN_IF_ERROR(wal_->Sync());
  // Publish the boundary the snapshot captures. Only this (writer) thread
  // advances epochs, so nothing commits between here and the WAL reset of
  // a blocking checkpoint.
  db_->AdvanceEpochBoundary();
  out->pin_epoch = db_->epochs_.current();
  out->next_id = db_->next_id_;
  out->wal_offset = reset_wal ? 0 : wal_->file_size();
  out->epoch = reset_wal ? wal_->epoch() + 1 : wal_->epoch();
  for (const auto& [name, table] : db_->catalog()) {
    if (!table->durable()) continue;
    CheckpointCapture::TableImage& image = out->tables.emplace_back();
    image.table = table.get();
    image.slot_count = table->SnapshotRowCount();
    for (const auto& index : table->indexes()) {
      image.indexes.emplace_back(index->name(), index->column());
    }
  }
  for (const auto& trigger : db_->triggers_) {
    out->trigger_sql.push_back(trigger.sql);
  }
  return Status::OK();
}

Status Durability::Checkpoint() {
  CheckpointCapture capture;
  XUPD_RETURN_IF_ERROR(Capture(/*reset_wal=*/true, &capture));
  // Inline on the writer thread: it is the only thread that retires
  // storage, so the captured epoch needs no reader slot.
  const uint64_t t0 = MonotonicNanos();
  bool renamed = false;
  Status snap = WriteSnapshot(*db_, vfs_, SnapshotPath(dir_),
                              SnapshotTmpPath(dir_), capture, &renamed);
  if (!snap.ok()) {
    // Fail-stop only when the new-epoch snapshot is already visible (the
    // failure hit the post-rename directory fsync): the still-open
    // old-epoch writer would otherwise accept commits that the next
    // recovery silently ignores. A pre-rename failure (e.g. transient
    // ENOSPC on the temp file) leaves old snapshot + WAL fully consistent,
    // so the writer keeps going and the checkpoint can simply be retried.
    if (renamed) {
      fail_.Trip("checkpoint failed after the new snapshot became visible: " +
                 snap.message());
    }
    return snap;
  }
  // The snapshot now contains every WAL record; reset the log to the new
  // epoch. A crash between the rename above and this reset leaves an
  // old-epoch WAL that recovery recognizes as contained and ignores.
  Status reset = wal_->Close();
  if (reset.ok()) reset = OpenWriter(capture.epoch, 0);
  if (!reset.ok()) {
    // Same fail-stop: the snapshot is durable up to this point, but the
    // log cannot accept new units. The (closed) writer stays attached, so
    // mutations still pend and every later durable COMMIT fails loudly at
    // its unit boundary.
    fail_.Trip("cannot reset WAL after checkpoint: " + reset.message());
    return reset;
  }
  ++db_->stats_.checkpoints;
  const uint64_t dur = MonotonicNanos() - t0;
  db_->metrics().GetHistogram("db.checkpoint")->Record(dur);
  db_->events().Record({TraceEvent::Kind::kCheckpoint, t0, dur, 0, 0,
                        nullptr});
  return Status::OK();
}

Status Durability::CheckpointBackground() {
  CheckpointCapture capture;
  XUPD_RETURN_IF_ERROR(Capture(/*reset_wal=*/false, &capture));
  // Pin the captured boundary like a reader: the writer keeps committing
  // past it while the background thread reads the pinned epoch's view, and
  // reclamation holds anything the pin can still reach — slab buffers, and
  // every captured table a later DROP retires. Pin() returns the captured
  // epoch — only this thread advances epochs.
  EpochManager& epochs = db_->epochs_;
  const int slot = epochs.AcquireSlot();
  if (slot < 0) {
    return Status::Unavailable(
        "no epoch slot free for a background checkpoint (all reader "
        "sessions in use)");
  }
  epochs.Pin(slot);
  // Until the serializer has read the slots, a durable slot the writer
  // reuses parks its dead image for it.
  epochs.capture_open.store(true, std::memory_order_relaxed);
  checkpoint_slot_ = slot;
  checkpoint_running_ = true;
  checkpoint_status_ = Status::OK();
  checkpoint_watchdog_.Start();

  // Writer-side scheduling span (kCheckpoint a=2): the background thread's
  // snapshot-write span (a=1) adopts its handoff, so the trace carries a
  // writer -> checkpoint-thread flow edge.
  trace::SpanScope schedule_span;
  TraceEvent schedule{TraceEvent::Kind::kCheckpoint, MonotonicNanos(), 0, 2,
                      0, "schedule"};
  schedule_span.Annotate(&schedule);
  db_->events().Record(schedule);
  const trace::Handoff bg_handoff = schedule_span.handoff();

  // The thread reads only the capture (its tables stay alive under the
  // pin) and thread-safe state (metrics, events, the watchdog).
  checkpoint_thread_ = std::thread([this, capture = std::move(capture),
                                    bg_handoff, slot] {
    trace::SetCurrentThreadName("checkpoint");
    trace::SpanScope snapshot_span{bg_handoff};
    const uint64_t t0 = MonotonicNanos();
    checkpoint_watchdog_.Beat();
    // Once the slots are read — before the file write and its fsyncs —
    // close the capture and drop the pin rather than wait for the join,
    // so slot reuse and reclamation resume. Idempotent: it runs again
    // after a serializer that failed before reading every slot.
    auto close_capture = [this, slot] {
      db_->epochs_.capture_open.store(false, std::memory_order_release);
      db_->epochs_.Unpin(slot);
    };
    Status s = WriteSnapshot(*db_, vfs_, SnapshotPath(dir_),
                             SnapshotTmpPath(dir_), capture, nullptr,
                             close_capture);
    close_capture();
    checkpoint_status_ = s;
    if (s.ok()) {
      const uint64_t dur = MonotonicNanos() - t0;
      db_->metrics().GetHistogram("db.checkpoint")->Record(dur);
      TraceEvent ev{TraceEvent::Kind::kCheckpoint, t0, dur, 1, 0, "snapshot"};
      snapshot_span.Annotate(&ev);
      db_->events().Record(ev);
    }
    // Finished-but-unjoined is not a stall.
    checkpoint_watchdog_.Stop();
  });
  return Status::OK();
}

Status Durability::CheckpointWait() {
  if (!checkpoint_running_) return Status::OK();
  checkpoint_thread_.join();
  checkpoint_running_ = false;
  db_->epochs_.ReleaseSlot(checkpoint_slot_);
  checkpoint_slot_ = -1;
  // A background-checkpoint failure is benign — the WAL was not truncated
  // and the previous snapshot (or none) plus the full WAL recover every
  // committed unit; even a renamed-but-unsynced new snapshot is consistent
  // because its wal_offset only skips records it already contains. No
  // fail-stop: the caller may simply retry.
  if (checkpoint_status_.ok()) ++db_->stats_.checkpoints;
  return checkpoint_status_;
}

// ---------------------------------------------------------------------------
// Health and healing

Durability::Health Durability::health() const {
  Health h;
  h.read_only = fail_.tripped();
  h.cause = fail_.cause();
  h.flusher_stalled = flusher_watchdog_.Stalled(
      stall_windows_, options_.group_commit_window_us, &db_->events());
  h.checkpoint_stalled = checkpoint_watchdog_.Stalled(
      stall_windows_, checkpoint_window_us_, &db_->events());
  return h;
}

Status Durability::Reopen() {
  // No background work may straddle the rebuild: the checkpoint thread
  // writes the snapshot the probe below reads.
  (void)CheckpointWait();
  // Probe first: recover the on-disk state into a scratch Database. It
  // reads the files and opens no writer, so unreadable disk state fails
  // here without disturbing this Database's read-serving catalog.
  {
    Database probe;
    XUPD_RETURN_IF_ERROR(LoadDiskState(&probe, vfs_, dir_).status());
  }
  // The disk state recovers cleanly — rebuild this Database from it.
  // Publishing an empty catalog retires the old tables (statements pinned
  // before it finish on them) and the version bump invalidates every
  // cached plan. Recovery then publishes the tables one by one: reader
  // statements racing the rebuild may see a partial catalog, or miss a row
  // whose tombstoned slot the replay refills — a documented heal-window
  // anomaly. The reset clears the fail-stop state BEFORE replaying:
  // snapshot load re-executes CREATE TRIGGER text through the Executor,
  // which checks CheckWritable.
  Reset();
  Status s = RecoverFromDir();
  // A fault that persists fails the writer's reopen: stay read-only with
  // the new cause, serving the recovered (committed) state.
  if (!s.ok()) fail_.Trip(s.message());
  return s;
}

Status Durability::TryHeal(int max_attempts) {
  if (dir_.empty()) {
    return Status::InvalidArgument("durability is not open");
  }
  if (!read_only()) return Status::OK();
  if (db_->txn_.active()) {
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
      const int backoff_ms = std::min(1 << attempt, kMaxHealBackoffMs);
      const uint64_t t0 = MonotonicNanos();
      bool cancelled = false;
      for (int slept = 0; slept < backoff_ms; ++slept) {
        if ((cancelled = db_->cancel_token().cancelled())) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      db_->events().Record({TraceEvent::Kind::kGovernance, t0,
                            MonotonicNanos() - t0,
                            static_cast<uint64_t>(attempt),
                            static_cast<uint64_t>(backoff_ms), "heal_backoff"});
      if (cancelled) {
        return Status::Cancelled("heal cancelled during backoff (attempt " +
                                 std::to_string(attempt) + " of " +
                                 std::to_string(max_attempts) + ")");
      }
    }
    ++db_->stats_.heal_attempts;
    last = Reopen();
    if (last.ok()) return Status::OK();
  }
  return Status::Unavailable(
      "heal failed after " + std::to_string(max_attempts) +
      " attempts, database remains read-only (" + last.message() + ")");
}

}  // namespace xupd::rdb
