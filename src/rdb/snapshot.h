// Snapshot checkpoints: the durable state of a Database at one captured
// commit boundary, serialized to one versioned binary file. Both checkpoint
// kinds (blocking Checkpoint, off-thread CheckpointBackground) capture a
// CheckpointCapture and hand it to the one serializer, WriteSnapshot.
//
// A snapshot captures everything WAL replay needs a base for: the catalog of
// durable tables (schemas, every row slot including tombstones and their
// cells — row ids are physical WAL addresses, so dead slots keep their
// positions), hash-index
// definitions (contents are rebuilt from live rows on load), trigger
// definitions (as their original CREATE TRIGGER text), and the next-id
// counter. Ephemeral tables (engine scratch created through the direct
// catalog API) are excluded, exactly like they are excluded from the WAL.
//
// File format (little-endian):
//   "XUPDSNAP" (8 bytes) | u32 format version | payload | u32 CRC32
// where the CRC covers magic + version + payload, and the payload is
//   u64 epoch | i64 next_id | u64 wal_offset
//   u32 table count | per table:
//     str name | u32 column count | per column: str name, u8 type
//     u64 slot count | per slot: u8 live, one value per column
//     u32 index count | per index: str name, u32 column ordinal
//   u32 trigger count | per trigger: str CREATE TRIGGER sql
//
// Checkpoint atomicity: the snapshot is written to a temp file, fsynced,
// renamed over the previous snapshot, and the directory is fsynced — a crash
// leaves either the old or the new snapshot, never a torn one. Any mismatch
// on load (magic, version, CRC, truncation) is a clean Status error; a
// half-state is never installed.
#ifndef XUPD_RDB_SNAPSHOT_H_
#define XUPD_RDB_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "rdb/vfs.h"

namespace xupd::rdb {

class Database;
class Table;

/// One checkpoint's commit boundary, captured by the writer thread
/// (Database::CaptureCheckpoint): the epoch whose row images the serializer
/// reads, the matching next-id counter, the snapshot-header epoch and WAL
/// offset, the exact slot count per durable table, and the trigger texts.
/// A blocking checkpoint serializes it inline and then resets the WAL; a
/// background one serializes it on its own thread while the writer keeps
/// committing — slots appended after the capture live past `wal_offset` in
/// the WAL, so serializing exactly the captured counts keeps replay's
/// append-only rowid invariant aligned.
struct CheckpointCapture {
  uint64_t pin_epoch = 0;
  int64_t next_id = 0;
  /// WAL bytes the snapshot already folds in: replay resumes after this
  /// offset. 0 when the checkpoint resets the WAL.
  uint64_t wal_offset = 0;
  /// Snapshot-header epoch: the WAL's epoch + 1 when the checkpoint resets
  /// the WAL, the WAL's own epoch when it keeps it.
  uint64_t epoch = 0;
  std::vector<std::pair<const Table*, size_t>> tables;  // (table, slot count)
  std::vector<std::string> trigger_sql;
};

/// Serializes the state as of `capture`, atomically replacing whatever
/// snapshot `path` held (via `tmp_path` + rename). Every captured slot is
/// read through Table::SnapshotReadRow at capture.pin_epoch — live and dead
/// alike, so a recovered table has the exact slot image that was
/// checkpointed, tombstone cells included. Off the writer thread the caller
/// must keep the captured tables alive (shared catalog lock) and the epoch
/// pinned until this returns. `*renamed` (optional) reports whether the
/// rename went through — on failure it tells the caller whether the new
/// snapshot is already visible (a blocking checkpoint must then fail-stop
/// its old-epoch WAL) or the old state is still fully intact (safe to retry
/// later).
Status WriteSnapshot(const Database& db, Vfs* vfs, const std::string& path,
                     const std::string& tmp_path,
                     const CheckpointCapture& capture,
                     bool* renamed = nullptr);

/// What LoadSnapshot recovered from the snapshot header.
struct SnapshotLoadInfo {
  uint64_t epoch = 0;
  uint64_t wal_offset = 0;  // WAL bytes already folded into the snapshot.
};

/// Loads a snapshot into `db` (which must be freshly constructed: no tables,
/// no open transaction) and returns its header info.
Result<SnapshotLoadInfo> LoadSnapshot(Database* db, Vfs* vfs,
                                      const std::string& path);

/// Integrity scrub: re-checks the on-disk snapshot's magic, version, and
/// whole-file CRC without installing anything. Returns human-readable
/// violations (empty = clean); a missing file is clean (fresh database).
std::vector<std::string> VerifySnapshotFile(Vfs* vfs, const std::string& path);

/// The epoch recorded in the on-disk snapshot header, or 0 when the file is
/// missing or too short to carry one. Scrub helper (no CRC verification):
/// the WAL epoch check must accept a WAL already reset to the epoch of a
/// checkpoint whose old writer then fail-stopped.
uint64_t SnapshotEpochOnDisk(Vfs* vfs, const std::string& path);

}  // namespace xupd::rdb

#endif  // XUPD_RDB_SNAPSHOT_H_
