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
// leaves either the old or the new snapshot, never a torn one. One decoder
// reads the file: the loader installs what it decodes, the integrity scrub
// only walks it, so both reject the same files. Any mismatch on load
// (magic, version, CRC, truncation, a payload that does not decode) is a
// clean Status error.
#ifndef XUPD_RDB_SNAPSHOT_H_
#define XUPD_RDB_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "rdb/vfs.h"

namespace xupd::rdb {

class Database;
class Table;

/// The data directory layout: one snapshot (plus the temp file a checkpoint
/// renames over it) and one WAL, under these fixed names.
inline std::string SnapshotPath(const std::string& dir) {
  return dir + "/snapshot.xupd";
}
inline std::string SnapshotTmpPath(const std::string& dir) {
  return dir + "/snapshot.tmp";
}
inline std::string WalPath(const std::string& dir) {
  return dir + "/wal.xupd";
}

/// One checkpoint's commit boundary, captured by the writer thread
/// (Durability::Capture): the epoch whose row images the serializer
/// reads, the matching next-id counter, the snapshot-header epoch and WAL
/// offset, the exact slot count and index definitions per durable table,
/// and the trigger texts. A blocking checkpoint serializes it inline and
/// then resets the WAL; a background one serializes it on its own thread
/// while the writer keeps committing — slots filled after the capture
/// (appended, or reused tombstones) live past `wal_offset` in the WAL,
/// whose insert records carry their row ids, so serializing exactly the
/// captured counts lines replay up with the snapshot. The serializer reads
/// nothing else the writer may change (a dead slot reused meanwhile keeps
/// its image readable, see EpochManager::capture_open); later DDL reaches
/// the snapshot through WAL replay.
struct CheckpointCapture {
  uint64_t pin_epoch = 0;
  int64_t next_id = 0;
  /// WAL bytes the snapshot already folds in: replay resumes after this
  /// offset. 0 when the checkpoint resets the WAL.
  uint64_t wal_offset = 0;
  /// Snapshot-header epoch: the WAL's epoch + 1 when the checkpoint resets
  /// the WAL, the WAL's own epoch when it keeps it.
  uint64_t epoch = 0;
  struct TableImage {
    const Table* table = nullptr;
    size_t slot_count = 0;
    std::vector<std::pair<std::string, int>> indexes;  // (name, column)
  };
  std::vector<TableImage> tables;
  std::vector<std::string> trigger_sql;
};

/// Serializes the state as of `capture`, atomically replacing whatever
/// snapshot `path` held (via `tmp_path` + rename). Every captured slot is
/// read through Table::SnapshotReadRow at capture.pin_epoch — live and dead
/// alike, so a recovered table has the exact slot image that was
/// checkpointed, tombstone cells included. Off the writer thread the caller
/// must keep capture.pin_epoch pinned until the slots are read: the pin
/// keeps every captured table alive even if DDL drops it meanwhile.
/// `slots_read` (optional) runs once every captured slot is read, before
/// the file is written: the pin and the capture need not outlast it.
/// `*renamed` (optional) reports whether the rename went through — on
/// failure it tells the caller whether the new snapshot is already visible
/// (a blocking checkpoint must then fail-stop its old-epoch WAL) or the
/// old state is still fully intact (safe to retry later).
Status WriteSnapshot(const Database& db, Vfs* vfs, const std::string& path,
                     const std::string& tmp_path,
                     const CheckpointCapture& capture,
                     bool* renamed = nullptr,
                     const std::function<void()>& slots_read = {});

/// What LoadSnapshot recovered from the snapshot header.
struct SnapshotLoadInfo {
  uint64_t epoch = 0;
  uint64_t wal_offset = 0;  // WAL bytes already folded into the snapshot.
};

/// Loads a snapshot into `db` (which must be freshly constructed: no tables,
/// no open transaction) and returns its header info.
Result<SnapshotLoadInfo> LoadSnapshot(Database* db, Vfs* vfs,
                                      const std::string& path);

/// Integrity scrub: walks the on-disk snapshot with the loader's decoder
/// without installing anything. Returns human-readable violations (empty =
/// clean); a missing file is clean (fresh database). `*epoch` (optional)
/// receives the header epoch of a clean file and 0 otherwise — the WAL
/// epoch check must accept a WAL already reset to the epoch of a checkpoint
/// whose old writer then fail-stopped.
std::vector<std::string> VerifySnapshotFile(Vfs* vfs, const std::string& path,
                                            uint64_t* epoch = nullptr);

}  // namespace xupd::rdb

#endif  // XUPD_RDB_SNAPSHOT_H_
