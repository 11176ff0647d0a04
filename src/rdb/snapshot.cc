#include "rdb/snapshot.h"

#include <cstring>
#include <vector>

#include "rdb/database.h"
#include "rdb/table.h"
#include "rdb/vfs.h"
#include "rdb/wal.h"

namespace xupd::rdb {

namespace {

constexpr char kSnapshotMagic[8] = {'X', 'U', 'P', 'D', 'S', 'N', 'A', 'P'};
// v2 added the u64 wal_offset field after next_id (off-thread checkpoints
// keep the WAL and record how much of it the snapshot already folds in).
constexpr uint32_t kSnapshotFormatVersion = 2;

Status WriteFileDurably(Vfs* vfs, const std::string& path,
                        const std::string& data) {
  int err = 0;
  std::unique_ptr<VfsFile> file =
      vfs->Open(path, Vfs::OpenMode::kTruncate, &err);
  if (file == nullptr) return ErrnoStatus("cannot create snapshot", path, err);
  XUPD_RETURN_IF_ERROR(WriteFully(file.get(), data.data(), data.size(),
                                  "cannot write snapshot", path));
  if ((err = file->Sync()) != 0) {
    return ErrnoStatus("cannot fsync snapshot", path, err);
  }
  if ((err = file->Close()) != 0) {
    return ErrnoStatus("cannot close snapshot", path, err);
  }
  return Status::OK();
}

}  // namespace

Status WriteSnapshot(const Database& db, Vfs* vfs, const std::string& path,
                     const std::string& tmp_path,
                     const CheckpointCapture& capture, bool* renamed) {
  const uint64_t t0 = MonotonicNanos();
  if (renamed != nullptr) *renamed = false;
  std::string out(kSnapshotMagic, sizeof(kSnapshotMagic));
  binio::PutU32(&out, kSnapshotFormatVersion);
  binio::PutU64(&out, capture.epoch);
  binio::PutI64(&out, capture.next_id);
  binio::PutU64(&out, capture.wal_offset);

  binio::PutU32(&out, static_cast<uint32_t>(capture.tables.size()));
  Row staging;
  for (const auto& [t, slot_count] : capture.tables) {
    const TableSchema& schema = t->schema();
    binio::PutString(&out, schema.name());
    binio::PutU32(&out, static_cast<uint32_t>(schema.column_count()));
    for (const ColumnDef& c : schema.columns()) {
      binio::PutString(&out, c.name);
      binio::PutU8(&out, static_cast<uint8_t>(c.type));
    }
    // Every slot, live or tombstoned, with its cells: row ids are physical
    // addresses the WAL's redo records point at, so dead slots must keep
    // their positions. Exactly the slot count captured at the boundary:
    // slots appended later are covered by WAL replay past
    // capture.wal_offset, whose insert records assume rowid == slot count
    // at this point.
    binio::PutU64(&out, static_cast<uint64_t>(slot_count));
    for (size_t rowid = 0; rowid < slot_count; ++rowid) {
      bool live = false;
      if (!t->SnapshotReadRow(rowid, capture.pin_epoch, &staging, &live)) {
        return Status::Internal(
            "checkpoint: slot " + std::to_string(rowid) + " of table '" +
            schema.name() + "' is not readable at the captured epoch");
      }
      binio::PutU8(&out, live ? 1 : 0);
      for (const Value& v : staging) binio::PutValue(&out, v);
    }
    binio::PutU32(&out, static_cast<uint32_t>(t->indexes().size()));
    for (const auto& index : t->indexes()) {
      binio::PutString(&out, index->name());
      binio::PutU32(&out, static_cast<uint32_t>(index->column()));
    }
  }

  binio::PutU32(&out, static_cast<uint32_t>(capture.trigger_sql.size()));
  for (const std::string& sql : capture.trigger_sql) {
    if (sql.empty()) {
      return Status::Internal(
          "trigger has no CREATE TRIGGER text to checkpoint");
    }
    binio::PutString(&out, sql);
  }

  binio::PutU32(&out, binio::Crc32(out.data(), out.size()));
  XUPD_RETURN_IF_ERROR(WriteFileDurably(vfs, tmp_path, out));
  if (int err = vfs->Rename(tmp_path, path); err != 0) {
    return ErrnoStatus("cannot rename snapshot into place", path, err);
  }
  if (renamed != nullptr) *renamed = true;
  if (int err = vfs->SyncDir(path); err != 0) {
    return ErrnoStatus("cannot fsync snapshot directory", path, err);
  }
  db.metrics().GetHistogram("snapshot.write")->Record(MonotonicNanos() - t0);
  return Status::OK();
}

Result<SnapshotLoadInfo> LoadSnapshot(Database* db, Vfs* vfs,
                                      const std::string& path) {
  XUPD_ASSIGN_OR_RETURN(std::string data, ReadWholeFile(vfs, path));
  if (data.size() < sizeof(kSnapshotMagic) + 4 + 4 ||
      std::memcmp(data.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Status::Internal("'" + path + "' is not a snapshot file");
  }
  {
    binio::Reader v(data.data() + sizeof(kSnapshotMagic), 4);
    uint32_t version = v.U32();
    if (version != kSnapshotFormatVersion) {
      return Status::Internal(
          "snapshot format version mismatch: file has " +
          std::to_string(version) + ", this build reads " +
          std::to_string(kSnapshotFormatVersion));
    }
  }
  {
    binio::Reader c(data.data() + data.size() - 4, 4);
    uint32_t stored = c.U32();
    uint32_t actual = binio::Crc32(data.data(), data.size() - 4);
    if (stored != actual) {
      return Status::Internal("snapshot '" + path +
                              "' failed its CRC check (truncated or corrupt)");
    }
  }

  binio::Reader r(data.data() + sizeof(kSnapshotMagic) + 4,
                  data.size() - sizeof(kSnapshotMagic) - 4 - 4);
  SnapshotLoadInfo info;
  info.epoch = r.U64();
  int64_t next_id = r.I64();
  info.wal_offset = r.U64();
  uint32_t table_count = r.U32();
  for (uint32_t ti = 0; r.ok() && ti < table_count; ++ti) {
    std::string name = r.String();
    uint32_t ncols = r.U32();
    std::vector<ColumnDef> cols;
    for (uint32_t ci = 0; r.ok() && ci < ncols; ++ci) {
      ColumnDef def;
      def.name = r.String();
      def.type = static_cast<ColumnType>(r.U8());
      cols.push_back(std::move(def));
    }
    if (!r.ok()) break;
    auto table = db->CreateTableDirect(TableSchema(name, std::move(cols)),
                                       /*durable=*/true);
    if (!table.ok()) return table.status();
    uint64_t slots = r.U64();
    for (uint64_t s = 0; r.ok() && s < slots; ++s) {
      bool live = r.U8() != 0;
      Row row;
      row.reserve(ncols);
      for (uint32_t ci = 0; r.ok() && ci < ncols; ++ci) {
        row.push_back(r.ReadValue());
      }
      if (!r.ok()) break;
      table.value()->LoadSlot(std::move(row), live);
    }
    uint32_t index_count = r.U32();
    for (uint32_t ii = 0; r.ok() && ii < index_count; ++ii) {
      std::string index_name = r.String();
      uint32_t column = r.U32();
      if (!r.ok()) break;
      XUPD_RETURN_IF_ERROR(
          table.value()->CreateIndex(index_name, static_cast<int>(column)));
    }
  }
  uint32_t trigger_count = r.U32();
  for (uint32_t ti = 0; r.ok() && ti < trigger_count; ++ti) {
    std::string sql = r.String();
    if (!r.ok()) break;
    XUPD_RETURN_IF_ERROR(db->Execute(sql));
  }
  if (!r.ok()) {
    return Status::Internal("snapshot '" + path + "' is malformed");
  }
  db->set_next_id(next_id);
  return info;
}

std::vector<std::string> VerifySnapshotFile(Vfs* vfs,
                                            const std::string& path) {
  std::vector<std::string> violations;
  auto read = ReadWholeFile(vfs, path);
  if (!read.ok()) {
    if (read.status().code() == StatusCode::kNotFound) return violations;
    violations.push_back("snapshot unreadable: " + read.status().message());
    return violations;
  }
  const std::string& data = read.value();
  if (data.size() < sizeof(kSnapshotMagic) + 4 + 4 ||
      std::memcmp(data.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    violations.push_back("snapshot header corrupt: '" + path + "'");
    return violations;
  }
  binio::Reader v(data.data() + sizeof(kSnapshotMagic), 4);
  uint32_t version = v.U32();
  if (version != kSnapshotFormatVersion) {
    violations.push_back("snapshot version mismatch: file has " +
                         std::to_string(version));
  }
  binio::Reader c(data.data() + data.size() - 4, 4);
  uint32_t stored = c.U32();
  uint32_t actual = binio::Crc32(data.data(), data.size() - 4);
  if (stored != actual) {
    violations.push_back("snapshot CRC mismatch: '" + path + "'");
  }
  return violations;
}

uint64_t SnapshotEpochOnDisk(Vfs* vfs, const std::string& path) {
  auto read = ReadWholeFile(vfs, path);
  if (!read.ok()) return 0;
  const std::string& data = read.value();
  size_t header = sizeof(kSnapshotMagic) + 4;
  if (data.size() < header + 8 ||
      std::memcmp(data.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return 0;
  }
  binio::Reader r(data.data() + header, 8);
  return r.U64();
}

}  // namespace xupd::rdb
