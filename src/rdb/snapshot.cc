#include "rdb/snapshot.h"

#include <cstring>
#include <set>
#include <vector>

#include "common/str_util.h"
#include "rdb/database.h"
#include "rdb/sql_parser.h"
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
                     const CheckpointCapture& capture, bool* renamed,
                     const std::function<void()>& slots_read) {
  const uint64_t t0 = MonotonicNanos();
  if (renamed != nullptr) *renamed = false;
  std::string out(kSnapshotMagic, sizeof(kSnapshotMagic));
  binio::PutU32(&out, kSnapshotFormatVersion);
  binio::PutU64(&out, capture.epoch);
  binio::PutI64(&out, capture.next_id);
  binio::PutU64(&out, capture.wal_offset);

  binio::PutU32(&out, static_cast<uint32_t>(capture.tables.size()));
  Row staging;
  for (const CheckpointCapture::TableImage& image : capture.tables) {
    const Table* t = image.table;
    const size_t slot_count = image.slot_count;
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
    // slots filled later — appended, or tombstones reused — are covered by
    // WAL replay past capture.wal_offset, whose insert records name the
    // row id they took.
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
    binio::PutU32(&out, static_cast<uint32_t>(image.indexes.size()));
    for (const auto& [name, column] : image.indexes) {
      binio::PutString(&out, name);
      binio::PutU32(&out, static_cast<uint32_t>(column));
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
  if (slots_read) slots_read();

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

namespace {

/// The one snapshot decoder. It checks the framing (magic, format version,
/// whole-file CRC), then walks the entire payload and fails on anything the
/// loader could not install: a field cut short, an unknown column or value
/// type, a duplicate table or index, an index on a missing column, a
/// trigger text that is not a CREATE TRIGGER on a snapshotted table, or
/// bytes past the trigger list. With `db` it installs each table, slot,
/// index and trigger as it decodes them (LoadSnapshot); without, it only
/// walks the file (the scrub), so both reject the same files.
Result<SnapshotLoadInfo> DecodeSnapshot(const std::string& data,
                                        const std::string& path,
                                        Database* db) {
  if (data.size() < sizeof(kSnapshotMagic) + 4 + 4 ||
      std::memcmp(data.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Status::Internal("'" + path + "' is not a snapshot file");
  }
  binio::Reader v(data.data() + sizeof(kSnapshotMagic), 4);
  const uint32_t version = v.U32();
  if (version != kSnapshotFormatVersion) {
    return Status::Internal(
        "snapshot format version mismatch: file has " +
        std::to_string(version) + ", this build reads " +
        std::to_string(kSnapshotFormatVersion));
  }
  binio::Reader c(data.data() + data.size() - 4, 4);
  if (c.U32() != binio::Crc32(data.data(), data.size() - 4)) {
    return Status::Internal("snapshot '" + path +
                            "' failed its CRC check (truncated or corrupt)");
  }
  auto malformed = [&path](const std::string& why) {
    return Status::Internal("snapshot '" + path + "' is malformed: " + why);
  };

  binio::Reader r(data.data() + sizeof(kSnapshotMagic) + 4,
                  data.size() - sizeof(kSnapshotMagic) - 4 - 4);
  SnapshotLoadInfo info;
  info.epoch = r.U64();
  const int64_t next_id = r.I64();
  info.wal_offset = r.U64();
  std::set<std::string, AsciiCaseInsensitiveLess> tables;
  const uint32_t table_count = r.U32();
  for (uint32_t ti = 0; r.ok() && ti < table_count; ++ti) {
    std::string name = r.String();
    const uint32_t ncols = r.U32();
    std::vector<ColumnDef> cols;
    for (uint32_t ci = 0; r.ok() && ci < ncols; ++ci) {
      ColumnDef def;
      def.name = r.String();
      const uint8_t type = r.U8();
      if (type > static_cast<uint8_t>(ColumnType::kVarchar)) {
        return malformed("unknown column type " + std::to_string(type));
      }
      def.type = static_cast<ColumnType>(type);
      cols.push_back(std::move(def));
    }
    if (!r.ok()) break;
    if (!tables.insert(name).second) {
      return malformed("table '" + name + "' appears twice");
    }
    Table* table = nullptr;
    if (db != nullptr) {
      XUPD_ASSIGN_OR_RETURN(
          table, db->CreateTableDirect(TableSchema(name, std::move(cols)),
                                       /*durable=*/true));
    }
    const uint64_t slots = r.U64();
    for (uint64_t s = 0; r.ok() && s < slots; ++s) {
      const bool live = r.U8() != 0;
      Row row;
      for (uint32_t ci = 0; r.ok() && ci < ncols; ++ci) {
        row.push_back(r.ReadValue());
      }
      if (!r.ok()) break;
      if (table != nullptr) table->LoadSlot(std::move(row), live);
    }
    std::set<std::string, AsciiCaseInsensitiveLess> indexes;
    const uint32_t index_count = r.U32();
    for (uint32_t ii = 0; r.ok() && ii < index_count; ++ii) {
      std::string index_name = r.String();
      const uint32_t column = r.U32();
      if (!r.ok()) break;
      if (column >= ncols || !indexes.insert(index_name).second) {
        return malformed("bad index '" + index_name + "' on table '" + name +
                         "'");
      }
      if (table != nullptr) {
        XUPD_RETURN_IF_ERROR(
            table->CreateIndex(index_name, static_cast<int>(column)));
      }
    }
  }
  std::set<std::string, AsciiCaseInsensitiveLess> triggers;
  const uint32_t trigger_count = r.U32();
  for (uint32_t ti = 0; r.ok() && ti < trigger_count; ++ti) {
    std::string sql = r.String();
    if (!r.ok()) break;
    auto stmt = sql::ParseSql(sql);
    if (!stmt.ok() ||
        stmt.value().kind != sql::Statement::Kind::kCreateTrigger ||
        tables.count(stmt.value().create_trigger.table) == 0 ||
        !triggers.insert(stmt.value().create_trigger.name).second) {
      return malformed("bad trigger text '" + sql + "'");
    }
    if (db != nullptr) XUPD_RETURN_IF_ERROR(db->Execute(sql));
  }
  if (!r.ok()) return malformed("a field runs past the end of the payload");
  if (r.remaining() != 0) {
    return malformed(std::to_string(r.remaining()) +
                     " bytes follow the trigger list");
  }
  if (db != nullptr) db->set_next_id(next_id);
  return info;
}

}  // namespace

Result<SnapshotLoadInfo> LoadSnapshot(Database* db, Vfs* vfs,
                                      const std::string& path) {
  XUPD_ASSIGN_OR_RETURN(std::string data, ReadWholeFile(vfs, path));
  return DecodeSnapshot(data, path, db);
}

std::vector<std::string> VerifySnapshotFile(Vfs* vfs, const std::string& path,
                                            uint64_t* epoch) {
  if (epoch != nullptr) *epoch = 0;
  auto read = ReadWholeFile(vfs, path);
  if (!read.ok()) {
    if (read.status().code() == StatusCode::kNotFound) return {};
    return {"snapshot unreadable: " + read.status().message()};
  }
  auto decoded = DecodeSnapshot(read.value(), path, nullptr);
  if (!decoded.ok()) return {decoded.status().message()};
  if (epoch != nullptr) *epoch = decoded.value().epoch;
  return {};
}

}  // namespace xupd::rdb
