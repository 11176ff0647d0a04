// Durability subsystem tests (rdb/wal.h, rdb/snapshot.h): WAL unit
// semantics (commit / rollback / savepoints / autocommit), snapshot
// checkpoints and WAL truncation, DDL replay, corrupt-file handling
// (torn tails, bad CRC frames, version mismatches, stale epochs), and the
// engine-level crash-recovery property: for a failure injected at EVERY
// statement boundary of every delete/insert/copy strategy, reopening the
// surviving files reproduces exactly the last committed pre-op or post-op
// state — element tables, hash indexes, tombstones, next-id and the ASR.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/store.h"
#include "rdb/database.h"
#include "rdb/snapshot.h"
#include "rdb/vfs.h"
#include "rdb/wal.h"
#include "test_util.h"
#include "workload/synthetic.h"
#include "xml/serializer.h"

namespace xupd {
namespace {

using engine::DeleteStrategy;
using engine::InsertStrategy;
using engine::RelationalStore;
using xupd::testing::DumpDurableState;
using xupd::testing::MakeDoc;
using xupd::testing::ReadFile;
using xupd::testing::TempDir;
using xupd::testing::WriteFile;

// ---------------------------------------------------------------------------
// binio::Crc32: the checksum of every WAL frame and snapshot file

uint32_t BytewiseCrc32(const unsigned char* p, size_t n) {
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, MatchesTheCheckValue) {
  EXPECT_EQ(rdb::binio::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(rdb::binio::Crc32("", 0), 0u);
}

TEST(Crc32Test, AgreesWithABytewiseReferenceAtUnalignedOffsets) {
  unsigned char buf[64 + 8];
  for (size_t i = 0; i < sizeof(buf); ++i) {
    buf[i] = static_cast<unsigned char>(i * 131 + 7);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(rdb::binio::Crc32(buf + offset, len),
                BytewiseCrc32(buf + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

// ---------------------------------------------------------------------------
// rdb layer: WAL unit semantics

class RdbRecoveryTest : public ::testing::Test {
 protected:
  void Must(rdb::Database* db, const std::string& sql) {
    Status s = db->Execute(sql);
    ASSERT_TRUE(s.ok()) << sql << ": " << s;
  }
  void Setup(rdb::Database* db) {
    ASSERT_TRUE(db->Open(dir_.path()).ok());
    Must(db, "CREATE TABLE t (id INTEGER, name VARCHAR)");
    Must(db, "CREATE INDEX idx_t_id ON t (id)");
  }
  int64_t Count(rdb::Database* db, const std::string& where = "") {
    auto r = db->ExecuteQuery("SELECT COUNT(*) FROM t" +
                              (where.empty() ? "" : " WHERE " + where));
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? r->rows[0][0].AsInt() : -1;
  }

  TempDir dir_;
};

TEST_F(RdbRecoveryTest, FreshDirectoryOpensEmptyAndReopensRecovered) {
  {
    rdb::Database db;
    ASSERT_TRUE(db.Open(dir_.path()).ok());
    EXPECT_FALSE(db.recovered());
    EXPECT_TRUE(db.durability_open());
    Must(&db, "CREATE TABLE t (id INTEGER, name VARCHAR)");
    Must(&db, "INSERT INTO t VALUES (1, 'a'), (2, 'b')");
    EXPECT_GT(db.stats().wal_appends, 0u);
  }
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir_.path()).ok());
  EXPECT_TRUE(db2.recovered());
  EXPECT_GT(db2.stats().recovery_replayed, 0u);
  EXPECT_EQ(Count(&db2), 2);
}

TEST_F(RdbRecoveryTest, OnlyCommittedTransactionsSurvive) {
  std::string committed;
  {
    rdb::Database db;
    Setup(&db);
    Must(&db, "BEGIN");
    Must(&db, "INSERT INTO t VALUES (1, 'committed')");
    Must(&db, "COMMIT");
    committed = DumpDurableState(db);
    Must(&db, "BEGIN");
    Must(&db, "INSERT INTO t VALUES (2, 'open')");
    // Destroyed with the transaction still open: its redo is pending, never
    // written — crash or clean close, an uncommitted scope must not persist.
  }
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir_.path()).ok());
  EXPECT_EQ(Count(&db2), 1);
  EXPECT_EQ(DumpDurableState(db2), committed);
}

TEST_F(RdbRecoveryTest, RolledBackWorkWritesNoRedo) {
  {
    rdb::Database db;
    Setup(&db);
    uint64_t appends_before = db.stats().wal_appends;
    Must(&db, "BEGIN");
    Must(&db, "INSERT INTO t VALUES (1, 'x')");
    Must(&db, "UPDATE t SET name = 'y' WHERE id = 1");
    Must(&db, "ROLLBACK");
    EXPECT_EQ(db.stats().wal_appends, appends_before);
  }
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir_.path()).ok());
  EXPECT_EQ(Count(&db2), 0);
}

TEST_F(RdbRecoveryTest, SecondOpenOnALiveDirectoryIsRejected) {
  rdb::Database db;
  Setup(&db);
  // Two writers on one WAL would truncate each other's committed frames;
  // the directory flock turns that into a clean "in use" error.
  rdb::Database intruder;
  Status s = intruder.Open(dir_.path());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("in use"), std::string::npos) << s;
  // The first database keeps working; the lock dies with it.
  Must(&db, "INSERT INTO t VALUES (1, 'still-mine')");
}

TEST_F(RdbRecoveryTest, SavepointRollbackTruncatesRedoInLockstep) {
  std::string expected;
  {
    rdb::Database db;
    Setup(&db);
    Must(&db, "BEGIN");
    Must(&db, "INSERT INTO t VALUES (1, 'keep')");
    Must(&db, "SAVEPOINT sp");
    Must(&db, "INSERT INTO t VALUES (2, 'drop')");
    Must(&db, "DELETE FROM t WHERE id = 1");
    Must(&db, "ROLLBACK TO sp");
    Must(&db, "RELEASE sp");  // ROLLBACK TO keeps the savepoint open
    Must(&db, "INSERT INTO t VALUES (3, 'keep2')");
    Must(&db, "COMMIT");
    ASSERT_FALSE(db.in_transaction());
    EXPECT_EQ(Count(&db), 2);
    expected = DumpDurableState(db);
  }
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir_.path()).ok());
  EXPECT_EQ(Count(&db2, "id = 1"), 1);
  EXPECT_EQ(Count(&db2, "id = 2"), 0);
  EXPECT_EQ(Count(&db2, "id = 3"), 1);
  EXPECT_EQ(DumpDurableState(db2), expected);
}

TEST_F(RdbRecoveryTest, TombstonesAndNextIdReplayExactly) {
  std::string expected;
  {
    rdb::Database db;
    Setup(&db);
    Must(&db, "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')");
    Must(&db, "DELETE FROM t WHERE id = 2");
    Must(&db, "UPDATE t SET name = 'A' WHERE id = 1");
    db.set_next_id(777);
    Must(&db, "INSERT INTO t VALUES (4, 'd')");  // commits carry next_id
    expected = DumpDurableState(db);
  }
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir_.path()).ok());
  EXPECT_EQ(db2.next_id(), 777);
  EXPECT_EQ(DumpDurableState(db2), expected);
  // The insert after the published delete reused its slot, and replay put
  // the row back at the recorded row id: 3 slots, slot 1 holds (4, 'd').
  rdb::Table* t = db2.FindTable("t");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->capacity(), 3u);
  EXPECT_EQ(t->live_count(), 3u);
  ASSERT_TRUE(t->is_live(1));
  EXPECT_EQ(t->row(1)[0].AsInt(), 4);
  EXPECT_EQ(t->row(1)[1].AsString(), "d");
}

TEST_F(RdbRecoveryTest, ReplayIntoASnapshotTombstoneKeepsNoCopy) {
  std::string expected;
  {
    rdb::Database db;
    Setup(&db);
    Must(&db, "INSERT INTO t VALUES (1, 'a'), (2, 'b')");
    Must(&db, "DELETE FROM t WHERE id = 2");
    ASSERT_TRUE(db.Checkpoint().ok());
    Must(&db, "INSERT INTO t VALUES (3, 'c')");  // reuses slot 1
    expected = DumpDurableState(db);
  }
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir_.path()).ok());
  EXPECT_EQ(DumpDurableState(db2), expected);
  rdb::Table* t = db2.FindTable("t");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->capacity(), 2u);
  ASSERT_TRUE(t->is_live(1));
  EXPECT_EQ(t->row(1)[0].AsInt(), 3);
  EXPECT_EQ(db2.stats().slots_reused, 1u);
  // Replay overwrote the snapshot's tombstone in place: no copy of the dead
  // row waits in the version buffer for a boundary to free it.
  EXPECT_EQ(t->version_rows(), 0u);
}

TEST_F(RdbRecoveryTest, DdlAndTriggersReplay) {
  std::string expected;
  {
    rdb::Database db;
    Setup(&db);
    Must(&db, "CREATE TABLE child (id INTEGER, parentId INTEGER)");
    Must(&db,
         "CREATE TRIGGER trg_t AFTER DELETE ON t FOR EACH ROW BEGIN "
         "DELETE FROM child WHERE parentId = OLD.id; END");
    Must(&db, "INSERT INTO t VALUES (1, 'a'), (2, 'b')");
    Must(&db, "INSERT INTO child VALUES (10, 1), (11, 2)");
    expected = DumpDurableState(db);
  }
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir_.path()).ok());
  EXPECT_EQ(DumpDurableState(db2), expected);
  // The recovered trigger must actually fire.
  Must(&db2, "DELETE FROM t WHERE id = 1");
  auto r = db2.ExecuteQuery("SELECT COUNT(*) FROM child");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 1);
}

TEST_F(RdbRecoveryTest, CheckpointTruncatesWalAndRecoversFromSnapshot) {
  std::string expected;
  {
    rdb::Database db;
    Setup(&db);
    for (int i = 0; i < 50; ++i) {
      Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ", 'x')");
    }
    uint64_t wal_size_before = ReadFile(dir_.path() + "/wal.xupd").size();
    ASSERT_TRUE(db.Checkpoint().ok());
    EXPECT_EQ(db.stats().checkpoints, 1u);
    EXPECT_LT(ReadFile(dir_.path() + "/wal.xupd").size(), wal_size_before);
    Must(&db, "INSERT INTO t VALUES (100, 'post-checkpoint')");
    expected = DumpDurableState(db);
  }
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir_.path()).ok());
  EXPECT_EQ(DumpDurableState(db2), expected);
  // Only the post-checkpoint records replay; the 50 pre-checkpoint inserts
  // come from the snapshot.
  EXPECT_LT(db2.stats().recovery_replayed, 10u);
  EXPECT_GT(db2.stats().recovery_replayed, 0u);
  EXPECT_EQ(Count(&db2), 51);
}

TEST_F(RdbRecoveryTest, CheckpointInsideTransactionIsRejected) {
  rdb::Database db;
  Setup(&db);
  Must(&db, "BEGIN");
  Must(&db, "INSERT INTO t VALUES (1, 'open')");
  Status s = db.Checkpoint();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  Must(&db, "COMMIT");
  EXPECT_TRUE(db.Checkpoint().ok());
}

TEST_F(RdbRecoveryTest, BackgroundCheckpointRecoversTombstoneCells) {
  std::string expected;
  {
    rdb::Database db;
    Setup(&db);
    Must(&db,
         "INSERT INTO t VALUES (1, 'a'), "
         "(2, 'a tombstone keeps this heap-allocated cell'), (3, 'c')");
    Must(&db, "DELETE FROM t WHERE id = 2");
    ASSERT_TRUE(db.CheckpointBackground().ok());
    ASSERT_TRUE(db.CheckpointWait().ok());
    expected = DumpDurableState(db);
  }
  ASSERT_NE(expected.find("dead 2|a tombstone keeps this heap-allocated cell|"),
            std::string::npos)
      << expected;
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir_.path()).ok());
  // Everything comes from the snapshot: the WAL holds nothing past the
  // offset it recorded.
  EXPECT_EQ(db2.stats().recovery_replayed, 0u);
  EXPECT_EQ(DumpDurableState(db2), expected);
}

TEST_F(RdbRecoveryTest, BlockingCheckpointTakesNoReaderSlot) {
  std::string expected;
  {
    rdb::Database db;
    Setup(&db);
    Must(&db, "INSERT INTO t VALUES (1, 'a'), (2, 'b')");
    Must(&db, "DELETE FROM t WHERE id = 1");
    std::vector<std::unique_ptr<rdb::ReaderSession>> sessions;
    for (int i = 0; i < rdb::EpochManager::kMaxReaders; ++i) {
      auto session = db.OpenReaderSession();
      ASSERT_TRUE(session.ok()) << "slot " << i << ": " << session.status();
      sessions.push_back(std::move(session).value());
    }
    // A background checkpoint pins its epoch like a reader and finds no
    // slot; the blocking one serializes on the writer thread and needs none.
    EXPECT_EQ(db.CheckpointBackground().code(), StatusCode::kUnavailable);
    ASSERT_TRUE(db.Checkpoint().ok());
    Must(&db, "INSERT INTO t VALUES (3, 'c')");
    expected = DumpDurableState(db);
  }
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir_.path()).ok());
  EXPECT_EQ(DumpDurableState(db2), expected);
}

TEST_F(RdbRecoveryTest, DdlRunsBesideABackgroundCheckpoint) {
  // DDL does not wait for an off-thread checkpoint: the checkpoint's epoch
  // pin keeps every table it captured alive, so DROP TABLE neither joins
  // it nor frees what it is still serializing. The snapshot holds the
  // table as captured; WAL replay past its offset applies the DDL.
  std::string expected;
  {
    rdb::Database db;
    Setup(&db);
    Must(&db, "CREATE TABLE big (id INTEGER, name VARCHAR)");
    for (int batch = 0; batch < 40; ++batch) {
      std::string sql = "INSERT INTO big VALUES ";
      for (int i = 0; i < 500; ++i) {
        const int id = batch * 500 + i;
        sql += (i == 0 ? "(" : ", (") + std::to_string(id) + ", 'big row " +
               std::to_string(id) + "')";
      }
      Must(&db, sql);
    }
    Must(&db, "INSERT INTO t VALUES (1, 'a')");
    ASSERT_TRUE(db.CheckpointBackground().ok());
    Must(&db, "CREATE INDEX idx_big_id ON big (id)");
    Must(&db, "DROP TABLE big");
    EXPECT_TRUE(db.checkpoint_running());
    Must(&db, "INSERT INTO t VALUES (2, 'b')");
    ASSERT_TRUE(db.CheckpointWait().ok());
    EXPECT_EQ(db.FindTable("big"), nullptr);
    expected = DumpDurableState(db);
  }
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir_.path()).ok());
  EXPECT_EQ(DumpDurableState(db2), expected);
  EXPECT_EQ(db2.FindTable("big"), nullptr);
}

TEST_F(RdbRecoveryTest, AutocommitStatementsPersistWithoutExplicitTxn) {
  {
    rdb::Database db;
    Setup(&db);
    Must(&db, "INSERT INTO t VALUES (1, 'a')");
    Must(&db, "UPDATE t SET name = 'z' WHERE id = 1");
  }
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir_.path()).ok());
  auto r = db2.ExecuteQuery("SELECT name FROM t WHERE id = 1");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsString(), "z");
}

TEST_F(RdbRecoveryTest, DirectScratchTablesAreEphemeral) {
  {
    rdb::Database db;
    Setup(&db);
    auto scratch = db.CreateTableDirect(
        rdb::TableSchema("scratch", {{"id", rdb::ColumnType::kInteger}}),
        /*durable=*/false);
    ASSERT_TRUE(scratch.ok());
    ASSERT_TRUE(db.InsertDirect(scratch.value(), {rdb::Value::Int(1)}).ok());
    Must(&db, "INSERT INTO t VALUES (1, 'real')");
  }
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir_.path()).ok());
  EXPECT_EQ(db2.FindTable("scratch"), nullptr);
  EXPECT_EQ(Count(&db2), 1);
}

// ---------------------------------------------------------------------------
// Group commit: the WAL writer owns its flusher, and a failed group fsync
// fail-stops the database exactly like a failed append

constexpr int kWindowUs = 2000;

rdb::DurabilityOptions BatchedOptions(rdb::FaultVfs* fault) {
  rdb::DurabilityOptions opts;
  opts.sync_mode = rdb::SyncMode::kBatched;
  opts.group_commit_window_us = kWindowUs;
  opts.vfs = fault;
  return opts;
}

/// Polls `done` once per group-commit window for up to `windows` windows.
bool WithinWindows(int windows, const std::function<bool()>& done) {
  for (int i = 0; i < windows && !done(); ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(kWindowUs));
  }
  return done();
}

uint64_t FsyncCount(const rdb::Database& db) {
  return db.metrics().GetHistogram("wal.fsync")->count();
}

std::string HealthField(rdb::Database* db, const std::string& field) {
  auto rows = db->ExecuteQuery("SHOW HEALTH");
  EXPECT_TRUE(rows.ok()) << rows.status();
  if (!rows.ok()) return "";
  for (const auto& row : rows->rows) {
    if (row[0].AsString() == field) return std::string(row[1].AsString());
  }
  return "";
}

TEST_F(RdbRecoveryTest, FailedGroupFsyncEngagesReadOnlyAndHeals) {
  rdb::FaultVfs fault(rdb::Vfs::Default());
  rdb::Database db;
  ASSERT_TRUE(db.Open(dir_.path(), BatchedOptions(&fault)).ok());
  Must(&db, "CREATE TABLE t (id INTEGER, name VARCHAR)");
  Must(&db, "INSERT INTO t VALUES (1, 'a')");
  // Wait until a group fsync has covered everything committed so far, so
  // the armed fault below lands on the next unit's append (op 1, passes)
  // and then on the flusher's fsync of it (op 2, EIO).
  const uint64_t synced = FsyncCount(db);
  ASSERT_TRUE(WithinWindows(25, [&] { return FsyncCount(db) > synced; }));
  fault.ArmFault(rdb::FaultVfs::FaultKind::kEio, 2, "wal");
  Must(&db, "INSERT INTO t VALUES (2, 'b')");

  // No statement runs until the flusher has failed: read-only mode engages
  // from the flusher thread itself.
  EXPECT_TRUE(WithinWindows(25, [&] { return db.read_only(); }));
  EXPECT_EQ(HealthField(&db, "read_only"), "1");
  const std::string cause = db.health().cause;
  EXPECT_NE(cause.find("cannot fsync WAL"), std::string::npos) << cause;
  EXPECT_NE(cause.find("EIO"), std::string::npos) << cause;
  Status rejected = db.Execute("INSERT INTO t VALUES (3, 'c')");
  EXPECT_EQ(rejected.code(), StatusCode::kUnavailable) << rejected;

  fault.ClearFault();
  Status healed = db.TryHeal();
  ASSERT_TRUE(healed.ok()) << healed;
  EXPECT_FALSE(db.read_only());
  EXPECT_EQ(HealthField(&db, "read_only"), "0");
  Must(&db, "INSERT INTO t VALUES (3, 'c')");
  EXPECT_EQ(Count(&db, "id = 3"), 1);
}

TEST_F(RdbRecoveryTest, FlusherSyncsCommitsAfterCheckpointAndHeal) {
  rdb::FaultVfs fault(rdb::Vfs::Default());
  rdb::Database db;
  ASSERT_TRUE(db.Open(dir_.path(), BatchedOptions(&fault)).ok());
  Must(&db, "CREATE TABLE t (id INTEGER, name VARCHAR)");
  // A blocking checkpoint replaces the writer, and its flusher with it.
  ASSERT_TRUE(db.Checkpoint().ok());
  uint64_t before = FsyncCount(db);
  Must(&db, "INSERT INTO t VALUES (1, 'a')");
  EXPECT_TRUE(WithinWindows(25, [&] { return FsyncCount(db) > before; }));

  // So does a heal: fail-stop the writer on an append, heal, commit again.
  fault.ArmFault(rdb::FaultVfs::FaultKind::kEio, 1, "wal");
  EXPECT_FALSE(db.Execute("INSERT INTO t VALUES (2, 'b')").ok());
  ASSERT_TRUE(db.read_only());
  fault.ClearFault();
  ASSERT_TRUE(db.TryHeal().ok());
  before = FsyncCount(db);
  Must(&db, "INSERT INTO t VALUES (3, 'c')");
  EXPECT_TRUE(WithinWindows(25, [&] { return FsyncCount(db) > before; }));
}

// ---------------------------------------------------------------------------
// Corrupt-file handling

class WalCorruptionTest : public RdbRecoveryTest {
 protected:
  /// Builds a WAL of committed units (two DDL units + `units` single-insert
  /// units) and returns the state dump after EVERY unit boundary, index 0 =
  /// the empty database — truncating the log anywhere must land on one of
  /// these.
  std::vector<std::string> BuildUnits(int units) {
    std::vector<std::string> states;
    rdb::Database db;
    (void)db.Open(dir_.path());
    states.push_back(DumpDurableState(db));
    (void)db.Execute("CREATE TABLE t (id INTEGER, name VARCHAR)");
    states.push_back(DumpDurableState(db));
    (void)db.Execute("CREATE INDEX idx_t_id ON t (id)");
    states.push_back(DumpDurableState(db));
    for (int i = 0; i < units; ++i) {
      (void)db.Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                       ", 'u')");
      states.push_back(DumpDurableState(db));
    }
    return states;
  }
};

TEST_F(WalCorruptionTest, TruncatedTailRecoversACommittedPrefix) {
  std::vector<std::string> states = BuildUnits(8);
  std::string wal = ReadFile(dir_.path() + "/wal.xupd");
  ASSERT_GT(wal.size(), 64u);
  // Chop the WAL at every 7th byte: recovery must always land on exactly
  // one of the committed states — never an error, never a torn mixture.
  for (size_t cut = 0; cut <= wal.size(); cut += 7) {
    WriteFile(dir_.path() + "/wal.xupd", wal.substr(0, cut));
    rdb::Database db;
    Status s = db.Open(dir_.path());
    ASSERT_TRUE(s.ok()) << "cut at " << cut << ": " << s;
    std::string got = DumpDurableState(db);
    bool is_prefix_state = false;
    for (const std::string& state : states) {
      if (got == state) {
        is_prefix_state = true;
        break;
      }
    }
    EXPECT_TRUE(is_prefix_state) << "cut at " << cut
                                 << " produced a non-prefix state:\n" << got;
    // The writer truncated the torn tail; put the full log back for the
    // next cut.
    WriteFile(dir_.path() + "/wal.xupd", wal);
  }
}

TEST_F(WalCorruptionTest, BadCrcFrameEndsTheLogAtTheLastGoodCommit) {
  std::vector<std::string> states = BuildUnits(8);
  std::string wal = ReadFile(dir_.path() + "/wal.xupd");
  // Flip one byte somewhere in the middle of the frame stream.
  std::string corrupted = wal;
  size_t at = 20 + (wal.size() - 20) / 2;
  corrupted[at] = static_cast<char>(corrupted[at] ^ 0x5A);
  WriteFile(dir_.path() + "/wal.xupd", corrupted);
  rdb::Database db;
  ASSERT_TRUE(db.Open(dir_.path()).ok());
  std::string got = DumpDurableState(db);
  bool is_prefix_state = false;
  size_t which = 0;
  for (size_t i = 0; i < states.size(); ++i) {
    if (got == states[i]) {
      is_prefix_state = true;
      which = i;
      break;
    }
  }
  EXPECT_TRUE(is_prefix_state) << "corruption produced a non-prefix state";
  EXPECT_LT(which, states.size() - 1);  // the tail after the flip is gone
}

TEST_F(WalCorruptionTest, WalBitFlipSweepRecoversAPrefixOrFailsCleanly) {
  // Exhaustive corruption sweep: flip one byte at EVERY offset of the WAL.
  // Whatever the flip hits — magic, version, epoch, frame length, CRC,
  // payload — recovery must either land on a committed prefix state (with
  // the integrity scrub passing) or fail with a clean, described error.
  // Garbage states and crashes are the only unacceptable outcomes.
  std::vector<std::string> states = BuildUnits(4);
  std::string wal = ReadFile(dir_.path() + "/wal.xupd");
  ASSERT_GT(wal.size(), 20u);
  for (size_t at = 0; at < wal.size(); ++at) {
    std::string corrupted = wal;
    corrupted[at] = static_cast<char>(corrupted[at] ^ 0x5A);
    WriteFile(dir_.path() + "/wal.xupd", corrupted);
    rdb::Database db;
    Status s = db.Open(dir_.path());
    if (s.ok()) {
      std::string got = DumpDurableState(db);
      bool is_prefix_state = false;
      for (const std::string& state : states) {
        if (got == state) {
          is_prefix_state = true;
          break;
        }
      }
      EXPECT_TRUE(is_prefix_state)
          << "flip at byte " << at << " produced a non-prefix state";
      std::vector<std::string> v = db.VerifyIntegrity();
      EXPECT_TRUE(v.empty()) << "flip at byte " << at << ": " << v[0];
    } else {
      EXPECT_FALSE(s.message().empty()) << "flip at byte " << at;
    }
    // The writer truncated the torn tail; put the full log back.
    WriteFile(dir_.path() + "/wal.xupd", wal);
  }
}

TEST_F(WalCorruptionTest, SnapshotBitFlipSweepNeverRecoversGarbage) {
  BuildUnits(2);
  std::string at_checkpoint;
  std::string final_state;
  {
    rdb::Database db;
    ASSERT_TRUE(db.Open(dir_.path()).ok());
    ASSERT_TRUE(db.Checkpoint().ok());
    at_checkpoint = DumpDurableState(db);
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (100, 'post')").ok());
    final_state = DumpDurableState(db);
  }
  std::string snap = ReadFile(dir_.path() + "/snapshot.xupd");
  std::string wal = ReadFile(dir_.path() + "/wal.xupd");
  ASSERT_FALSE(snap.empty());
  for (size_t at = 0; at < snap.size(); ++at) {
    std::string corrupted = snap;
    corrupted[at] = static_cast<char>(corrupted[at] ^ 0x5A);
    WriteFile(dir_.path() + "/snapshot.xupd", corrupted);
    rdb::Database db;
    Status s = db.Open(dir_.path());
    if (s.ok()) {
      // A flip the CRC does not cover (e.g. the epoch field) may demote the
      // WAL to stale; the only legal outcomes are the exact checkpoint or
      // final states — never a mixture.
      std::string got = DumpDurableState(db);
      EXPECT_TRUE(got == final_state || got == at_checkpoint)
          << "flip at byte " << at << " produced a garbage state";
    } else {
      EXPECT_FALSE(s.message().empty()) << "flip at byte " << at;
    }
    WriteFile(dir_.path() + "/snapshot.xupd", snap);
    WriteFile(dir_.path() + "/wal.xupd", wal);
  }
}

TEST_F(WalCorruptionTest, WalVersionMismatchIsACleanError) {
  BuildUnits(2);
  std::string wal = ReadFile(dir_.path() + "/wal.xupd");
  wal[8] = 99;  // format version field (u32 LE after the 8-byte magic)
  WriteFile(dir_.path() + "/wal.xupd", wal);
  rdb::Database db;
  Status s = db.Open(dir_.path());
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("version mismatch"), std::string::npos) << s;
}

TEST_F(WalCorruptionTest, SnapshotVersionMismatchIsACleanError) {
  {
    rdb::Database db;
    ASSERT_TRUE(db.Open(dir_.path()).ok());
    ASSERT_TRUE(db.Execute("CREATE TABLE t (id INTEGER)").ok());
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  std::string snap = ReadFile(dir_.path() + "/snapshot.xupd");
  ASSERT_FALSE(snap.empty());
  snap[8] = 99;  // format version field
  WriteFile(dir_.path() + "/snapshot.xupd", snap);
  rdb::Database db;
  Status s = db.Open(dir_.path());
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("version mismatch"), std::string::npos) << s;
}

TEST_F(WalCorruptionTest, CorruptSnapshotFailsItsCrcCheckCleanly) {
  {
    rdb::Database db;
    ASSERT_TRUE(db.Open(dir_.path()).ok());
    ASSERT_TRUE(db.Execute("CREATE TABLE t (id INTEGER)").ok());
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1)").ok());
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  std::string snap = ReadFile(dir_.path() + "/snapshot.xupd");
  snap[snap.size() / 2] = static_cast<char>(snap[snap.size() / 2] ^ 0xFF);
  WriteFile(dir_.path() + "/snapshot.xupd", snap);
  rdb::Database db;
  Status s = db.Open(dir_.path());
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("CRC"), std::string::npos) << s;
}

TEST_F(WalCorruptionTest, ScrubRejectsASnapshotTheLoaderRejects) {
  // A snapshot with a valid header and CRC whose payload does not decode:
  // the scrub walks it with the loader's decoder, so it must not call a
  // file clean that Open refuses.
  const std::string path = dir_.path() + "/snapshot.xupd";
  {
    rdb::Database db;
    ASSERT_TRUE(db.Open(dir_.path()).ok());
    ASSERT_TRUE(db.Execute("CREATE TABLE t (id INTEGER)").ok());
    ASSERT_TRUE(db.Checkpoint().ok());
    ASSERT_TRUE(db.VerifyIntegrity().empty());
    const std::string snap = ReadFile(path);
    ASSERT_GT(snap.size(), 36u);
    // Keep the 36-byte header (magic, version, epoch, next id, WAL
    // offset), then claim one table whose name runs 1000 bytes past the
    // end.
    std::string bad = snap.substr(0, 36);
    rdb::binio::PutU32(&bad, 1);     // table count
    rdb::binio::PutU32(&bad, 1000);  // name length
    bad += "t";
    rdb::binio::PutU32(&bad, rdb::binio::Crc32(bad.data(), bad.size()));
    WriteFile(path, bad);
    EXPECT_FALSE(rdb::VerifySnapshotFile(rdb::Vfs::Default(), path).empty());
    EXPECT_FALSE(db.VerifyIntegrity().empty());
  }
  rdb::Database reopened;
  Status s = reopened.Open(dir_.path());
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("malformed"), std::string::npos) << s;
}

TEST_F(WalCorruptionTest, StaleEpochWalIsIgnoredAfterCheckpoint) {
  std::string expected;
  std::string old_wal;
  {
    rdb::Database db;
    ASSERT_TRUE(db.Open(dir_.path()).ok());
    ASSERT_TRUE(db.Execute("CREATE TABLE t (id INTEGER)").ok());
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1)").ok());
    old_wal = ReadFile(dir_.path() + "/wal.xupd");  // epoch 1
    ASSERT_TRUE(db.Checkpoint().ok());              // snapshot epoch 2
    expected = DumpDurableState(db);
  }
  // Simulate a crash between the snapshot rename and the WAL reset: the
  // old epoch-1 WAL is still on disk. Its records are all contained in the
  // snapshot; replaying them would double-apply.
  WriteFile(dir_.path() + "/wal.xupd", old_wal);
  rdb::Database db;
  ASSERT_TRUE(db.Open(dir_.path()).ok());
  EXPECT_EQ(db.stats().recovery_replayed, 0u);
  EXPECT_EQ(DumpDurableState(db), expected);
}

TEST_F(WalCorruptionTest, ScrubEndsTheLogWhereReplayEndsIt) {
  // Replay ends the log at a CRC-valid frame it cannot decode, so a commit
  // frame behind it is lost on recovery. The scrub must agree: a writer
  // that committed past that frame has lost data, and a record naming an
  // undefined table makes replay refuse the file.
  std::vector<std::string> states = BuildUnits(2);
  const std::string path = dir_.path() + "/wal.xupd";
  const std::string wal = ReadFile(path);
  rdb::binio::Reader header(wal.data() + 12, 8);  // past magic + version
  const uint64_t epoch = header.U64();
  ASSERT_TRUE(
      rdb::VerifyWalFile(rdb::Vfs::Default(), path, epoch, epoch, wal.size())
          .empty());

  auto frame = [](const std::string& payload) {
    std::string out;
    rdb::binio::PutU32(&out, static_cast<uint32_t>(payload.size()));
    rdb::binio::PutU32(&out, rdb::binio::Crc32(payload.data(), payload.size()));
    return out + payload;
  };
  std::string commit;
  rdb::binio::PutU8(&commit, 5);  // commit record
  rdb::binio::PutI64(&commit, 1000);
  std::string short_insert;
  rdb::binio::PutU8(&short_insert, 1);  // insert record, payload cut short
  rdb::binio::PutU16(&short_insert, 0);
  std::string undefined_table;
  rdb::binio::PutU8(&undefined_table, 2);  // delete record
  rdb::binio::PutU16(&undefined_table, 999);
  rdb::binio::PutU64(&undefined_table, 0);
  struct Case {
    const char* name;
    std::string payload;
    bool replay_fails;
  };
  for (const Case& c : {Case{"unknown kind", std::string(1, '\x7F'), false},
                        Case{"undecodable payload", short_insert, false},
                        Case{"undefined table id", undefined_table, true}}) {
    SCOPED_TRACE(c.name);
    const std::string bad = wal + frame(c.payload) + frame(commit);
    WriteFile(path, bad);
    EXPECT_FALSE(
        rdb::VerifyWalFile(rdb::Vfs::Default(), path, epoch, epoch, bad.size())
            .empty());
    rdb::Database db;
    Status s = db.Open(dir_.path());
    if (c.replay_fails) {
      EXPECT_FALSE(s.ok());
    } else {
      ASSERT_TRUE(s.ok()) << s;
      EXPECT_EQ(DumpDurableState(db), states.back());
    }
    WriteFile(path, wal);
  }
}

// ---------------------------------------------------------------------------
// Engine layer: reopen-identical across strategies, and the crash-injection
// acceptance property.

std::unique_ptr<RelationalStore> MakeDurableStore(
    const workload::GeneratedDoc& gen, const std::string& dir,
    DeleteStrategy del, InsertStrategy ins, bool load) {
  RelationalStore::Options options;
  options.delete_strategy = del;
  options.insert_strategy = ins;
  options.durability = true;
  options.data_dir = dir;
  options.sync_mode = rdb::SyncMode::kNone;  // tests survive process exit
  auto store = RelationalStore::Create(gen.dtd, options);
  EXPECT_TRUE(store.ok()) << store.status();
  if (!store.ok()) return nullptr;
  if (load && !store.value()->recovered()) {
    Status s = store.value()->Load(*gen.doc);
    EXPECT_TRUE(s.ok()) << s;
  }
  return std::move(store).value();
}

std::string SerializeStore(RelationalStore* store) {
  auto doc = store->Reconstruct();
  EXPECT_TRUE(doc.ok()) << doc.status();
  return doc.ok() ? xml::Serialize(**doc) : std::string();
}

using EngineOp = std::function<Status(RelationalStore*)>;

struct StrategyOp {
  const char* name;
  DeleteStrategy del = DeleteStrategy::kPerTupleTrigger;
  InsertStrategy ins = InsertStrategy::kTable;
  EngineOp op;
};

std::vector<StrategyOp> AllStrategyOps() {
  std::vector<StrategyOp> ops;
  const DeleteStrategy dels[] = {
      DeleteStrategy::kPerTupleTrigger, DeleteStrategy::kPerStatementTrigger,
      DeleteStrategy::kCascade, DeleteStrategy::kAsr};
  for (DeleteStrategy d : dels) {
    ops.push_back({"bulk-delete", d, InsertStrategy::kTable,
                   [](RelationalStore* s) {
                     return s->DeleteWhere("n2", "v2 > 500000");
                   }});
  }
  ops.push_back({"delete-by-ids", DeleteStrategy::kPerTupleTrigger,
                 InsertStrategy::kTable, [](RelationalStore* s) -> Status {
                   auto ids = s->SelectIds("n2", "v2 <= 500000");
                   if (!ids.ok()) return ids.status();
                   return s->DeleteByIds("n2", *ids);
                 }});
  const InsertStrategy inss[] = {InsertStrategy::kTuple,
                                 InsertStrategy::kTable, InsertStrategy::kAsr};
  for (InsertStrategy i : inss) {
    ops.push_back({"bulk-copy", DeleteStrategy::kCascade, i,
                   [](RelationalStore* s) {
                     return s->CopySubtreesWhere("n2", "v2 < 300000",
                                                 s->root_id());
                   }});
  }
  return ops;
}

TEST(EngineRecoveryTest, ReopenedStoreIsIdenticalAcrossAllStrategies) {
  workload::GeneratedDoc gen = MakeDoc();
  for (const StrategyOp& sop : AllStrategyOps()) {
    SCOPED_TRACE(std::string(sop.name) + " del=" + ToString(sop.del) +
                 " ins=" + ToString(sop.ins));
    TempDir dir;
    std::string expected_state;
    std::string expected_xml;
    {
      auto store = MakeDurableStore(gen, dir.path(), sop.del, sop.ins, true);
      ASSERT_NE(store, nullptr);
      ASSERT_FALSE(store->recovered());
      Status s = sop.op(store.get());
      ASSERT_TRUE(s.ok()) << s;
      expected_state = DumpDurableState(*store->db());
      expected_xml = SerializeStore(store.get());
    }
    auto reopened = MakeDurableStore(gen, dir.path(), sop.del, sop.ins, true);
    ASSERT_NE(reopened, nullptr);
    ASSERT_TRUE(reopened->recovered());
    // Element tables, hash indexes, tombstones, next-id, the ASR and the
    // trigger-maintained child tables all come back bit-for-bit.
    EXPECT_EQ(DumpDurableState(*reopened->db()), expected_state);
    EXPECT_EQ(SerializeStore(reopened.get()), expected_xml);
    // Both scrub layers must find a recovered store indistinguishable from
    // a freshly built one.
    std::vector<std::string> iv = reopened->db()->VerifyIntegrity();
    EXPECT_TRUE(iv.empty()) << iv[0];
    std::vector<std::string> sv = reopened->VerifyStore();
    EXPECT_TRUE(sv.empty()) << sv[0];
  }
}

TEST(EngineRecoveryTest, ConstructedInsertAndXQueryUpdateSurviveReopen) {
  auto dtd = testing::MustParseDtd(testing::kCustomerDtd);
  auto doc = testing::MustParse(testing::kCustomerXml);
  TempDir dir;
  RelationalStore::Options options;
  options.delete_strategy = DeleteStrategy::kPerTupleTrigger;
  options.insert_strategy = InsertStrategy::kTable;
  options.durability = true;
  options.data_dir = dir.path();
  options.sync_mode = rdb::SyncMode::kBatched;
  std::string expected_state;
  std::string expected_xml;
  {
    auto store = RelationalStore::Create(dtd, options);
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE(store.value()->Load(*doc).ok());
    Status xq = store.value()->ExecuteXQueryUpdate(R"(
      FOR $o IN document("custdb.xml")//Order[Status="ready"]
      UPDATE $o { INSERT <Status>suspended</Status> })");
    ASSERT_TRUE(xq.ok()) << xq;
    expected_state = DumpDurableState(*store.value()->db());
    expected_xml = SerializeStore(store.value().get());
  }
  auto reopened = RelationalStore::Create(dtd, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ASSERT_TRUE(reopened.value()->recovered());
  EXPECT_EQ(DumpDurableState(*reopened.value()->db()), expected_state);
  EXPECT_EQ(SerializeStore(reopened.value().get()), expected_xml);
}

/// Counts the statements one clean run of `op` issues (including trigger
/// bodies), so the injection loop can hit every boundary.
int64_t CountStatements(const workload::GeneratedDoc& gen,
                        const StrategyOp& sop) {
  TempDir dir;
  auto store = MakeDurableStore(gen, dir.path(), sop.del, sop.ins, true);
  EXPECT_NE(store, nullptr);
  rdb::Stats before = store->stats();
  Status s = sop.op(store.get());
  EXPECT_TRUE(s.ok()) << s;
  rdb::Stats d = store->stats().Delta(before);
  return static_cast<int64_t>(d.statements + d.trigger_statements);
}

TEST(EngineRecoveryTest, CrashInjectionAtEveryStatementBoundary) {
  // The acceptance property: for a failure at EVERY statement boundary of
  // every strategy, reopening the surviving files reproduces exactly the
  // last committed state — the pre-op snapshot when the operation aborted,
  // the post-op state once it ran to completion.
  workload::GeneratedDoc gen = MakeDoc();
  for (const StrategyOp& sop : AllStrategyOps()) {
    SCOPED_TRACE(std::string(sop.name) + " del=" + ToString(sop.del) +
                 " ins=" + ToString(sop.ins));
    int64_t statements = CountStatements(gen, sop);
    ASSERT_GT(statements, 0);
    for (int64_t k = 0; k <= statements; ++k) {
      TempDir dir;
      std::string pre_op;
      std::string post_op;
      bool completed = false;
      {
        auto store = MakeDurableStore(gen, dir.path(), sop.del, sop.ins, true);
        ASSERT_NE(store, nullptr);
        pre_op = DumpDurableState(*store->db());
        store->db()->InjectFailureAfterStatements(k);
        Status s = sop.op(store.get());
        store->db()->InjectFailureAfterStatements(-1);
        completed = s.ok();
        if (completed) post_op = DumpDurableState(*store->db());
        // The store object dies here; anything uncommitted dies with it.
      }
      auto reopened =
          MakeDurableStore(gen, dir.path(), sop.del, sop.ins, false);
      ASSERT_NE(reopened, nullptr);
      ASSERT_TRUE(reopened->recovered());
      std::string recovered = DumpDurableState(*reopened->db());
      if (completed) {
        EXPECT_EQ(recovered, post_op) << "boundary " << k << " (completed)";
      } else {
        EXPECT_EQ(recovered, pre_op) << "boundary " << k << " (aborted)";
      }
    }
  }
}

TEST(EngineRecoveryTest, IncompleteStoreCreationIsReportedNotRecovered) {
  // Durable store creation commits each schema DDL as its own WAL unit; a
  // crash mid-setup leaves a partial catalog. Simulate one: a directory
  // whose WAL holds only the root table's CREATE (no element tables, no
  // triggers, no setup marker). Reopen must refuse cleanly instead of
  // presenting the fragment as a recovered store.
  workload::GeneratedDoc gen = MakeDoc();
  TempDir dir;
  {
    rdb::Database db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    ASSERT_TRUE(
        db.Execute("CREATE TABLE doc (id INTEGER, parentId INTEGER)").ok());
  }
  RelationalStore::Options options;
  options.durability = true;
  options.data_dir = dir.path();
  auto reopened = RelationalStore::Create(gen.dtd, options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_NE(reopened.status().message().find("incomplete"),
            std::string::npos)
      << reopened.status();
}

TEST(EngineRecoveryTest, CheckpointThenMutateThenRecover) {
  workload::GeneratedDoc gen = MakeDoc();
  TempDir dir;
  std::string expected;
  {
    auto store = MakeDurableStore(gen, dir.path(), DeleteStrategy::kAsr,
                                  InsertStrategy::kAsr, true);
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(store->Checkpoint().ok());
    ASSERT_TRUE(store->DeleteWhere("n3", "v3 < 500000").ok());
    expected = DumpDurableState(*store->db());
  }
  auto reopened = MakeDurableStore(gen, dir.path(), DeleteStrategy::kAsr,
                                   InsertStrategy::kAsr, false);
  ASSERT_NE(reopened, nullptr);
  ASSERT_TRUE(reopened->recovered());
  EXPECT_EQ(DumpDurableState(*reopened->db()), expected);
  EXPECT_TRUE(reopened->db()->VerifyIntegrity().empty());
  EXPECT_TRUE(reopened->VerifyStore().empty());
}

TEST(EngineRecoveryTest, ReopenRecoversRootId) {
  // The root tuple is stored with a NULL parentId; a reopened store must
  // find it, or copies to the document root would attach to id 0.
  workload::GeneratedDoc gen = MakeDoc();
  TempDir dir;
  int64_t root_id = 0;
  {
    auto store = MakeDurableStore(gen, dir.path(), DeleteStrategy::kCascade,
                                  InsertStrategy::kTable, true);
    ASSERT_NE(store, nullptr);
    root_id = store->root_id();
  }
  auto reopened = MakeDurableStore(gen, dir.path(), DeleteStrategy::kCascade,
                                   InsertStrategy::kTable, false);
  ASSERT_NE(reopened, nullptr);
  ASSERT_TRUE(reopened->recovered());
  EXPECT_NE(root_id, 0);
  EXPECT_EQ(reopened->root_id(), root_id);
}

TEST(EngineRecoveryTest, AsrStoreWithoutMarkIndexStillUpdatesByScanning) {
  // A durable ASR store created before `asr (marked)` was indexed: dropping
  // the index and reopening stands in for one. Its ASR copies and deletes
  // read the mark set by scanning and must match an indexed store's.
  workload::GeneratedDoc gen = MakeDoc();
  auto update = [](RelationalStore* s) {
    auto dest = s->SelectIds("n1", "");
    ASSERT_TRUE(dest.ok() && !dest->empty());
    ASSERT_TRUE(s->CopySubtreesWhere("n2", "v2 < 300000", dest->back()).ok());
    ASSERT_TRUE(s->DeleteWhere("n3", "v3 < 500000").ok());
  };
  RelationalStore::Options options;
  options.delete_strategy = DeleteStrategy::kAsr;
  options.insert_strategy = InsertStrategy::kAsr;
  auto indexed = RelationalStore::Create(gen.dtd, options);
  ASSERT_TRUE(indexed.ok()) << indexed.status();
  ASSERT_TRUE(indexed.value()->Load(*gen.doc).ok());
  update(indexed.value().get());

  TempDir dir;
  {
    auto store = MakeDurableStore(gen, dir.path(), DeleteStrategy::kAsr,
                                  InsertStrategy::kAsr, true);
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(store->db()->Execute("DROP INDEX idx_asr_marked").ok());
  }
  auto reopened = MakeDurableStore(gen, dir.path(), DeleteStrategy::kAsr,
                                   InsertStrategy::kAsr, false);
  ASSERT_NE(reopened, nullptr);
  ASSERT_TRUE(reopened->recovered());
  const rdb::Table* asr = reopened->db()->FindTable("asr");
  ASSERT_NE(asr, nullptr);
  EXPECT_EQ(asr->FindIndexByName("idx_asr_marked"), nullptr);
  const uint64_t scans = asr->access_stats().scans;
  update(reopened.get());
  EXPECT_GT(asr->access_stats().scans, scans + 2);
  EXPECT_TRUE(reopened->db()->VerifyIntegrity().empty());
  EXPECT_TRUE(reopened->VerifyStore().empty());
  EXPECT_EQ(SerializeStore(reopened.get()),
            SerializeStore(indexed.value().get()));
}

// ---------------------------------------------------------------------------
// Strategy options are persisted in the durable state (the xupd_meta
// table) and verified on reopen: a mismatched reopen is a clean error.

TEST(OptionsPersistenceTest, MismatchedReopenIsCleanError) {
  TempDir dir;
  auto gen = MakeDoc();
  {
    auto store = MakeDurableStore(gen, dir.path(),
                                  DeleteStrategy::kPerTupleTrigger,
                                  InsertStrategy::kTable, true);
    ASSERT_NE(store, nullptr);
  }
  // Different delete strategy: must refuse, naming the field.
  RelationalStore::Options options;
  options.delete_strategy = DeleteStrategy::kCascade;
  options.insert_strategy = InsertStrategy::kTable;
  options.durability = true;
  options.data_dir = dir.path();
  options.sync_mode = rdb::SyncMode::kNone;
  auto mismatched = RelationalStore::Create(gen.dtd, options);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(mismatched.status().ToString().find("delete_strategy"),
            std::string::npos)
      << mismatched.status();

  // ASR maintenance mismatch is caught too (build_asr differs even when
  // the delete strategy field matches).
  options.delete_strategy = DeleteStrategy::kPerTupleTrigger;
  options.build_asr = true;
  auto asr_mismatch = RelationalStore::Create(gen.dtd, options);
  ASSERT_FALSE(asr_mismatch.ok());
  EXPECT_NE(asr_mismatch.status().ToString().find("build_asr"),
            std::string::npos)
      << asr_mismatch.status();

  // The original options still reopen fine.
  auto reopened = MakeDurableStore(gen, dir.path(),
                                   DeleteStrategy::kPerTupleTrigger,
                                   InsertStrategy::kTable, false);
  ASSERT_NE(reopened, nullptr);
  EXPECT_TRUE(reopened->recovered());
}

}  // namespace
}  // namespace xupd
