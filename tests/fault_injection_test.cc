// Storage fault-injection tests (rdb/vfs.h FaultVfs): the headline
// robustness property of the durability subsystem. For EIO / ENOSPC /
// power-loss faults injected at EVERY k-th mutating file operation of a
// representative workload, the database must (a) surface a clean error,
// (b) keep its in-memory and on-disk invariants (VerifyIntegrity /
// VerifyStore find nothing), (c) recover onto exactly a committed unit
// boundary, and (d) resume writes through TryHeal() once the fault clears.
// Transient EINTR / short-write faults must be absorbed by the retry loop
// without the workload ever noticing. Also covers the degraded (read-only)
// mode contract, stale snapshot.tmp cleanup, and SQL CHECK INTEGRITY.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/store.h"
#include "rdb/database.h"
#include "rdb/vfs.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace xupd {
namespace {

using engine::DeleteStrategy;
using engine::InsertStrategy;
using engine::RelationalStore;
using rdb::FaultVfs;
using FaultKind = rdb::FaultVfs::FaultKind;
using xupd::testing::DumpDurableState;
using xupd::testing::MakeDoc;
using xupd::testing::TempDir;
using xupd::testing::WriteFile;

// ---------------------------------------------------------------------------
// Helpers

bool IsBoundaryState(const std::string& got,
                     const std::vector<std::string>& states) {
  for (const std::string& state : states) {
    if (got == state) return true;
  }
  return false;
}

rdb::DurabilityOptions FaultOptions(FaultVfs* fault) {
  rdb::DurabilityOptions opts;
  // Power-loss recovery must land on a commit boundary, so every unit is
  // synced (what survives the simulated outage IS the committed prefix).
  opts.sync_mode = rdb::SyncMode::kCommit;
  opts.vfs = fault;
  return opts;
}

/// The fault-matrix workload: DDL, autocommit DML, a committed transaction,
/// update/delete, a checkpoint, a rolled-back transaction, and a background
/// checkpoint over a fresh tombstone — every WAL and snapshot code path a
/// fig. 6/10 run exercises. "@checkpoint" marks a Database::Checkpoint()
/// call; "@checkpoint_background" a CheckpointBackground() joined by
/// CheckpointWait().
const std::vector<std::string>& WorkloadSteps() {
  static const std::vector<std::string> steps = {
      "CREATE TABLE t (id INTEGER, name VARCHAR)",
      "CREATE INDEX idx_t_id ON t (id)",
      "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')",
      "BEGIN",
      "INSERT INTO t VALUES (4, 'd')",
      "INSERT INTO t VALUES (5, 'e')",
      "COMMIT",
      "UPDATE t SET name = 'z' WHERE id = 2",
      "DELETE FROM t WHERE id = 3",
      "@checkpoint",
      "INSERT INTO t VALUES (6, 'f')",
      "BEGIN",
      "INSERT INTO t VALUES (7, 'g')",
      "ROLLBACK",
      "INSERT INTO t VALUES (8, 'h')",
      "DELETE FROM t WHERE id = 4",
      "@checkpoint_background",
      "INSERT INTO t VALUES (9, 'i')",
  };
  return steps;
}

Status RunStep(rdb::Database* db, const std::string& step) {
  if (step == "@checkpoint") return db->Checkpoint();
  if (step == "@checkpoint_background") {
    XUPD_RETURN_IF_ERROR(db->CheckpointBackground());
    return db->CheckpointWait();
  }
  return db->Execute(step);
}

/// Runs the workload, stopping at the first error. When `states` is given,
/// records the durable state at every commit-unit boundary (outside any
/// transaction) — the only states a recovery may legally land on.
Status RunWorkload(rdb::Database* db, std::vector<std::string>* states) {
  if (states != nullptr) states->push_back(DumpDurableState(*db));
  for (const std::string& step : WorkloadSteps()) {
    Status s = RunStep(db, step);
    if (!s.ok()) return s;
    if (states != nullptr && !db->in_transaction()) {
      states->push_back(DumpDurableState(*db));
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The rdb fault matrix (tentpole acceptance test)

struct CleanSchedule {
  std::vector<std::string> states;  ///< Every commit-boundary durable state.
  int total_ops = 0;                ///< Mutating file ops of one clean run.
};

CleanSchedule RunClean() {
  CleanSchedule clean;
  TempDir dir;
  FaultVfs fault(rdb::Vfs::Default());
  rdb::Database db;
  // Unarmed FaultVfs still counts mutating ops: the clean run yields the
  // deterministic op schedule the matrix below indexes into.
  Status open = db.Open(dir.path(), FaultOptions(&fault));
  EXPECT_TRUE(open.ok()) << open;
  Status s = RunWorkload(&db, &clean.states);
  EXPECT_TRUE(s.ok()) << s;
  clean.total_ops = fault.mutating_ops();
  EXPECT_GT(clean.total_ops, 10);
  return clean;
}

void RunFaultMatrix(FaultKind kind, const CleanSchedule& clean) {
  for (int k = 1; k <= clean.total_ops; ++k) {
    SCOPED_TRACE("fault at mutating op " + std::to_string(k));
    TempDir dir;
    FaultVfs fault(rdb::Vfs::Default());
    if (kind == FaultKind::kPowerLoss) fault.set_torn_tail_bytes(3);
    fault.ArmFault(kind, k);
    rdb::Database db;
    Status open = db.Open(dir.path(), FaultOptions(&fault));
    if (!open.ok()) {
      // (a) Open itself hit the fault: clean error, and once the fault
      // clears a fresh open must land on a committed boundary (here: the
      // empty database).
      EXPECT_FALSE(open.message().empty());
      fault.ClearFault();
      rdb::Database db2;
      Status reopen = db2.Open(dir.path(), FaultOptions(&fault));
      ASSERT_TRUE(reopen.ok()) << reopen;
      EXPECT_TRUE(IsBoundaryState(DumpDurableState(db2), clean.states));
      EXPECT_TRUE(db2.VerifyIntegrity().empty());
      continue;
    }
    Status s = RunWorkload(&db, nullptr);
    if (s.ok()) continue;  // the fault fired on an absorbed/benign op
    // (a) Clean, descriptive error.
    EXPECT_FALSE(s.message().empty());
    if (db.in_transaction()) (void)db.Rollback();
    // (b) Invariants hold right now — even mid-fault, the scrub is
    // read-only and must pass.
    std::vector<std::string> violations = db.VerifyIntegrity();
    EXPECT_TRUE(violations.empty())
        << "after fault: " << (violations.empty() ? "" : violations[0]);
    if (db.read_only()) {
      EXPECT_FALSE(db.health().cause.empty());
      // Degraded contract: writes are rejected with kUnavailable while the
      // fault persists, reads keep working.
      Status rejected = db.Execute("INSERT INTO t VALUES (99, 'rejected')");
      EXPECT_EQ(rejected.code(), StatusCode::kUnavailable) << rejected;
      fault.ClearFault();
      // (d) TryHeal returns to read-write once the fault clears...
      Status heal = db.TryHeal();
      ASSERT_TRUE(heal.ok()) << heal;
      EXPECT_FALSE(db.read_only());
    } else {
      // Retryable failure (e.g. a checkpoint that never renamed its tmp
      // file): the database stays read-write.
      fault.ClearFault();
    }
    // (c) ...and the recovered state is exactly a committed unit boundary.
    std::string got = DumpDurableState(db);
    bool on_boundary = IsBoundaryState(got, clean.states);
    if (!on_boundary && !db.read_only()) {
      // A power-loss fault can kill the WAL handle without any statement
      // noticing until the next write; force the heal path and re-check.
      Status poke = db.Execute("DELETE FROM t WHERE id = 0");
      if (!poke.ok() && db.read_only()) {
        ASSERT_TRUE(db.TryHeal().ok());
        got = DumpDurableState(db);
        on_boundary = IsBoundaryState(got, clean.states);
      }
    }
    EXPECT_TRUE(on_boundary) << "recovered a non-boundary state:\n" << got;
    EXPECT_TRUE(db.VerifyIntegrity().empty());
    // (d) Writes resume for real.
    if (db.FindTable("t") == nullptr) {
      ASSERT_TRUE(
          db.Execute("CREATE TABLE t (id INTEGER, name VARCHAR)").ok());
    }
    Status resumed = db.Execute("INSERT INTO t VALUES (100, 'resumed')");
    if (!resumed.ok()) {
      // Dead power-loss handle surfacing on first use: one heal allowed.
      ASSERT_TRUE(db.read_only()) << resumed;
      ASSERT_TRUE(db.TryHeal().ok());
      ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (100, 'resumed')").ok());
    }
    EXPECT_TRUE(db.VerifyIntegrity().empty());
  }
}

TEST(RdbFaultMatrixTest, EioAtEveryMutatingOp) {
  RunFaultMatrix(FaultKind::kEio, RunClean());
}

TEST(RdbFaultMatrixTest, EnospcAtEveryMutatingOp) {
  RunFaultMatrix(FaultKind::kEnospc, RunClean());
}

TEST(RdbFaultMatrixTest, PowerLossAtEveryMutatingOp) {
  RunFaultMatrix(FaultKind::kPowerLoss, RunClean());
}

TEST(RdbFaultMatrixTest, TransientEintrAndShortWritesAreAbsorbed) {
  // EINTR and short writes are not failures: WriteFully's bounded retry loop
  // must absorb them with the workload none the wiser.
  for (FaultKind kind : {FaultKind::kEintr, FaultKind::kShortWrite}) {
    CleanSchedule clean = RunClean();
    for (int k = 1; k <= clean.total_ops; k += 3) {
      SCOPED_TRACE("transient fault at op " + std::to_string(k));
      TempDir dir;
      FaultVfs fault(rdb::Vfs::Default());
      fault.ArmFault(kind, k);
      rdb::Database db;
      ASSERT_TRUE(db.Open(dir.path(), FaultOptions(&fault)).ok());
      Status s = RunWorkload(&db, nullptr);
      EXPECT_TRUE(s.ok()) << s;
      EXPECT_FALSE(db.read_only());
      EXPECT_TRUE(db.VerifyIntegrity().empty());
      EXPECT_TRUE(
          IsBoundaryState(DumpDurableState(db), clean.states));
    }
  }
}

// ---------------------------------------------------------------------------
// Degraded (read-only) mode contract

TEST(ReadOnlyModeTest, ReadsServeWritesRejectHealRestores) {
  TempDir dir;
  FaultVfs fault(rdb::Vfs::Default());
  rdb::Database db;
  ASSERT_TRUE(db.Open(dir.path(), FaultOptions(&fault)).ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE t (id INTEGER, name VARCHAR)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1, 'a')").ok());

  // Break the WAL on the next append.
  fault.ArmFault(FaultKind::kEio, 1, "wal");
  Status broken = db.Execute("INSERT INTO t VALUES (2, 'b')");
  ASSERT_FALSE(broken.ok());
  ASSERT_TRUE(db.read_only());
  rdb::Database::Health h = db.health();
  EXPECT_TRUE(h.read_only);
  EXPECT_NE(h.cause.find("EIO"), std::string::npos) << h.cause;

  // Reads keep serving the in-memory state (which includes the statement
  // whose memory effects landed before its WAL unit failed).
  auto rows = db.ExecuteQuery("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->rows[0][0].AsInt(), 2);
  EXPECT_TRUE(db.ExecuteQuery("EXPLAIN SELECT * FROM t WHERE id = 1").ok());
  auto scrub = db.ExecuteQuery("CHECK INTEGRITY");
  ASSERT_TRUE(scrub.ok()) << scrub.status();

  // Writes to durable state are rejected with kUnavailable naming the
  // original fault and the healing path.
  Status ins = db.Execute("INSERT INTO t VALUES (3, 'c')");
  EXPECT_EQ(ins.code(), StatusCode::kUnavailable);
  EXPECT_NE(ins.message().find("read-only"), std::string::npos) << ins;
  EXPECT_NE(ins.message().find("EIO"), std::string::npos) << ins;
  EXPECT_NE(ins.message().find("TryHeal"), std::string::npos) << ins;
  EXPECT_EQ(db.Execute("CREATE TABLE u (id INTEGER)").code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(db.Execute("DELETE FROM t WHERE id = 1").code(),
            StatusCode::kUnavailable);

  // Ephemeral scratch tables bypass the WAL and stay writable.
  auto scratch = db.CreateTableDirect(
      rdb::TableSchema("scratch", {{"id", rdb::ColumnType::kInteger}}),
      /*durable=*/false);
  ASSERT_TRUE(scratch.ok()) << scratch.status();
  EXPECT_TRUE(db.InsertDirect(scratch.value(), {rdb::Value::Int(7)}).ok());

  // Healing is refused while the fault persists (kEio keeps failing)...
  EXPECT_FALSE(db.TryHeal(2).ok());
  EXPECT_TRUE(db.read_only());

  // ...and succeeds once it clears, discarding the never-durable row.
  fault.ClearFault();
  Status heal = db.TryHeal();
  ASSERT_TRUE(heal.ok()) << heal;
  EXPECT_FALSE(db.read_only());
  EXPECT_TRUE(db.health().cause.empty());
  rows = db.ExecuteQuery("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows[0][0].AsInt(), 1);
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (2, 'b2')").ok());
  EXPECT_GE(db.stats().heal_attempts, 1u);
  EXPECT_TRUE(db.VerifyIntegrity().empty());
}

// ---------------------------------------------------------------------------
// Engine fault matrix: the paper's fig. 6 (bulk delete) and fig. 10 (bulk
// copy) operations under injected faults.

std::unique_ptr<RelationalStore> MakeFaultStore(
    const workload::GeneratedDoc& gen, const std::string& dir,
    DeleteStrategy del, InsertStrategy ins, FaultVfs* fault) {
  RelationalStore::Options options;
  options.delete_strategy = del;
  options.insert_strategy = ins;
  options.durability = true;
  options.data_dir = dir;
  options.sync_mode = rdb::SyncMode::kCommit;
  options.vfs = fault;
  auto store = RelationalStore::Create(gen.dtd, options);
  EXPECT_TRUE(store.ok()) << store.status();
  if (!store.ok()) return nullptr;
  if (!store.value()->recovered()) {
    Status s = store.value()->Load(*gen.doc);
    EXPECT_TRUE(s.ok()) << s;
  }
  return std::move(store).value();
}

using EngineOp = std::function<Status(RelationalStore*)>;

struct EngineCase {
  const char* name;
  DeleteStrategy del;
  InsertStrategy ins;
  EngineOp op;
};

std::vector<EngineCase> EngineCases() {
  return {
      {"fig6-bulk-delete", DeleteStrategy::kPerTupleTrigger,
       InsertStrategy::kTable,
       [](RelationalStore* s) { return s->DeleteWhere("n2", "v2 > 500000"); }},
      {"fig10-bulk-copy", DeleteStrategy::kCascade, InsertStrategy::kTable,
       [](RelationalStore* s) {
         return s->CopySubtreesWhere("n2", "v2 < 300000", s->root_id());
       }},
      {"delete-then-checkpoint", DeleteStrategy::kCascade,
       InsertStrategy::kTable,
       [](RelationalStore* s) {
         Status d = s->DeleteWhere("n3", "v3 < 400000");
         if (!d.ok()) return d;
         return s->Checkpoint();
       }},
  };
}

TEST(EngineFaultMatrixTest, UpdateOperationsSurviveInjectedFaults) {
  workload::GeneratedDoc gen = MakeDoc();
  for (const EngineCase& ec : EngineCases()) {
    SCOPED_TRACE(ec.name);
    // Clean run: pre/post states and the op's mutating-op count (the
    // deterministic fault schedule).
    std::string pre;
    std::string post;
    int total_ops = 0;
    {
      TempDir dir;
      FaultVfs fault(rdb::Vfs::Default());
      auto store = MakeFaultStore(gen, dir.path(), ec.del, ec.ins, &fault);
      ASSERT_NE(store, nullptr);
      pre = DumpDurableState(*store->db());
      int before = fault.mutating_ops();
      Status s = ec.op(store.get());
      ASSERT_TRUE(s.ok()) << s;
      total_ops = fault.mutating_ops() - before;
      post = DumpDurableState(*store->db());
      EXPECT_TRUE(store->VerifyStore().empty());
    }
    ASSERT_GT(total_ops, 0);
    const int step = std::max(1, total_ops / 20);
    for (FaultKind kind : {FaultKind::kEio, FaultKind::kPowerLoss}) {
      for (int k = 1; k <= total_ops; k += step) {
        SCOPED_TRACE("kind " + std::to_string(static_cast<int>(kind)) +
                     " fault at op " + std::to_string(k));
        TempDir dir;
        FaultVfs fault(rdb::Vfs::Default());
        auto store = MakeFaultStore(gen, dir.path(), ec.del, ec.ins, &fault);
        ASSERT_NE(store, nullptr);
        ASSERT_EQ(DumpDurableState(*store->db()), pre);
        fault.ArmFault(kind, k);
        Status s = ec.op(store.get());
        fault.ClearFault();
        rdb::Database* db = store->db();
        if (db->in_transaction()) (void)db->Rollback();
        if (s.ok()) {
          EXPECT_TRUE(store->VerifyStore().empty());
          continue;
        }
        // (a) clean error; (b) both scrub layers pass immediately.
        EXPECT_FALSE(s.message().empty());
        std::vector<std::string> ev = store->VerifyStore();
        EXPECT_TRUE(ev.empty()) << ev[0];
        std::vector<std::string> rv = db->VerifyIntegrity();
        EXPECT_TRUE(rv.empty()) << rv[0];
        if (db->read_only()) {
          Status heal = db->TryHeal();
          ASSERT_TRUE(heal.ok()) << heal;
          EXPECT_FALSE(db->read_only());
        }
        // (c) the durable state is exactly the pre-op or post-op boundary.
        std::string got = DumpDurableState(*db);
        EXPECT_TRUE(got == pre || got == post)
            << "fault left a non-boundary state";
        EXPECT_TRUE(store->VerifyStore().empty());
        EXPECT_TRUE(db->VerifyIntegrity().empty());
        // (d) the operation can be re-issued to completion.
        if (got == pre) {
          Status retry = ec.op(store.get());
          if (!retry.ok() && db->read_only()) {
            ASSERT_TRUE(db->TryHeal().ok());
            retry = ec.op(store.get());
          }
          EXPECT_TRUE(retry.ok()) << retry;
          EXPECT_TRUE(store->VerifyStore().empty());
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Scrub detection power: the scrubs must actually catch corruption, not
// just pass on healthy stores.

TEST(VerifyStoreTest, DetectsOrphanedSubtrees) {
  workload::GeneratedDoc gen = MakeDoc();
  RelationalStore::Options options;
  options.delete_strategy = DeleteStrategy::kCascade;  // no cascade triggers
  auto store = RelationalStore::Create(gen.dtd, options);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(store.value()->Load(*gen.doc).ok());
  ASSERT_TRUE(store.value()->VerifyStore().empty());
  // Deleting mid-level tuples directly (no strategy, no cascade) orphans
  // their children — exactly what the engine scrub exists to catch.
  ASSERT_TRUE(store.value()->db()->Execute("DELETE FROM n2").ok());
  std::vector<std::string> violations = store.value()->VerifyStore();
  ASSERT_FALSE(violations.empty());
  bool mentions_orphan = false;
  for (const std::string& v : violations) {
    if (v.find("orphan") != std::string::npos) mentions_orphan = true;
  }
  EXPECT_TRUE(mentions_orphan) << violations[0];
}

TEST(CheckIntegritySqlTest, ReportsOkThenFlagsOnDiskCorruption) {
  TempDir dir;
  rdb::Database db;
  ASSERT_TRUE(db.Open(dir.path()).ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE t (id INTEGER)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1)").ok());
  auto clean = db.ExecuteQuery("CHECK INTEGRITY");
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_EQ(clean->columns.size(), 1u);
  EXPECT_EQ(clean->columns[0], "violation");
  ASSERT_EQ(clean->rows.size(), 1u);
  EXPECT_EQ(clean->rows[0][0].AsString(), "ok");
  uint64_t scrubs = db.stats().integrity_checks;
  EXPECT_GE(scrubs, 1u);

  // Corrupt the snapshot under the running database: the online scrub
  // re-walks the file CRCs and must flag it without crashing anything.
  ASSERT_TRUE(db.Checkpoint().ok());
  std::string snap_path = dir.path() + "/snapshot.xupd";
  auto snap = rdb::ReadWholeFile(rdb::Vfs::Default(), snap_path);
  ASSERT_TRUE(snap.ok());
  std::string corrupt = *snap;
  corrupt[corrupt.size() / 2] =
      static_cast<char>(corrupt[corrupt.size() / 2] ^ 0xFF);
  WriteFile(snap_path, corrupt);
  auto flagged = db.ExecuteQuery("CHECK INTEGRITY");
  ASSERT_TRUE(flagged.ok()) << flagged.status();
  bool mentions_crc = false;
  for (const auto& row : flagged->rows) {
    if (row[0].AsString().find("CRC") != std::string::npos) {
      mentions_crc = true;
    }
  }
  EXPECT_TRUE(mentions_crc);
  // Restore and the scrub is clean again — it never mutates anything.
  WriteFile(snap_path, *snap);
  EXPECT_TRUE(db.VerifyIntegrity().empty());
  EXPECT_GT(db.stats().integrity_checks, scrubs);
}

TEST(CheckIntegritySqlTest, IsRejectedUnderExplainButRunsInReadOnlyMode) {
  TempDir dir;
  FaultVfs fault(rdb::Vfs::Default());
  rdb::Database db;
  ASSERT_TRUE(db.Open(dir.path(), FaultOptions(&fault)).ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE t (id INTEGER)").ok());
  EXPECT_FALSE(db.ExecuteQuery("EXPLAIN CHECK INTEGRITY").ok());
  fault.ArmFault(FaultKind::kEio, 1, "wal");
  ASSERT_FALSE(db.Execute("INSERT INTO t VALUES (1)").ok());
  ASSERT_TRUE(db.read_only());
  // The scrub stays available while degraded (and while the fault is still
  // armed — it is strictly read-only).
  auto scrub = db.ExecuteQuery("CHECK INTEGRITY");
  ASSERT_TRUE(scrub.ok()) << scrub.status();
  ASSERT_EQ(scrub->rows.size(), 1u);
  EXPECT_EQ(scrub->rows[0][0].AsString(), "ok");
}

// ---------------------------------------------------------------------------
// Satellites

TEST(StaleSnapshotTmpTest, LeftoverTmpFileIsRemovedOnOpen) {
  TempDir dir;
  {
    rdb::Database db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    ASSERT_TRUE(db.Execute("CREATE TABLE t (id INTEGER)").ok());
  }
  // A crash between writing snapshot.tmp and renaming it leaves the tmp
  // file behind; Open must clean it up instead of letting it shadow a
  // later checkpoint.
  std::string tmp = dir.path() + "/snapshot.tmp";
  WriteFile(tmp, "half-written snapshot garbage");
  ASSERT_TRUE(rdb::Vfs::Default()->Exists(tmp));
  rdb::Database db;
  ASSERT_TRUE(db.Open(dir.path()).ok());
  EXPECT_FALSE(rdb::Vfs::Default()->Exists(tmp));
  ASSERT_TRUE(db.Checkpoint().ok());
  EXPECT_FALSE(rdb::Vfs::Default()->Exists(tmp));
}

TEST(ErrnoStatusTest, NamesTheErrnoSymbolically) {
  Status s = rdb::ErrnoStatus("cannot append to WAL", "/x/wal.xupd", ENOSPC);
  EXPECT_NE(s.message().find("ENOSPC"), std::string::npos) << s;
  EXPECT_NE(s.message().find("/x/wal.xupd"), std::string::npos) << s;
  EXPECT_STREQ(rdb::ErrnoName(EIO), "EIO");
  EXPECT_STREQ(rdb::ErrnoName(EINTR), "EINTR");
}

TEST(TryHealTest, WithoutDurabilityOrInsideTxnIsRejected) {
  rdb::Database db;  // durability never opened
  EXPECT_EQ(db.TryHeal().code(), StatusCode::kInvalidArgument);
  TempDir dir;
  FaultVfs fault(rdb::Vfs::Default());
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir.path(), FaultOptions(&fault)).ok());
  ASSERT_TRUE(db2.Execute("CREATE TABLE t (id INTEGER)").ok());
  fault.ArmFault(FaultKind::kEio, 1, "wal");
  ASSERT_FALSE(db2.Execute("INSERT INTO t VALUES (1)").ok());
  ASSERT_TRUE(db2.read_only());
  fault.ClearFault();
  ASSERT_TRUE(db2.Begin().ok());
  EXPECT_EQ(db2.TryHeal().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(db2.Rollback().ok());
  EXPECT_TRUE(db2.TryHeal().ok());
}

}  // namespace
}  // namespace xupd
