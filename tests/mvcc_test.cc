// Epoch-snapshot MVCC tests: reader sessions pinned before a mutation keep
// seeing the old rows, readers after the commit see the new ones, explicit
// pins are repeatable across writer churn, and the background machinery
// (off-thread checkpoint, time-based group commit) preserves the durability
// contract. The reader/writer stress cases double as the TSan smoke target.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/store.h"
#include "rdb/database.h"
#include "rdb/vfs.h"
#include "rdb/wal.h"
#include "test_util.h"

namespace xupd {
namespace {

using engine::DeleteStrategy;
using engine::InsertStrategy;
using engine::RelationalStore;
using xupd::testing::DumpDurableState;
using xupd::testing::TempDir;

void Must(rdb::Database* db, const std::string& sql) {
  Status s = db->Execute(sql);
  ASSERT_TRUE(s.ok()) << sql << ": " << s;
}

int64_t WriterCount(rdb::Database* db, const std::string& sql) {
  auto r = db->ExecuteQuery(sql);
  EXPECT_TRUE(r.ok()) << sql << ": " << r.status();
  return r.ok() ? r->rows[0][0].AsInt() : -1;
}

int64_t ReaderCount(rdb::ReaderSession* rs, const std::string& sql) {
  auto r = rs->ExecuteQuery(sql);
  EXPECT_TRUE(r.ok()) << sql << ": " << r.status();
  return r.ok() ? r->rows[0][0].AsInt() : -1;
}

// ---------------------------------------------------------------------------
// rdb layer: snapshot visibility

TEST(MvccTest, PinnedReaderSeesPreDeleteRows) {
  rdb::Database db;
  Must(&db, "CREATE TABLE t (id INTEGER, v INTEGER)");
  for (int i = 0; i < 10; ++i) {
    Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ", 1)");
  }
  auto rs = db.OpenReaderSession();
  ASSERT_TRUE(rs.ok()) << rs.status();
  (*rs)->PinSnapshot();
  Must(&db, "DELETE FROM t WHERE id < 5");
  // The pinned reader still scans the pre-delete snapshot...
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM t"), 10);
  // ...while the writer already sees the new state.
  EXPECT_EQ(WriterCount(&db, "SELECT COUNT(*) FROM t"), 5);
  (*rs)->Unpin();
  // A fresh statement pins the current epoch and sees the delete.
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM t"), 5);
}

TEST(MvccTest, PinnedReaderSeesPreInsertState) {
  rdb::Database db;
  Must(&db, "CREATE TABLE t (id INTEGER)");
  Must(&db, "INSERT INTO t VALUES (1)");
  auto rs = db.OpenReaderSession();
  ASSERT_TRUE(rs.ok()) << rs.status();
  (*rs)->PinSnapshot();
  Must(&db, "INSERT INTO t VALUES (2)");
  Must(&db, "INSERT INTO t VALUES (3)");
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM t"), 1);
  (*rs)->Unpin();
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM t"), 3);
}

TEST(MvccTest, PinnedReaderSeesPreUpdateValuesThroughVersionBuffer) {
  rdb::Database db;
  Must(&db, "CREATE TABLE t (id INTEGER, v INTEGER)");
  for (int i = 0; i < 8; ++i) {
    Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ", 100)");
  }
  auto rs = db.OpenReaderSession();
  ASSERT_TRUE(rs.ok()) << rs.status();
  (*rs)->PinSnapshot();
  Must(&db, "UPDATE t SET v = 200 WHERE id >= 4");
  // In-place updates copy the pre-image into the version buffer; the pinned
  // reader reconstructs the old values.
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT SUM(v) FROM t"), 800);
  EXPECT_EQ(WriterCount(&db, "SELECT SUM(v) FROM t"), 1200);
  (*rs)->Unpin();
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT SUM(v) FROM t"), 1200);
}

TEST(MvccTest, VersionBufferTrimsWhenPinnedReaderReleases) {
  // Epoch-aware GC (PR 9): pre-images parked for a pinned reader survive
  // exactly as long as the pin, and their reclamation is observable through
  // the mvcc.* telemetry.
  rdb::Database db;
  Must(&db, "CREATE TABLE t (id INTEGER, v INTEGER)");
  for (int i = 0; i < 8; ++i) {
    Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ", 100)");
  }
  std::atomic<int64_t>* version_rows = db.metrics().Gauge("mvcc.version_rows");
  std::atomic<uint64_t>* gc_rows = db.metrics().Counter("mvcc.version_gc_rows");
  std::atomic<int64_t>* lag = db.metrics().Gauge("epoch.lag");
  const uint64_t gc_before = gc_rows->load(std::memory_order_relaxed);

  auto rs = db.OpenReaderSession();
  ASSERT_TRUE(rs.ok()) << rs.status();
  (*rs)->PinSnapshot();
  Must(&db, "UPDATE t SET v = 200 WHERE id >= 4");
  // The four pre-images are parked: the commit boundary saw the pin and
  // kept them, reporting them in the version-buffer gauge and as lag.
  EXPECT_GE(version_rows->load(std::memory_order_relaxed), 4);
  EXPECT_GT(lag->load(std::memory_order_relaxed), 0);
  EXPECT_EQ(gc_rows->load(std::memory_order_relaxed), gc_before);
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT SUM(v) FROM t"), 800);

  (*rs)->Unpin();
  // The next commit boundary sees no pin: min-pinned advances past the
  // retire epoch and the buffer is trimmed, proven by the counter.
  Must(&db, "INSERT INTO t VALUES (99, 0)");
  EXPECT_EQ(version_rows->load(std::memory_order_relaxed), 0);
  EXPECT_GE(gc_rows->load(std::memory_order_relaxed), gc_before + 4);
  EXPECT_EQ(lag->load(std::memory_order_relaxed), 0);
  // The reader now reconstructs nothing — it reads the live rows.
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT SUM(v) FROM t"), 1200);
}

TEST(MvccTest, UncommittedTransactionInvisibleToReaders) {
  rdb::Database db;
  Must(&db, "CREATE TABLE t (id INTEGER)");
  Must(&db, "INSERT INTO t VALUES (1)");
  auto rs = db.OpenReaderSession();
  ASSERT_TRUE(rs.ok()) << rs.status();
  Must(&db, "BEGIN");
  Must(&db, "INSERT INTO t VALUES (2)");
  Must(&db, "DELETE FROM t WHERE id = 1");
  // Epochs advance only at outermost commit boundaries, so a statement-pinned
  // reader cannot observe the open transaction's effects.
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM t"), 1);
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM t WHERE id = 1"), 1);
  Must(&db, "COMMIT");
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM t"), 1);
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM t WHERE id = 2"), 1);
}

TEST(MvccTest, RolledBackTransactionNeverVisibleToReaders) {
  rdb::Database db;
  Must(&db, "CREATE TABLE t (id INTEGER)");
  Must(&db, "INSERT INTO t VALUES (1)");
  auto rs = db.OpenReaderSession();
  ASSERT_TRUE(rs.ok()) << rs.status();
  Must(&db, "BEGIN");
  Must(&db, "INSERT INTO t VALUES (2)");
  Must(&db, "ROLLBACK");
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM t"), 1);
  EXPECT_EQ(WriterCount(&db, "SELECT COUNT(*) FROM t"), 1);
}

TEST(MvccTest, ExplicitPinIsRepeatableAcrossWriterChurn) {
  rdb::Database db;
  Must(&db, "CREATE TABLE t (id INTEGER)");
  for (int i = 0; i < 4; ++i) {
    Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ")");
  }
  auto rs = db.OpenReaderSession();
  ASSERT_TRUE(rs.ok()) << rs.status();
  uint64_t pin = (*rs)->PinSnapshot();
  EXPECT_GT(pin, 0u);
  EXPECT_TRUE((*rs)->pinned());
  int64_t first = ReaderCount(rs->get(), "SELECT COUNT(*) FROM t");
  for (int i = 0; i < 20; ++i) {
    Must(&db, "INSERT INTO t VALUES (100)");
    Must(&db, "DELETE FROM t WHERE id = " + std::to_string(i % 4));
    // Repeatable reads: every query inside the pin sees the same snapshot.
    EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM t"), first);
  }
  (*rs)->Unpin();
  EXPECT_FALSE((*rs)->pinned());
  EXPECT_NE(ReaderCount(rs->get(), "SELECT COUNT(*) FROM t"), first);
}

TEST(MvccTest, ReaderSessionRejectsMutationsAndAnalyze) {
  rdb::Database db;
  Must(&db, "CREATE TABLE t (id INTEGER)");
  auto rs = db.OpenReaderSession();
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_FALSE((*rs)->ExecuteQuery("INSERT INTO t VALUES (1)").ok());
  EXPECT_FALSE((*rs)->ExecuteQuery("DELETE FROM t").ok());
  EXPECT_FALSE((*rs)->ExecuteQuery("DROP TABLE t").ok());
  EXPECT_FALSE((*rs)->ExecuteQuery("CREATE TABLE u (id INTEGER)").ok());
  EXPECT_FALSE((*rs)->ExecuteQuery("EXPLAIN ANALYZE SELECT * FROM t").ok());
  // Plain EXPLAIN of a SELECT is allowed (no execution).
  EXPECT_TRUE((*rs)->ExecuteQuery("EXPLAIN SELECT * FROM t").ok());
}

TEST(MvccTest, ReaderPlanCacheTracksDdl) {
  rdb::Database db;
  Must(&db, "CREATE TABLE t (id INTEGER)");
  Must(&db, "INSERT INTO t VALUES (1)");
  auto rs = db.OpenReaderSession();
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM t"), 1);
  Must(&db, "DROP TABLE t");
  // The cached plan's table dependency is gone; the reader must not scan a
  // dangling Table*.
  EXPECT_FALSE((*rs)->ExecuteQuery("SELECT COUNT(*) FROM t").ok());
  Must(&db, "CREATE TABLE t (id INTEGER, v INTEGER)");
  Must(&db, "INSERT INTO t VALUES (7, 8)");
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM t"), 1);
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT SUM(v) FROM t"), 8);
}

TEST(MvccTest, ReaderStatementCacheIsBounded) {
  rdb::Database db;
  Must(&db, "CREATE TABLE t (id INTEGER)");
  auto rs = db.OpenReaderSession();
  ASSERT_TRUE(rs.ok()) << rs.status();
  const std::string first = "SELECT COUNT(*) FROM t";
  EXPECT_EQ(ReaderCount(rs->get(), first), 0);
  // 128 more distinct texts push the first one out of the session's cache.
  for (int i = 0; i < 128; ++i) {
    ASSERT_TRUE((*rs)->ExecuteQuery("SELECT id FROM t WHERE id = " +
                                    std::to_string(i))
                    .ok());
  }
  const uint64_t parses = (*rs)->stats().sql_parses;
  EXPECT_EQ(ReaderCount(rs->get(), first), 0);
  EXPECT_EQ((*rs)->stats().sql_parses, parses + 1);
  // The most recent texts are still cached.
  ASSERT_TRUE((*rs)->ExecuteQuery("SELECT id FROM t WHERE id = 127").ok());
  EXPECT_EQ((*rs)->stats().sql_parses, parses + 1);
}

TEST(MvccTest, ReaderQueriesWithPredicatesJoinsAndParams) {
  rdb::Database db;
  Must(&db, "CREATE TABLE a (id INTEGER, bid INTEGER)");
  Must(&db, "CREATE TABLE b (id INTEGER, name VARCHAR)");
  Must(&db, "CREATE INDEX idx_b_id ON b (id)");
  Must(&db, "INSERT INTO b VALUES (1, 'x')");
  Must(&db, "INSERT INTO b VALUES (2, 'y')");
  Must(&db, "INSERT INTO a VALUES (10, 1)");
  Must(&db, "INSERT INTO a VALUES (11, 2)");
  Must(&db, "INSERT INTO a VALUES (12, 2)");
  auto rs = db.OpenReaderSession();
  ASSERT_TRUE(rs.ok()) << rs.status();
  // Joins run on snapshot scans (index probes are disabled for readers).
  EXPECT_EQ(ReaderCount(rs->get(),
                        "SELECT COUNT(*) FROM a, b "
                        "WHERE a.bid = b.id AND b.name = 'y'"),
            2);
  auto bound = (*rs)->ExecuteQueryBound(
      "SELECT COUNT(*) FROM a WHERE bid = ?", {rdb::Value::Int(2)});
  ASSERT_TRUE(bound.ok()) << bound.status();
  EXPECT_EQ(bound->rows[0][0].AsInt(), 2);
  // Cached-plan re-execution with different params stays consistent.
  bound = (*rs)->ExecuteQueryBound("SELECT COUNT(*) FROM a WHERE bid = ?",
                                   {rdb::Value::Int(1)});
  ASSERT_TRUE(bound.ok()) << bound.status();
  EXPECT_EQ(bound->rows[0][0].AsInt(), 1);
}

// ---------------------------------------------------------------------------
// engine layer: every delete/insert strategy preserves snapshot isolation

class MvccDeleteStrategyTest
    : public ::testing::TestWithParam<DeleteStrategy> {};

TEST_P(MvccDeleteStrategyTest, PinnedReaderSeesPreDeleteSubtrees) {
  auto dtd = xupd::testing::MustParseDtd(xupd::testing::kCustomerDtd);
  RelationalStore::Options options;
  options.delete_strategy = GetParam();
  options.insert_strategy = InsertStrategy::kTable;
  auto store = RelationalStore::Create(dtd, options);
  ASSERT_TRUE(store.ok()) << store.status();
  auto doc = xupd::testing::MustParse(xupd::testing::kCustomerXml);
  ASSERT_TRUE((*store)->Load(*doc).ok());

  auto rs = (*store)->db()->OpenReaderSession();
  ASSERT_TRUE(rs.ok()) << rs.status();
  (*rs)->PinSnapshot();
  ASSERT_TRUE((*store)->DeleteWhere("Customer", "Name = 'John'").ok());
  // Pinned before the delete: the whole subtree is still visible.
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM Customer"), 3);
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM Order"), 3);
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM OrderLine"), 4);
  (*rs)->Unpin();
  // After the commit: the reader sees the post-delete state.
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM Customer"), 1);
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM Order"), 1);
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM OrderLine"), 1);
}

INSTANTIATE_TEST_SUITE_P(AllDeleteStrategies, MvccDeleteStrategyTest,
                         ::testing::Values(DeleteStrategy::kPerTupleTrigger,
                                           DeleteStrategy::kPerStatementTrigger,
                                           DeleteStrategy::kCascade,
                                           DeleteStrategy::kAsr));

class MvccInsertStrategyTest
    : public ::testing::TestWithParam<InsertStrategy> {};

TEST_P(MvccInsertStrategyTest, PinnedReaderSeesPreInsertSubtrees) {
  auto dtd = xupd::testing::MustParseDtd(xupd::testing::kCustomerDtd);
  RelationalStore::Options options;
  options.delete_strategy = DeleteStrategy::kPerTupleTrigger;
  options.insert_strategy = GetParam();
  auto store = RelationalStore::Create(dtd, options);
  ASSERT_TRUE(store.ok()) << store.status();
  auto doc = xupd::testing::MustParse(xupd::testing::kCustomerXml);
  ASSERT_TRUE((*store)->Load(*doc).ok());

  auto rs = (*store)->db()->OpenReaderSession();
  ASSERT_TRUE(rs.ok()) << rs.status();
  (*rs)->PinSnapshot();
  ASSERT_TRUE((*store)
                  ->CopySubtreesWhere("Customer", "Name = 'Mary'",
                                      (*store)->root_id())
                  .ok());
  // Pinned before the copy: old counts.
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM Customer"), 3);
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM Order"), 3);
  (*rs)->Unpin();
  // After the commit: Mary's subtree is duplicated.
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM Customer"), 4);
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM Order"), 4);
}

INSTANTIATE_TEST_SUITE_P(AllInsertStrategies, MvccInsertStrategyTest,
                         ::testing::Values(InsertStrategy::kTuple,
                                           InsertStrategy::kTable,
                                           InsertStrategy::kAsr));

// ---------------------------------------------------------------------------
// background checkpoint

TEST(MvccTest, BackgroundCheckpointConcurrentWithCommits) {
  TempDir dir;
  {
    rdb::Database db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    Must(&db, "CREATE TABLE t (id INTEGER)");
    for (int i = 0; i < 50; ++i) {
      Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ")");
    }
    ASSERT_TRUE(db.CheckpointBackground().ok());
    EXPECT_FALSE(db.CheckpointBackground().ok());  // one at a time
    // The writer keeps committing while the checkpointer serializes its
    // pinned snapshot.
    for (int i = 50; i < 80; ++i) {
      Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ")");
    }
    ASSERT_TRUE(db.CheckpointWait().ok());
    EXPECT_FALSE(db.checkpoint_running());
    for (int i = 80; i < 90; ++i) {
      Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ")");
    }
  }
  // Recovery = snapshot (first 50 rows at the pinned epoch) + WAL suffix
  // (everything after the recorded offset): nothing lost, nothing doubled.
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir.path()).ok());
  EXPECT_TRUE(db2.recovered());
  EXPECT_EQ(WriterCount(&db2, "SELECT COUNT(*) FROM t"), 90);
  EXPECT_EQ(WriterCount(&db2, "SELECT SUM(id) FROM t"), 90 * 89 / 2);
}

TEST(MvccTest, BackgroundCheckpointKeepsTombstoneCellsWhileWriterChurns) {
  TempDir dir;
  std::string expected;
  {
    rdb::Database db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    Must(&db, "CREATE TABLE t (id INTEGER, name VARCHAR)");
    for (int i = 0; i < 200; ++i) {
      Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) +
                    ", 'heap-allocated payload #" + std::to_string(i) + "')");
    }
    Must(&db, "DELETE FROM t WHERE id < 100");
    ASSERT_TRUE(db.CheckpointBackground().ok());
    // While the checkpoint thread copies the captured slots — the dead ones
    // included — the writer tombstones, rewrites and appends more.
    for (int i = 100; i < 150; ++i) {
      Must(&db, "DELETE FROM t WHERE id = " + std::to_string(i));
      Must(&db, "UPDATE t SET name = 'rewritten after the capture' WHERE id = " +
                    std::to_string(i + 50));
      Must(&db, "INSERT INTO t VALUES (" + std::to_string(i + 200) +
                    ", 'appended after the capture')");
    }
    ASSERT_TRUE(db.CheckpointWait().ok());
    expected = DumpDurableState(db);
  }
  // Snapshot slots (tombstone cells included) + the WAL suffix past its
  // offset rebuild every slot exactly.
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir.path()).ok());
  EXPECT_EQ(DumpDurableState(db2), expected);
}

TEST(MvccTest, BackgroundCheckpointSnapshotExcludesLaterCommits) {
  TempDir dir;
  {
    rdb::Database db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    Must(&db, "CREATE TABLE t (id INTEGER)");
    Must(&db, "INSERT INTO t VALUES (1)");
    ASSERT_TRUE(db.CheckpointBackground().ok());
    Must(&db, "INSERT INTO t VALUES (2)");
    Must(&db, "DELETE FROM t WHERE id = 1");
    ASSERT_TRUE(db.CheckpointWait().ok());
  }
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir.path()).ok());
  EXPECT_EQ(WriterCount(&db2, "SELECT COUNT(*) FROM t"), 1);
  EXPECT_EQ(WriterCount(&db2, "SELECT COUNT(*) FROM t WHERE id = 2"), 1);
}

// ---------------------------------------------------------------------------
// slot reuse beside pinned readers and background checkpoints

TEST(MvccTest, PinnedReaderKeepsItsSnapshotAcrossSlotReuse) {
  rdb::Database db;
  Must(&db, "CREATE TABLE t (id INTEGER, v VARCHAR)");
  for (int i = 0; i < 100; ++i) {
    Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) +
                  ", 'payload held in a heap string')");
  }
  Must(&db, "DELETE FROM t WHERE id < 20");  // dead before the pin
  auto rs = db.OpenReaderSession();
  ASSERT_TRUE(rs.ok()) << rs.status();
  (*rs)->PinSnapshot();
  const int64_t sum = (20 + 99) * 80 / 2;  // ids 20..99
  int64_t next = 100;
  for (int round = 0; round < 6; ++round) {
    Must(&db, "BEGIN");
    Must(&db, "DELETE FROM t WHERE id < " + std::to_string(next - 70));
    for (int k = 0; k < 10; ++k, ++next) {
      Must(&db, "INSERT INTO t VALUES (" + std::to_string(next) + ", 'new')");
    }
    Must(&db, "COMMIT");
    EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM t"), 80);
    EXPECT_EQ(ReaderCount(rs->get(), "SELECT SUM(id) FROM t"), sum);
  }
  // Only the 20 slots dead before the pin were taken; every later
  // tombstone is still visible to the pin and stays put.
  EXPECT_EQ(db.stats().slots_reused, 20u);
  rdb::Table* t = db.FindTable("t");
  EXPECT_EQ(t->capacity(), 140u);
  (*rs)->Unpin();
  // With the pin gone, the next boundary (any writer statement) frees all
  // 60 later tombstones.
  EXPECT_EQ(WriterCount(&db, "SELECT COUNT(*) FROM t"), 80);
  Must(&db, "BEGIN");
  Must(&db, "DELETE FROM t WHERE id < " + std::to_string(next - 70));
  for (int k = 0; k < 10; ++k, ++next) {
    Must(&db, "INSERT INTO t VALUES (" + std::to_string(next) + ", 'new')");
  }
  Must(&db, "COMMIT");
  EXPECT_EQ(db.stats().slots_reused, 30u);
  EXPECT_EQ(t->capacity(), 140u);
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM t"), 80);
  EXPECT_TRUE(db.VerifyIntegrity().empty());
}

TEST(MvccTest, SlotReusedDuringACaptureParksItsDeadImage) {
  rdb::Database db;
  Must(&db, "CREATE TABLE t (id INTEGER, v VARCHAR)");
  Must(&db,
       "INSERT INTO t VALUES (1, 'one'), (2, 'two, a dead heap string'), "
       "(3, 'three, another dead heap string')");
  Must(&db, "DELETE FROM t WHERE id > 1");
  rdb::Table* t = db.FindTable("t");
  // What a background checkpoint does at its boundary: pin the epoch and
  // open the capture (Durability::CheckpointBackground).
  auto rs = db.OpenReaderSession();
  ASSERT_TRUE(rs.ok()) << rs.status();
  (*rs)->PinSnapshot();
  const uint64_t pin = db.epochs().current();
  db.epochs().capture_open.store(true);
  // The insert still takes the oldest tombstone and parks its dead image...
  Must(&db, "INSERT INTO t VALUES (4, 'four')");
  EXPECT_EQ(t->capacity(), 3u);
  ASSERT_TRUE(t->is_live(1));
  EXPECT_EQ(t->row(1)[0].AsInt(), 4);
  EXPECT_EQ(t->version_rows(), 1u);
  // ...so the checkpointer still reads that image at its pin.
  rdb::Row out;
  bool live = true;
  ASSERT_TRUE(t->SnapshotReadRow(1, pin, &out, &live));
  EXPECT_FALSE(live);
  EXPECT_EQ(out[0].AsInt(), 2);
  EXPECT_EQ(out[1].AsString(), "two, a dead heap string");
  // A rolled-back reuse leaves the parked image serving the pin.
  Must(&db, "BEGIN");
  Must(&db, "INSERT INTO t VALUES (5, 'five')");
  EXPECT_TRUE(t->is_live(2));
  Must(&db, "ROLLBACK");
  ASSERT_TRUE(t->SnapshotReadRow(2, pin, &out, &live));
  EXPECT_FALSE(live);
  EXPECT_EQ(out[1].AsString(), "three, another dead heap string");
  // A session at the same pin sees none of the new rows.
  EXPECT_EQ(ReaderCount(rs->get(), "SELECT COUNT(*) FROM t"), 1);
  // The slots are read: the capture closes and the pin goes, so the next
  // boundary frees the parked images.
  db.epochs().capture_open.store(false);
  (*rs)->Unpin();
  Must(&db, "INSERT INTO t VALUES (6, 'six')");
  EXPECT_EQ(t->version_rows(), 0u);
  EXPECT_EQ(t->capacity(), 3u);
  EXPECT_TRUE(db.VerifyIntegrity().empty());
}

TEST(MvccTest, BackToBackCapturesKeepReusingSlots) {
  // Background checkpoints run back to back when each one's serializer
  // outlasts the interval: CheckpointWait joins it and the next capture
  // opens at once, so a capture is nearly always open. Simulated here: the
  // capture stays open and each round re-pins at the current epoch, as
  // the next checkpoint would. Reuse must go on (parking dead images) for
  // the slab to stay near the live row count.
  rdb::Database db;
  Must(&db, "CREATE TABLE t (id INTEGER, v VARCHAR)");
  for (int i = 0; i < 100; ++i) {
    Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ", 'row')");
  }
  rdb::Table* t = db.FindTable("t");
  auto rs = db.OpenReaderSession();
  ASSERT_TRUE(rs.ok()) << rs.status();
  db.epochs().capture_open.store(true);
  int64_t next = 100;
  for (int round = 0; round < 100; ++round) {
    (*rs)->Unpin();
    (*rs)->PinSnapshot();
    Must(&db, "BEGIN");
    Must(&db, "DELETE FROM t WHERE id < " + std::to_string(next - 90));
    for (int k = 0; k < 10; ++k, ++next) {
      Must(&db, "INSERT INTO t VALUES (" + std::to_string(next) + ", 'row')");
    }
    Must(&db, "COMMIT");
  }
  db.epochs().capture_open.store(false);
  (*rs)->Unpin();
  EXPECT_EQ(t->live_count(), 100u);
  // A tombstone is reused two rounds after its delete: the pin holds the
  // horizon one round back. Two rounds of inserts, plus one of slack.
  EXPECT_LE(t->capacity(), 130u);
  EXPECT_GT(db.stats().slots_reused, 900u);
  EXPECT_TRUE(db.VerifyIntegrity().empty());
}

TEST(MvccTest, BackgroundCheckpointsBesideSlotReuseRecoverTheExactImage) {
  TempDir dir;
  std::string expected;
  {
    rdb::Database db;
    ASSERT_TRUE(db.Open(dir.path()).ok());
    Must(&db, "CREATE TABLE t (id INTEGER, v VARCHAR)");
    Must(&db, "CREATE INDEX idx_t_id ON t (id)");
    int64_t next = 0;
    for (; next < 400; ++next) {
      Must(&db, "INSERT INTO t VALUES (" + std::to_string(next) +
                    ", 'original payload #" + std::to_string(next) + "')");
    }
    int64_t oldest = 0;
    for (int round = 0; round < 60; ++round) {
      if (round % 15 == 0) {
        ASSERT_TRUE(db.CheckpointWait().ok());
        ASSERT_TRUE(db.CheckpointBackground().ok());
      }
      // Every fifth round rolls back, undoing inserts into reused slots.
      const bool keep = round % 5 != 4;
      Must(&db, "BEGIN");
      Must(&db, "DELETE FROM t WHERE id < " + std::to_string(oldest + 20));
      for (int k = 0; k < 20; ++k) {
        Must(&db, "INSERT INTO t VALUES (" + std::to_string(next + k) +
                      ", 'churned payload #" + std::to_string(next + k) +
                      "')");
      }
      Must(&db, keep ? "COMMIT" : "ROLLBACK");
      if (keep) {
        oldest += 20;
        next += 20;
      }
    }
    ASSERT_TRUE(db.CheckpointWait().ok());
    EXPECT_GT(db.stats().slots_reused, 0u);
    // No capacity bound here: until its serializer has read the slots, a
    // checkpoint pauses durable reuse and its pin holds the horizon, so
    // how many inserts append depends on the thread's timing (engine_test
    // bounds it without checkpoints).
    EXPECT_TRUE(db.VerifyIntegrity().empty());
    expected = DumpDurableState(db);
  }
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir.path()).ok());
  EXPECT_EQ(DumpDurableState(db2), expected);
  EXPECT_TRUE(db2.VerifyIntegrity().empty());
}

// ---------------------------------------------------------------------------
// group commit: bounded loss under power loss

TEST(MvccTest, BatchedSyncLosesAtMostTheUnsyncedWindow) {
  TempDir dir;
  rdb::FaultVfs fault(rdb::Vfs::Default());
  {
    rdb::Database db;
    rdb::DurabilityOptions opts;
    opts.sync_mode = rdb::SyncMode::kBatched;
    // A very long window keeps the flusher idle for the whole test, so
    // every post-checkpoint commit is acknowledged but unsynced.
    opts.group_commit_window_us = 60 * 1000 * 1000;
    opts.vfs = &fault;
    ASSERT_TRUE(db.Open(dir.path(), opts).ok());
    Must(&db, "CREATE TABLE t (id INTEGER)");
    for (int i = 0; i < 10; ++i) {
      Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ")");
    }
    // Checkpoint fsyncs everything committed so far.
    ASSERT_TRUE(db.Checkpoint().ok());
    // These commits are acknowledged under kBatched without an fsync.
    for (int i = 10; i < 15; ++i) {
      Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ")");
    }
    fault.SimulatePowerLoss();
    // The dying process's close-path writes fail on the dead handles; the
    // destructor must still tear down cleanly.
  }
  rdb::Database db2;
  rdb::DurabilityOptions opts2;
  ASSERT_TRUE(db2.Open(dir.path(), opts2).ok());
  // Bounded loss: everything synced survives; only the unsynced window
  // (the 5 trailing acked units) may be gone — and nothing partial appears.
  int64_t n = WriterCount(&db2, "SELECT COUNT(*) FROM t");
  EXPECT_GE(n, 10);
  EXPECT_LE(n, 15);
  EXPECT_EQ(WriterCount(&db2, "SELECT COUNT(*) FROM t WHERE id < 10"), 10);
  // The recovered prefix is a clean unit boundary: ids are contiguous.
  EXPECT_EQ(WriterCount(&db2, "SELECT MAX(id) FROM t"), n - 1);
  EXPECT_EQ(WriterCount(&db2, "SELECT SUM(id) FROM t"), n * (n - 1) / 2);
}

TEST(MvccTest, CommitSyncLosesNothingOnPowerLoss) {
  TempDir dir;
  rdb::FaultVfs fault(rdb::Vfs::Default());
  {
    rdb::Database db;
    rdb::DurabilityOptions opts;
    opts.sync_mode = rdb::SyncMode::kCommit;
    opts.vfs = &fault;
    ASSERT_TRUE(db.Open(dir.path(), opts).ok());
    Must(&db, "CREATE TABLE t (id INTEGER)");
    for (int i = 0; i < 15; ++i) {
      Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ")");
    }
    fault.SimulatePowerLoss();
  }
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir.path()).ok());
  // kCommit: every acknowledged unit was fsynced before the ack.
  EXPECT_EQ(WriterCount(&db2, "SELECT COUNT(*) FROM t"), 15);
}

TEST(MvccTest, BatchedFlusherEventuallySyncsWithoutCheckpoints) {
  TempDir dir;
  {
    rdb::Database db;
    rdb::DurabilityOptions opts;
    opts.sync_mode = rdb::SyncMode::kBatched;
    opts.group_commit_window_us = 500;  // aggressive window for the test
    ASSERT_TRUE(db.Open(dir.path(), opts).ok());
    Must(&db, "CREATE TABLE t (id INTEGER)");
    for (int i = 0; i < 20; ++i) {
      Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ")");
    }
    // Give the background flusher a few windows to drain the tail, then
    // exit without a checkpoint: recovery must replay from the synced WAL.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  rdb::Database db2;
  ASSERT_TRUE(db2.Open(dir.path()).ok());
  EXPECT_EQ(WriterCount(&db2, "SELECT COUNT(*) FROM t"), 20);
}

// ---------------------------------------------------------------------------
// concurrency stress (primary TSan target)

TEST(MvccStressTest, ConcurrentReadersSeeOnlyCommitBoundaries) {
  rdb::Database db;
  Must(&db, "CREATE TABLE t (id INTEGER, v INTEGER)");
  // Invariant: the writer only ever commits rows in pairs, so every epoch
  // exposes an even row count and SUM(v) == 0 (each pair is +x and -x).
  constexpr int kWriterIters = 300;
  constexpr int kReaders = 4;

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&db, &done, &failures] {
      auto rs = db.OpenReaderSession();
      if (!rs.ok()) {
        ++failures;
        return;
      }
      while (!done.load(std::memory_order_acquire)) {
        auto count = (*rs)->ExecuteQuery("SELECT COUNT(*) FROM t");
        if (!count.ok() || count->rows[0][0].AsInt() % 2 != 0) {
          ++failures;
          break;
        }
        auto sum = (*rs)->ExecuteQuery("SELECT SUM(v) FROM t");
        int64_t s = 0;
        if (sum.ok() && !sum->rows.empty() && !sum->rows[0][0].is_null()) {
          s = sum->rows[0][0].AsInt();
        }
        if (!sum.ok() || s != 0) {
          ++failures;
          break;
        }
        // Repeatable read inside one explicit pin.
        (*rs)->PinSnapshot();
        auto c1 = (*rs)->ExecuteQuery("SELECT COUNT(*) FROM t");
        auto c2 = (*rs)->ExecuteQuery("SELECT COUNT(*) FROM t");
        (*rs)->Unpin();
        if (!c1.ok() || !c2.ok() ||
            c1->rows[0][0].AsInt() != c2->rows[0][0].AsInt()) {
          ++failures;
          break;
        }
      }
    });
  }

  for (int i = 0; i < kWriterIters; ++i) {
    Must(&db, "BEGIN");
    Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ", " +
                  std::to_string(i + 1) + ")");
    Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ", " +
                  std::to_string(-(i + 1)) + ")");
    Must(&db, "COMMIT");
    if (i % 3 == 2) {
      // Delete one full pair inside a transaction: still even at the commit.
      Must(&db, "BEGIN");
      Must(&db, "DELETE FROM t WHERE id = " + std::to_string(i - 2));
      Must(&db, "COMMIT");
    }
    if (i % 50 == 25) {
      Must(&db, "UPDATE t SET v = -v WHERE id >= " + std::to_string(i - 10));
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(WriterCount(&db, "SELECT SUM(v) FROM t"), 0);
}

TEST(MvccStressTest, ConcurrentReadersBesideSlotReuseChurn) {
  // Each writer transaction deletes the 10 oldest rows and inserts 10 new
  // ones into reused slots, overwriting dead heap-string cells, while
  // readers scan those cells: every snapshot holds exactly 80 rows, all
  // carrying the one payload.
  rdb::Database db;
  Must(&db, "CREATE TABLE t (id INTEGER, v VARCHAR)");
  const std::string payload = "'a payload long enough for a heap string'";
  for (int i = 0; i < 80; ++i) {
    Must(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ", " + payload +
                  ")");
  }
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      auto rs = db.OpenReaderSession();
      if (!rs.ok()) {
        ++failures;
        return;
      }
      while (!done.load(std::memory_order_acquire)) {
        (*rs)->PinSnapshot();
        auto all = (*rs)->ExecuteQuery("SELECT COUNT(*) FROM t");
        auto same = (*rs)->ExecuteQuery("SELECT COUNT(*) FROM t WHERE v = " +
                                        payload);
        (*rs)->Unpin();
        if (!all.ok() || !same.ok() || all->rows[0][0].AsInt() != 80 ||
            same->rows[0][0].AsInt() != 80) {
          ++failures;
          break;
        }
      }
    });
  }
  for (int i = 0; i < 300; ++i) {
    Must(&db, "BEGIN");
    Must(&db, "DELETE FROM t WHERE id < " + std::to_string(10 * i + 10));
    for (int k = 0; k < 10; ++k) {
      Must(&db, "INSERT INTO t VALUES (" + std::to_string(80 + 10 * i + k) +
                    ", " + payload + ")");
    }
    Must(&db, "COMMIT");
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(db.stats().slots_reused, 0u);
  EXPECT_TRUE(db.VerifyIntegrity().empty());
}

TEST(MvccStressTest, ConcurrentReadersWithBackgroundCheckpoint) {
  TempDir dir;
  rdb::Database db;
  rdb::DurabilityOptions opts;
  opts.sync_mode = rdb::SyncMode::kBatched;
  opts.group_commit_window_us = 1000;
  ASSERT_TRUE(db.Open(dir.path(), opts).ok());
  Must(&db, "CREATE TABLE t (id INTEGER)");

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&db, &done, &failures] {
      auto rs = db.OpenReaderSession();
      if (!rs.ok()) {
        ++failures;
        return;
      }
      int64_t prev = 0;
      while (!done.load(std::memory_order_acquire)) {
        auto count = (*rs)->ExecuteQuery("SELECT COUNT(*) FROM t");
        if (!count.ok()) {
          ++failures;
          break;
        }
        int64_t n = count->rows[0][0].AsInt();
        // Insert-only workload: counts are monotone across statements.
        if (n < prev) {
          ++failures;
          break;
        }
        prev = n;
      }
    });
  }

  Status bg = Status::OK();
  for (int i = 0; i < 200 && bg.ok(); ++i) {
    Status s = db.Execute("INSERT INTO t VALUES (" + std::to_string(i) + ")");
    if (!s.ok()) bg = s;
    if (i == 60 || i == 140) {
      // The first checkpoint may still be serializing; wait it out before
      // launching the next (only one runs at a time).
      bg = db.CheckpointWait();
      if (bg.ok()) bg = db.CheckpointBackground();
    }
  }
  Status wait = db.CheckpointWait();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_TRUE(bg.ok()) << bg;
  EXPECT_TRUE(wait.ok()) << wait;
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(WriterCount(&db, "SELECT COUNT(*) FROM t"), 200);
}

TEST(MvccStressTest, TableInsertCopiesRunBesideBackToBackReaders) {
  // The §6.2.2 table-method copy stages in tmp_ scratch tables created on
  // first use and cleared after each copy, while readers issue statements
  // back to back: no copy may fail or wait on them.
  auto dtd = xupd::testing::MustParseDtd(xupd::testing::kCustomerDtd);
  RelationalStore::Options options;
  options.delete_strategy = DeleteStrategy::kPerTupleTrigger;
  options.insert_strategy = InsertStrategy::kTable;
  auto store = RelationalStore::Create(dtd, options);
  ASSERT_TRUE(store.ok()) << store.status();
  auto doc = xupd::testing::MustParse(xupd::testing::kCustomerXml);
  ASSERT_TRUE((*store)->Load(*doc).ok());
  rdb::Database* db = (*store)->db();
  auto ids = (*store)->SelectIds("Customer", "Name = 'Mary'");
  ASSERT_TRUE(ids.ok()) << ids.status();
  ASSERT_FALSE(ids->empty());
  const int64_t mary = ids->front();
  auto copy = [&] {
    return (*store)->CopySubtree("Customer", mary, (*store)->root_id());
  };
  ASSERT_TRUE(copy().ok());  // warm-up: creates the staging tables

  constexpr int kReaders = 3;
  constexpr int kCopies = 10;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<int64_t> queries{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([db, &done, &failures, &queries] {
      auto rs = db->OpenReaderSession();
      if (!rs.ok()) {
        ++failures;
        return;
      }
      // No think time: the next statement starts as soon as the last one
      // ends.
      while (!done.load(std::memory_order_acquire)) {
        if (!(*rs)->ExecuteQuery("SELECT COUNT(*) FROM Customer").ok()) {
          ++failures;
          break;
        }
        queries.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Copy only once every reader is querying.
  while (queries.load(std::memory_order_relaxed) < kReaders &&
         failures.load() == 0) {
    std::this_thread::yield();
  }
  for (int i = 0; i < kCopies; ++i) {
    Status s = copy();
    EXPECT_TRUE(s.ok()) << s;
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Three customers loaded, plus the warm-up copy and kCopies more.
  EXPECT_EQ(WriterCount(db, "SELECT COUNT(*) FROM Customer"), 3 + 1 + kCopies);
}

TEST(MvccStressTest, ReadersScanATableTheWriterCreatesAndDrops) {
  // DDL never waits for readers: a DROP retires the table (with the catalog
  // version that held it) through the epoch manager, so a statement that
  // resolved the table before the drop finishes on it and the next one
  // reports NotFound. Index DDL on another table runs alongside.
  rdb::Database db;
  Must(&db, "CREATE TABLE other (id INTEGER)");
  Must(&db, "INSERT INTO other VALUES (1)");
  std::string fill = "INSERT INTO churn VALUES ";
  for (int i = 0; i < 64; ++i) {
    fill += (i == 0 ? "(" : ", (") + std::to_string(i) + ", 'row " +
            std::to_string(i) + " has a heap-allocated name')";
  }

  constexpr int kReaders = 3;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<int> started{0};
  std::atomic<int64_t> counted{0};
  std::atomic<int64_t> not_found{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      auto rs = db.OpenReaderSession();
      if (!rs.ok()) {
        ++failures;
        return;
      }
      ++started;
      while (!done.load(std::memory_order_acquire)) {
        auto count = (*rs)->ExecuteQuery("SELECT COUNT(*) FROM churn");
        if (count.ok()) {
          ++counted;
        } else if (count.status().code() == StatusCode::kNotFound) {
          ++not_found;
        } else {
          ++failures;
          break;
        }
      }
    });
  }
  while (started.load() + failures.load() < kReaders) {
    std::this_thread::yield();
  }
  for (int round = 0; round < 200; ++round) {
    Must(&db, "CREATE TABLE churn (id INTEGER, name VARCHAR)");
    Must(&db, fill);
    Must(&db, "CREATE INDEX idx_other_id ON other (id)");
    Must(&db, "DROP TABLE churn");
    Must(&db, "DROP INDEX idx_other_id");
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(counted.load() + not_found.load(), 0);
  // Every reader closed its session; one more boundary frees every retired
  // catalog version, table and slab.
  Must(&db, "INSERT INTO other VALUES (2)");
  EXPECT_EQ(db.epochs().retired_pending(), 0u);
  EXPECT_EQ(WriterCount(&db, "SELECT COUNT(*) FROM other"), 2);
}

}  // namespace
}  // namespace xupd
