// Tests for the RelationalStore: §6.1 delete strategies, §6.2 insert
// strategies, ASR maintenance, path queries, and the XQuery translator.
// The central property: every strategy leaves the store reconstructing to
// the same document a native-tree execution produces.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>

#include "engine/store.h"
#include "test_util.h"
#include "xml/serializer.h"
#include "xquery/executor.h"

namespace xupd::engine {
namespace {

std::unique_ptr<RelationalStore> MakeStore(DeleteStrategy del,
                                           InsertStrategy ins) {
  auto dtd = xupd::testing::MustParseDtd(xupd::testing::kCustomerDtd);
  RelationalStore::Options options;
  options.delete_strategy = del;
  options.insert_strategy = ins;
  auto store = RelationalStore::Create(dtd, options);
  EXPECT_TRUE(store.ok()) << store.status();
  auto doc = xupd::testing::MustParse(xupd::testing::kCustomerXml);
  Status s = store.value()->Load(*doc);
  EXPECT_TRUE(s.ok()) << s;
  return std::move(store).value();
}

int64_t Count(RelationalStore* store, const std::string& table) {
  auto r = store->db()->ExecuteQuery("SELECT COUNT(*) FROM " + table);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() ? r->rows[0][0].AsInt() : -1;
}

// ---------------------------------------------------------------------------
// Delete strategies: all four remove the full subtree.

class DeleteStrategyTest : public ::testing::TestWithParam<DeleteStrategy> {};

TEST_P(DeleteStrategyTest, DeleteJohnsRemovesSubtrees) {
  auto store = MakeStore(GetParam(), InsertStrategy::kTable);
  ASSERT_TRUE(store->DeleteWhere("Customer", "Name = 'John'").ok());
  EXPECT_EQ(Count(store.get(), "Customer"), 1);
  EXPECT_EQ(Count(store.get(), "Order"), 1);     // Mary's order remains
  EXPECT_EQ(Count(store.get(), "OrderLine"), 1);
}

TEST_P(DeleteStrategyTest, BulkDeleteLeavesOnlyRoot) {
  auto store = MakeStore(GetParam(), InsertStrategy::kTable);
  ASSERT_TRUE(store->DeleteWhere("Customer", "").ok());
  EXPECT_EQ(Count(store.get(), "CustDB"), 1);
  EXPECT_EQ(Count(store.get(), "Customer"), 0);
  EXPECT_EQ(Count(store.get(), "Order"), 0);
  EXPECT_EQ(Count(store.get(), "OrderLine"), 0);
}

TEST_P(DeleteStrategyTest, RandomDeleteByIds) {
  auto store = MakeStore(GetParam(), InsertStrategy::kTable);
  auto ids = store->SelectIds("Customer", "Name = 'Mary'");
  ASSERT_TRUE(ids.ok());
  ASSERT_EQ(ids->size(), 1u);
  ASSERT_TRUE(store->DeleteByIds("Customer", *ids).ok());
  EXPECT_EQ(Count(store.get(), "Customer"), 2);
  EXPECT_EQ(Count(store.get(), "Order"), 2);
  EXPECT_EQ(Count(store.get(), "OrderLine"), 3);
}

TEST_P(DeleteStrategyTest, ReconstructionMatchesNativeExecution) {
  auto store = MakeStore(GetParam(), InsertStrategy::kTable);
  ASSERT_TRUE(store->DeleteWhere("Customer", "Name = 'John'").ok());
  auto rebuilt = store->Reconstruct();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  // Native execution of the same update.
  auto doc = xupd::testing::MustParse(xupd::testing::kCustomerXml);
  xquery::NativeExecutor native(doc.get());
  ASSERT_TRUE(native
                  .ExecuteString(R"(
    FOR $d IN document("custdb.xml"),
        $c IN $d/Customer[Name="John"]
    UPDATE $d { DELETE $c })")
                  .ok());
  EXPECT_TRUE(xml::DeepEqualUnordered(*doc->root(), *rebuilt.value()->root()));
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, DeleteStrategyTest,
                         ::testing::Values(DeleteStrategy::kPerTupleTrigger,
                                           DeleteStrategy::kPerStatementTrigger,
                                           DeleteStrategy::kCascade,
                                           DeleteStrategy::kAsr),
                         [](const auto& info) {
                           return std::string(ToString(info.param)) == "per-tuple"
                                      ? "PerTuple"
                                  : ToString(info.param) == std::string("per-stm")
                                      ? "PerStatement"
                                  : ToString(info.param) == std::string("cascade")
                                      ? "Cascade"
                                      : "Asr";
                         });

// ---------------------------------------------------------------------------
// Statement-count shapes (§6.1/§7.3).

TEST(DeleteShapeTest, TriggerDeleteIssuesOneStatement) {
  auto store = MakeStore(DeleteStrategy::kPerTupleTrigger, InsertStrategy::kTable);
  uint64_t before = store->stats().statements;
  ASSERT_TRUE(store->DeleteWhere("Customer", "Name = 'John'").ok());
  EXPECT_EQ(store->stats().statements - before, 1u);
}

TEST(DeleteShapeTest, CascadeIssuesOnePerLevel) {
  auto store = MakeStore(DeleteStrategy::kCascade, InsertStrategy::kTable);
  uint64_t before = store->stats().statements;
  ASSERT_TRUE(store->DeleteWhere("Customer", "Name = 'John'").ok());
  // Customer + Order sweep + OrderLine sweep (+ a possible extra stopped
  // level): at least 3, more than the single trigger statement.
  EXPECT_GE(store->stats().statements - before, 3u);
}

TEST(DeleteShapeTest, PerTupleTriggerProbesPerDeletedRow) {
  auto store = MakeStore(DeleteStrategy::kPerTupleTrigger, InsertStrategy::kTable);
  rdb::Stats before = store->stats();
  ASSERT_TRUE(store->DeleteWhere("Customer", "Name = 'John'").ok());
  rdb::Stats delta = store->stats().Delta(before);
  // Row triggers fired for 2 customers + 2 orders.
  EXPECT_EQ(delta.trigger_firings, 4u);
  EXPECT_GT(delta.index_probes, 0u);
}

TEST(DeleteShapeTest, PerStatementTriggerScansChildRelations) {
  auto store = MakeStore(DeleteStrategy::kPerStatementTrigger,
                         InsertStrategy::kTable);
  rdb::Stats before = store->stats();
  ASSERT_TRUE(store->DeleteWhere("Customer", "Name = 'John'").ok());
  rdb::Stats delta = store->stats().Delta(before);
  // Orphan sweeps scan entire child relations.
  EXPECT_GT(delta.rows_scanned, 0u);
  EXPECT_GE(delta.trigger_firings, 2u);
}

TEST(DeleteShapeTest, DeleteByIdsReusesOnePreparedPlan) {
  auto store = MakeStore(DeleteStrategy::kPerTupleTrigger, InsertStrategy::kTable);
  auto ids = store->SelectIds("Customer", "");
  ASSERT_TRUE(ids.ok());
  ASSERT_EQ(ids->size(), 3u);
  rdb::Stats before = store->stats();
  ASSERT_TRUE(store->DeleteByIds("Customer", *ids).ok());
  rdb::Stats delta = store->stats().Delta(before);
  // One DELETE statement per id (the §7.3 random workload shape), but a
  // single parse: the handle is prepared once and reused directly.
  EXPECT_EQ(delta.statements, 3u);
  EXPECT_EQ(delta.prepared_misses, 1u);
  EXPECT_EQ(delta.prepared_hits, 0u);
  EXPECT_EQ(delta.sql_parses, 1u);
  EXPECT_EQ(Count(store.get(), "Customer"), 0);
  EXPECT_EQ(Count(store.get(), "OrderLine"), 0);
}

// ---------------------------------------------------------------------------
// Insert strategies.

class InsertStrategyTest : public ::testing::TestWithParam<InsertStrategy> {};

TEST_P(InsertStrategyTest, CopySubtreeDuplicatesData) {
  auto store = MakeStore(DeleteStrategy::kPerTupleTrigger, GetParam());
  auto ids = store->SelectIds("Customer", "Name = 'Mary'");
  ASSERT_TRUE(ids.ok());
  ASSERT_EQ(ids->size(), 1u);
  ASSERT_TRUE(store->CopySubtree("Customer", ids->front(), store->root_id()).ok());
  EXPECT_EQ(Count(store.get(), "Customer"), 4);
  EXPECT_EQ(Count(store.get(), "Order"), 4);
  EXPECT_EQ(Count(store.get(), "OrderLine"), 5);
  // The copy got fresh ids and the same content.
  auto marys = store->db()->ExecuteQuery(
      "SELECT id FROM Customer WHERE Name = 'Mary' ORDER BY id");
  ASSERT_TRUE(marys.ok());
  ASSERT_EQ(marys->rows.size(), 2u);
  EXPECT_NE(marys->rows[0][0].AsInt(), marys->rows[1][0].AsInt());
}

TEST_P(InsertStrategyTest, CopyReconstructsEquivalentDocument) {
  auto store = MakeStore(DeleteStrategy::kPerTupleTrigger, GetParam());
  auto ids = store->SelectIds("Customer", "Name = 'Mary'");
  ASSERT_TRUE(ids.ok());
  ASSERT_TRUE(store->CopySubtree("Customer", ids->front(), store->root_id()).ok());
  auto rebuilt = store->Reconstruct();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  // Native: copy Mary under the root.
  auto doc = xupd::testing::MustParse(xupd::testing::kCustomerXml);
  xquery::NativeExecutor native(doc.get());
  ASSERT_TRUE(native
                  .ExecuteString(R"(
    FOR $d IN document("custdb.xml"),
        $src IN $d/Customer[Name="Mary"]
    UPDATE $d { INSERT $src })")
                  .ok());
  EXPECT_TRUE(xml::DeepEqualUnordered(*doc->root(), *rebuilt.value()->root()))
      << xml::Serialize(*doc->root()) << "----\n"
      << xml::Serialize(*rebuilt.value()->root());
}

TEST_P(InsertStrategyTest, IdsRemainUniqueAfterManyCopies) {
  auto store = MakeStore(DeleteStrategy::kPerTupleTrigger, GetParam());
  for (int i = 0; i < 3; ++i) {
    auto ids = store->SelectIds("Customer", "");
    ASSERT_TRUE(ids.ok());
    ASSERT_TRUE(
        store->CopySubtree("Customer", ids->front(), store->root_id()).ok());
  }
  auto all = store->db()->ExecuteQuery("SELECT COUNT(*) FROM Customer");
  ASSERT_TRUE(all.ok());
  // Uniqueness: grouping by id would need GROUP BY; instead compare COUNT
  // against the number of distinct ids via MIN/MAX sanity plus per-id probe.
  auto ids = store->SelectIds("Customer", "");
  ASSERT_TRUE(ids.ok());
  std::set<int64_t> unique(ids->begin(), ids->end());
  EXPECT_EQ(unique.size(), ids->size());
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, InsertStrategyTest,
                         ::testing::Values(InsertStrategy::kTuple,
                                           InsertStrategy::kTable,
                                           InsertStrategy::kAsr),
                         [](const auto& info) {
                           return ToString(info.param) == std::string("tuple")
                                      ? "Tuple"
                                  : ToString(info.param) == std::string("table")
                                      ? "Table"
                                      : "Asr";
                         });

std::unique_ptr<RelationalStore> MakeStoreWithBatch(DeleteStrategy del,
                                                    InsertStrategy ins,
                                                    int batch_size) {
  auto dtd = xupd::testing::MustParseDtd(xupd::testing::kCustomerDtd);
  RelationalStore::Options options;
  options.delete_strategy = del;
  options.insert_strategy = ins;
  options.insert_batch_size = batch_size;
  auto store = RelationalStore::Create(dtd, options);
  EXPECT_TRUE(store.ok()) << store.status();
  auto doc = xupd::testing::MustParse(xupd::testing::kCustomerXml);
  Status s = store.value()->Load(*doc);
  EXPECT_TRUE(s.ok()) << s;
  return std::move(store).value();
}

TEST(InsertShapeTest, TupleInsertBatchSizeOneIssuesOneStatementPerTuple) {
  // insert_batch_size = 1 restores the paper's §6.2.1 regime exactly: one
  // literal INSERT statement per tuple, parsed every time.
  auto store = MakeStoreWithBatch(DeleteStrategy::kPerTupleTrigger,
                                  InsertStrategy::kTuple, 1);
  auto ids = store->SelectIds("Customer", "Name = 'Mary'");
  ASSERT_TRUE(ids.ok());
  rdb::Stats before = store->stats();
  ASSERT_TRUE(store->CopySubtree("Customer", ids->front(), store->root_id()).ok());
  rdb::Stats delta = store->stats().Delta(before);
  // Mary's subtree: 1 customer + 1 order + 1 line = 3 INSERTs + 1 query.
  EXPECT_EQ(delta.statements, 4u);
  EXPECT_EQ(delta.sql_parses, 4u);  // every statement parses
  EXPECT_EQ(delta.prepared_hits, 0u);
  EXPECT_EQ(delta.prepared_misses, 0u);
  EXPECT_EQ(store->stats().batched_rows, 0u);
}

TEST(InsertShapeTest, TupleInsertBatchesMultiRowInsertsPerTable) {
  // Default batching: tuples of the same table ride in one multi-row INSERT,
  // so the statement count depends on the number of tables, not tuples.
  auto store = MakeStore(DeleteStrategy::kPerTupleTrigger, InsertStrategy::kTuple);
  auto john = store->SelectIds("Customer", "Address_City = 'Seattle'");
  ASSERT_TRUE(john.ok());
  rdb::Stats before = store->stats();
  // Seattle John's subtree: 1 customer + 2 orders + 3 lines = 6 tuples.
  ASSERT_TRUE(store->CopySubtree("Customer", john->front(), store->root_id()).ok());
  rdb::Stats delta = store->stats().Delta(before);
  // 1 outer-union query + 3 per-table INSERTs (Customer, Order, OrderLine).
  EXPECT_EQ(delta.statements, 4u);
  EXPECT_EQ(delta.rows_inserted, 6u);
  // Order (2 rows) and OrderLine (3 rows) went in as multi-row statements.
  EXPECT_EQ(delta.batched_rows, 5u);
}

TEST(InsertShapeTest, RepeatedTupleCopiesReuseThePreparedPlan) {
  // Default batching: a second copy of the same subtree issues the same
  // batched INSERT shapes, so every insert is a cache hit.
  auto store = MakeStore(DeleteStrategy::kPerTupleTrigger, InsertStrategy::kTuple);
  auto ids = store->SelectIds("Customer", "Name = 'Mary'");
  ASSERT_TRUE(ids.ok());
  ASSERT_TRUE(store->CopySubtree("Customer", ids->front(), store->root_id()).ok());
  rdb::Stats before = store->stats();
  ASSERT_TRUE(store->CopySubtree("Customer", ids->front(), store->root_id()).ok());
  rdb::Stats delta = store->stats().Delta(before);
  EXPECT_EQ(delta.prepared_misses, 0u);
  EXPECT_GE(delta.prepared_hits, 3u);
}

TEST(InsertShapeTest, TableInsertStatementsIndependentOfTupleCount) {
  auto store = MakeStore(DeleteStrategy::kPerTupleTrigger, InsertStrategy::kTable);
  auto john = store->SelectIds("Customer", "Address_City = 'Seattle'");
  auto mary = store->SelectIds("Customer", "Name = 'Mary'");
  ASSERT_TRUE(john.ok());
  ASSERT_TRUE(mary.ok());
  uint64_t b1 = store->stats().statements;
  ASSERT_TRUE(store->CopySubtree("Customer", john->front(), store->root_id()).ok());
  uint64_t big = store->stats().statements - b1;  // 6-tuple subtree
  uint64_t b2 = store->stats().statements;
  ASSERT_TRUE(store->CopySubtree("Customer", mary->front(), store->root_id()).ok());
  uint64_t small = store->stats().statements - b2;  // 3-tuple subtree
  EXPECT_EQ(big, small);  // statement count depends on #tables only
}

// ---------------------------------------------------------------------------
// ASR behavior.

TEST(AsrTest, AsrRowCountEqualsLeafPathCount) {
  auto dtd = xupd::testing::MustParseDtd(xupd::testing::kCustomerDtd);
  RelationalStore::Options options;
  options.delete_strategy = DeleteStrategy::kAsr;
  auto store = RelationalStore::Create(dtd, options);
  ASSERT_TRUE(store.ok());
  auto doc = xupd::testing::MustParse(xupd::testing::kCustomerXml);
  ASSERT_TRUE(store.value()->Load(*doc).ok());
  // Leaf-most instances: 4 order lines + customer 4 (no orders) = 5 paths.
  EXPECT_EQ(Count(store.value().get(), "asr"), 5);
}

TEST(AsrTest, AsrMaintainedAcrossDeleteAndInsert) {
  auto dtd = xupd::testing::MustParseDtd(xupd::testing::kCustomerDtd);
  RelationalStore::Options options;
  options.delete_strategy = DeleteStrategy::kAsr;
  options.insert_strategy = InsertStrategy::kAsr;
  auto store_or = RelationalStore::Create(dtd, options);
  ASSERT_TRUE(store_or.ok());
  auto store = std::move(store_or).value();
  auto doc = xupd::testing::MustParse(xupd::testing::kCustomerXml);
  ASSERT_TRUE(store->Load(*doc).ok());
  // Copy Mary (adds 1 path), then delete both Marys (removes 2 paths).
  auto ids = store->SelectIds("Customer", "Name = 'Mary'");
  ASSERT_TRUE(ids.ok());
  ASSERT_TRUE(store->CopySubtree("Customer", ids->front(), store->root_id()).ok());
  EXPECT_EQ(Count(store.get(), "asr"), 6);
  ASSERT_TRUE(store->DeleteWhere("Customer", "Name = 'Mary'").ok());
  EXPECT_EQ(Count(store.get(), "asr"), 4);
  // All remaining rows unmarked.
  auto marked = store->db()->ExecuteQuery(
      "SELECT COUNT(*) FROM asr WHERE marked = 1");
  ASSERT_TRUE(marked.ok());
  EXPECT_EQ(marked->rows[0][0].AsInt(), 0);
}

TEST(AsrTest, BulkDeleteRepairsLeftCompleteness) {
  auto dtd = xupd::testing::MustParseDtd(xupd::testing::kCustomerDtd);
  RelationalStore::Options options;
  options.delete_strategy = DeleteStrategy::kAsr;
  auto store_or = RelationalStore::Create(dtd, options);
  ASSERT_TRUE(store_or.ok());
  auto store = std::move(store_or).value();
  auto doc = xupd::testing::MustParse(xupd::testing::kCustomerXml);
  ASSERT_TRUE(store->Load(*doc).ok());
  ASSERT_TRUE(store->DeleteWhere("Customer", "").ok());
  // Only the root remains; the ASR must hold its left-complete row.
  EXPECT_EQ(Count(store.get(), "asr"), 1);
  auto row = store->db()->ExecuteQuery("SELECT id_CustDB FROM asr");
  ASSERT_TRUE(row.ok());
  ASSERT_EQ(row->rows.size(), 1u);
  EXPECT_EQ(row->rows[0][0].AsInt(), store->root_id());
}

// Slot reuse: delete+copy churn keeps every table's slab within its live
// rows plus the rows one op inserts, whatever the strategy pair.
void ExpectSlabsFlatUnderChurn(DeleteStrategy del, InsertStrategy ins) {
  auto store = MakeStore(del, ins);
  rdb::Database* db = store->db();
  auto mary = store->SelectIds("Customer", "Name = 'Mary'");
  ASSERT_TRUE(mary.ok() && !mary->empty());
  const int64_t src = mary->front();
  std::map<std::string, uint64_t> op_rows;  // most rows one op inserted
  auto run_op = [&](const std::function<Status()>& op) {
    std::map<std::string, uint64_t> before;
    for (const std::string& name : db->TableNames()) {
      before[name] = db->FindTable(name)->access_stats().rows_inserted;
    }
    Status s = op();
    ASSERT_TRUE(s.ok()) << s;
    for (const std::string& name : db->TableNames()) {
      const uint64_t n =
          db->FindTable(name)->access_stats().rows_inserted - before[name];
      op_rows[name] = std::max(op_rows[name], n);
    }
  };
  for (int cycle = 0; cycle < 200; ++cycle) {
    run_op([&] { return store->CopySubtree("Customer", src, store->root_id()); });
    run_op([&] {
      return store->DeleteWhere("Customer",
                                "Name = 'Mary' AND id <> " + std::to_string(src));
    });
    for (const std::string& name : db->TableNames()) {
      const rdb::Table* t = db->FindTable(name);
      ASSERT_LE(t->capacity(), t->live_count() + op_rows[name])
          << name << " after cycle " << cycle;
    }
  }
  EXPECT_GT(db->stats().slots_reused, 0u);
  EXPECT_TRUE(db->VerifyIntegrity().empty());
}

TEST(SlotReuseTest, AsrDeleteAndCopyKeepSlabsFlat) {
  ExpectSlabsFlatUnderChurn(DeleteStrategy::kAsr, InsertStrategy::kAsr);
}

TEST(SlotReuseTest, TriggerDeleteAndTupleCopyKeepSlabsFlat) {
  ExpectSlabsFlatUnderChurn(DeleteStrategy::kPerTupleTrigger,
                            InsertStrategy::kTuple);
}

uint64_t AsrScans(RelationalStore* store) {
  return store->db()->FindTable("asr")->access_stats().scans;
}

TEST(AsrTest, CopyProbesTheMarkSetWithoutScanningTheAsr) {
  // Every statement after the marking UPDATE reads `asr WHERE marked = 1`
  // through idx_asr_marked, and the marking UPDATE probes an id column.
  auto store = MakeStore(DeleteStrategy::kAsr, InsertStrategy::kAsr);
  const uint64_t before = AsrScans(store.get());
  ASSERT_TRUE(store->CopySubtreesWhere("Customer", "Name = 'Mary'",
                                       store->root_id())
                  .ok());
  EXPECT_EQ(AsrScans(store.get()), before);
  EXPECT_EQ(Count(store.get(), "asr"), 6);
}

TEST(AsrTest, DeleteScansTheAsrOnlyForTheLeftCompletenessRepair) {
  // The one remaining scan is the anti-join of the parent table against
  // the whole ASR that finds ancestors left without a path.
  auto store = MakeStore(DeleteStrategy::kAsr, InsertStrategy::kAsr);
  const uint64_t before = AsrScans(store.get());
  ASSERT_TRUE(store->DeleteWhere("Customer", "Name = 'John'").ok());
  EXPECT_EQ(AsrScans(store.get()), before + 1);
  EXPECT_EQ(Count(store.get(), "asr"), 1);  // Mary's one path
}

TEST(AsrTest, MarkSetProbesAndScansAgree) {
  // The same ASR copies and deletes with index probes disabled (every
  // `marked = 1` read scans) must leave the same document and clean scrubs.
  std::vector<std::string> docs;
  for (bool probes : {true, false}) {
    auto store = MakeStore(DeleteStrategy::kAsr, InsertStrategy::kAsr);
    store->db()->set_planner_index_probes_enabled(probes);
    ASSERT_TRUE(store->CopySubtreesWhere("Customer", "Name = 'Mary'",
                                         store->root_id())
                    .ok());
    auto orders = store->SelectIds("Order", "");
    auto marys = store->SelectIds("Customer", "Name = 'Mary'");
    ASSERT_TRUE(orders.ok() && marys.ok());
    ASSERT_TRUE(
        store->CopySubtree("Order", orders->front(), marys->front()).ok());
    ASSERT_TRUE(store->DeleteWhere("Customer", "Name = 'John'").ok());
    ASSERT_TRUE(store->DeleteWhere("OrderLine", "").ok());
    EXPECT_TRUE(store->VerifyStore().empty());
    EXPECT_TRUE(store->db()->VerifyIntegrity().empty());
    auto rebuilt = store->Reconstruct();
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
    docs.push_back(xml::Serialize(*rebuilt.value()->root()));
  }
  EXPECT_EQ(docs[0], docs[1]);
}

// ---------------------------------------------------------------------------
// Path queries (§5.3 / §7.2).

TEST(PathQueryTest, JoinsAndAsrAgree) {
  auto dtd = xupd::testing::MustParseDtd(xupd::testing::kCustomerDtd);
  RelationalStore::Options options;
  options.build_asr = true;
  auto store_or = RelationalStore::Create(dtd, options);
  ASSERT_TRUE(store_or.ok());
  auto store = std::move(store_or).value();
  auto doc = xupd::testing::MustParse(xupd::testing::kCustomerXml);
  ASSERT_TRUE(store->Load(*doc).ok());
  auto via_joins =
      store->PathQueryJoins("Customer", "OrderLine", "l0.ItemName = 'tire'");
  auto via_asr =
      store->PathQueryAsr("Customer", "OrderLine", "l.ItemName = 'tire'");
  ASSERT_TRUE(via_joins.ok()) << via_joins.status();
  ASSERT_TRUE(via_asr.ok()) << via_asr.status();
  EXPECT_EQ(*via_joins, *via_asr);
  EXPECT_EQ(via_joins->size(), 1u);  // only Seattle John ordered tires
}

// ---------------------------------------------------------------------------
// XQuery translation (§6, Examples 8/9).

TEST(TranslatorTest, Example9DeleteJohns) {
  auto store = MakeStore(DeleteStrategy::kPerTupleTrigger, InsertStrategy::kTable);
  Status s = store->ExecuteXQueryUpdate(R"(
    FOR $d IN document("custdb.xml"),
        $c IN $d/Customer[Name="John"]
    UPDATE $d { DELETE $c })");
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_EQ(Count(store.get(), "Customer"), 1);
  EXPECT_EQ(Count(store.get(), "Order"), 1);
}

TEST(TranslatorTest, Example8SuspendTireOrders) {
  auto store = MakeStore(DeleteStrategy::kPerTupleTrigger, InsertStrategy::kTable);
  Status s = store->ExecuteXQueryUpdate(R"(
    FOR $o IN document("custdb.xml")//Order[Status="ready" and
                                            OrderLine/ItemName="tire"]
    UPDATE $o {
      INSERT <Status>suspended</Status>,
      FOR $i IN $o/OrderLine[ItemName="tire"]
      UPDATE $i {
        INSERT <comment>recalled</comment>
      }
    })");
  ASSERT_TRUE(s.ok()) << s;
  // John's ready tire order is suspended; Mary's ready hammer order is not.
  auto suspended = store->db()->ExecuteQuery(
      "SELECT COUNT(*) FROM Order WHERE Status = 'suspended'");
  ASSERT_TRUE(suspended.ok());
  EXPECT_EQ(suspended->rows[0][0].AsInt(), 1);
  // Only the tire line of that order was commented.
  auto commented = store->db()->ExecuteQuery(
      "SELECT ItemName FROM OrderLine WHERE comment = 'recalled'");
  ASSERT_TRUE(commented.ok());
  ASSERT_EQ(commented->rows.size(), 1u);
  EXPECT_EQ(commented->rows[0][0].AsString(), "tire");
}

TEST(TranslatorTest, Example8BindingsComputedBeforeUpdates) {
  // The §6 hazard: the outer INSERT flips Status to 'suspended'; if the
  // nested binding ran *after* it, the nested predicate would still match
  // (it does not depend on Status) — instead check the reverse hazard: a
  // nested predicate on Status must bind before the outer update changes it.
  auto store = MakeStore(DeleteStrategy::kPerTupleTrigger, InsertStrategy::kTable);
  Status s = store->ExecuteXQueryUpdate(R"(
    FOR $o IN document("custdb.xml")//Order[Status="ready"]
    UPDATE $o {
      INSERT <Status>suspended</Status>,
      FOR $i IN $o/OrderLine[ItemName="tire"]
      UPDATE $i { INSERT <comment>recalled</comment> }
    })");
  ASSERT_TRUE(s.ok()) << s;
  auto commented = store->db()->ExecuteQuery(
      "SELECT COUNT(*) FROM OrderLine WHERE comment = 'recalled'");
  ASSERT_TRUE(commented.ok());
  EXPECT_EQ(commented->rows[0][0].AsInt(), 1);
}

TEST(TranslatorTest, Example10CopyCaliforniansAcrossStores) {
  // Copying into a different document with the same DTD is equivalent to a
  // same-document copy (§7.4 fn. 2): copy CA customers under the root.
  auto store = MakeStore(DeleteStrategy::kPerTupleTrigger, InsertStrategy::kTable);
  Status s = store->ExecuteXQueryUpdate(R"(
    FOR $d IN document("custDB.xml"),
        $source IN $d/Customer[Address/State="CA"]
    UPDATE $d { INSERT $source })");
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_EQ(Count(store.get(), "Customer"), 4);
  auto cas = store->db()->ExecuteQuery(
      "SELECT COUNT(*) FROM Customer WHERE Address_State = 'CA'");
  ASSERT_TRUE(cas.ok());
  EXPECT_EQ(cas->rows[0][0].AsInt(), 2);
}

TEST(TranslatorTest, InlinedDeleteSetsColumnsNull) {
  auto store = MakeStore(DeleteStrategy::kPerTupleTrigger, InsertStrategy::kTable);
  Status s = store->ExecuteXQueryUpdate(R"(
    FOR $c IN document("custdb.xml")/Customer[Name="Mary"],
        $a IN $c/Address
    UPDATE $c { DELETE $a })");
  ASSERT_TRUE(s.ok()) << s;
  auto r = store->db()->ExecuteQuery(
      "SELECT Address_City, Address_present FROM Customer WHERE Name = 'Mary'");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows[0][0].is_null());
  EXPECT_TRUE(r->rows[0][1].is_null());
}

TEST(TranslatorTest, UnsupportedFormsReportCleanly) {
  auto store = MakeStore(DeleteStrategy::kPerTupleTrigger, InsertStrategy::kTable);
  // Positional insert is meaningless without document order (§5.1).
  Status s = store->ExecuteXQueryUpdate(R"(
    FOR $c IN document("x")/Customer[Name="Mary"],
        $n IN $c/Name
    UPDATE $c { INSERT <Name>Zed</Name> BEFORE $n })");
  EXPECT_EQ(s.code(), StatusCode::kUnimplemented);
}

}  // namespace
}  // namespace xupd::engine
