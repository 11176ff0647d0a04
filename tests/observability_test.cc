// Tests for the engine's observability surfaces: EXPLAIN ANALYZE output
// shape and row parity, the relation between per-operator actuals and the
// statement-level histogram, SHOW METRICS / SHOW HEALTH / SHOW SLOW /
// SHOW EVENTS, and the slow-statement log.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "rdb/database.h"

namespace xupd::rdb {
namespace {

/// A small two-table parent/child database: 10 parents, 3 children each.
void Populate(Database* db) {
  ASSERT_TRUE(db->Execute("CREATE TABLE parent (id INT, v INT)").ok());
  ASSERT_TRUE(db->Execute("CREATE TABLE child (id INT, parentId INT)").ok());
  ASSERT_TRUE(
      db->Execute("CREATE INDEX child_parent ON child (parentId)").ok());
  for (int p = 0; p < 10; ++p) {
    ASSERT_TRUE(db->Execute("INSERT INTO parent VALUES (" +
                            std::to_string(p) + ", " + std::to_string(p * 10) +
                            ")")
                    .ok());
    for (int c = 0; c < 3; ++c) {
      ASSERT_TRUE(db->Execute("INSERT INTO child VALUES (" +
                              std::to_string(100 + p * 3 + c) + ", " +
                              std::to_string(p) + ")")
                      .ok());
    }
  }
}

std::vector<std::string> PlanLines(const ResultSet& rs) {
  std::vector<std::string> lines;
  for (const Row& row : rs.rows) lines.push_back(row[0].ToString());
  return lines;
}

/// Value of "key=<float>" in `line`, or -1 if absent.
double ParseField(const std::string& line, const std::string& key) {
  size_t pos = line.find(key + "=");
  if (pos == std::string::npos) return -1;
  return std::stod(line.substr(pos + key.size() + 1));
}

int64_t MetricValue(const ResultSet& metrics, const std::string& key) {
  for (const Row& row : metrics.rows) {
    if (row[0].ToString() == key) return row[1].AsInt();
  }
  return -1;
}

const char kJoin[] =
    "SELECT child.id FROM parent, child WHERE child.parentId = parent.id";

TEST(ExplainAnalyzeTest, AnnotatesEveryOperatorAndSummarizes) {
  Database db;
  Populate(&db);
  auto rs = db.ExecuteQuery(std::string("EXPLAIN ANALYZE ") + kJoin);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  std::vector<std::string> lines = PlanLines(*rs);
  ASSERT_GE(lines.size(), 3u);  // Project + two access nodes + summary

  // The root and every access node are annotated (structural grouping
  // lines like NestedLoopJoin carry no actuals of their own).
  size_t annotated = 0;
  for (const std::string& line : lines) {
    if (line.rfind("Execution:", 0) == 0) continue;
    const bool access = line.find("Scan ") != std::string::npos ||
                        line.find("IndexProbe ") != std::string::npos;
    if (!access && line.find("Project") == std::string::npos) continue;
    EXPECT_NE(line.find("actual rows="), std::string::npos) << line;
    EXPECT_NE(line.find("time_us="), std::string::npos) << line;
    if (access) EXPECT_NE(line.find("loops="), std::string::npos) << line;
    ++annotated;
  }
  EXPECT_GE(annotated, 3u);
  // The summary line is last.
  EXPECT_EQ(lines.back().rfind("Execution: rows=", 0), 0u) << lines.back();
}

TEST(ExplainAnalyzeTest, ActualRowsMatchThePlainQuery) {
  Database db;
  Populate(&db);
  auto plain = db.ExecuteQuery(kJoin);
  ASSERT_TRUE(plain.ok());
  ASSERT_EQ(plain->rows.size(), 30u);

  auto rs = db.ExecuteQuery(std::string("EXPLAIN ANALYZE ") + kJoin);
  ASSERT_TRUE(rs.ok());
  std::vector<std::string> lines = PlanLines(*rs);
  EXPECT_EQ(ParseField(lines.back(), "rows"), 30.0) << lines.back();
  // The root operator saw the same rows the plain query returned.
  EXPECT_NE(lines.front().find("actual rows=30"), std::string::npos)
      << lines.front();
}

TEST(ExplainAnalyzeTest, OperatorTimesNestInsideTheStatementHistogram) {
  Database db;
  Populate(&db);
  Histogram* stmt_hist = db.metrics().GetHistogram("stmt.explain");
  stmt_hist->Reset();

  auto rs = db.ExecuteQuery(std::string("EXPLAIN ANALYZE ") + kJoin);
  ASSERT_TRUE(rs.ok());
  std::vector<std::string> lines = PlanLines(*rs);
  const double exec_us = ParseField(lines.back(), "time_us");
  ASSERT_GT(exec_us, 0.0);

  // Every per-operator actual is contained in the execution total (operator
  // times are inclusive down the tree, so each is bounded by the root).
  // Clock-read granularity gets a small absolute allowance.
  size_t timed = 0;
  for (const std::string& line : lines) {
    if (line.rfind("Execution:", 0) == 0) continue;
    double op_us = ParseField(line, "time_us");
    if (op_us < 0) continue;  // structural line without actuals
    EXPECT_LE(op_us, exec_us + 5.0) << line;
    ++timed;
  }
  EXPECT_GE(timed, 3u);

  // The statement-level histogram recorded exactly this statement, and its
  // sample covers the execution time (plus parse/plan) without being wildly
  // larger — generous tolerance, this is a containment check, not a timing
  // assertion.
  ASSERT_EQ(stmt_hist->count(), 1u);
  const double stmt_us = static_cast<double>(stmt_hist->sum()) / 1e3;
  EXPECT_LE(exec_us, stmt_us);  // the statement span contains the execution
  EXPECT_LE(stmt_us, exec_us * 100.0 + 50000.0);
}

TEST(ExplainAnalyzeTest, DmlIsActuallyExecuted) {
  Database db;
  Populate(&db);
  auto rs =
      db.ExecuteQuery("EXPLAIN ANALYZE DELETE FROM child WHERE parentId = 3");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  std::vector<std::string> lines = PlanLines(*rs);
  EXPECT_EQ(ParseField(lines.back(), "rows"), 3.0) << lines.back();

  auto left = db.ExecuteQuery("SELECT COUNT(*) FROM child");
  ASSERT_TRUE(left.ok());
  EXPECT_EQ(left->rows[0][0].AsInt(), 27);
  EXPECT_EQ(db.stats().explain_analyzes, 1u);
}

TEST(ExplainAnalyzeTest, PlainExplainDoesNotExecute) {
  Database db;
  Populate(&db);
  auto rs = db.ExecuteQuery("EXPLAIN DELETE FROM child WHERE parentId = 3");
  ASSERT_TRUE(rs.ok());
  // No actuals annotated, nothing deleted.
  for (const std::string& line : PlanLines(*rs)) {
    EXPECT_EQ(line.find("actual rows="), std::string::npos) << line;
  }
  auto left = db.ExecuteQuery("SELECT COUNT(*) FROM child");
  ASSERT_TRUE(left.ok());
  EXPECT_EQ(left->rows[0][0].AsInt(), 30);
}

TEST(ShowTest, MetricsExposeStatsCountersAndHistograms) {
  Database db;
  Populate(&db);
  ASSERT_TRUE(db.ExecuteQuery(kJoin).ok());
  auto metrics = db.ExecuteQuery("SHOW METRICS");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_GT(MetricValue(*metrics, "stats.statements"), 0);
  EXPECT_GT(MetricValue(*metrics, "stats.rows_inserted"), 0);
  EXPECT_GT(MetricValue(*metrics, "stmt.select.count"), 0);
  EXPECT_GT(MetricValue(*metrics, "stmt.select.p50_ns"), 0);
  EXPECT_GT(MetricValue(*metrics, "stmt.insert.count"), 0);
  EXPECT_GT(MetricValue(*metrics, "db.exec_ns"), 0);
  // Every statement kind has a histogram slot, populated or not.
  EXPECT_GE(MetricValue(*metrics, "stmt.delete.count"), 0);
  EXPECT_GE(MetricValue(*metrics, "stmt.ddl.count"), 0);
}

TEST(ShowTest, StatementKindsLandInTheirOwnHistogram) {
  Database db;
  Populate(&db);
  const uint64_t inserts_before =
      db.metrics().GetHistogram("stmt.insert")->count();
  ASSERT_TRUE(db.Execute("INSERT INTO parent VALUES (99, 990)").ok());
  ASSERT_TRUE(db.Execute("DELETE FROM parent WHERE id = 99").ok());
  EXPECT_EQ(db.metrics().GetHistogram("stmt.insert")->count(),
            inserts_before + 1);
  EXPECT_EQ(db.metrics().GetHistogram("stmt.delete")->count(), 1u);
}

TEST(ShowTest, HealthReportsTheDegradationSurface) {
  Database db;
  auto health = db.ExecuteQuery("SHOW HEALTH");
  ASSERT_TRUE(health.ok());
  bool saw_read_only = false;
  bool saw_durability = false;
  for (const Row& row : health->rows) {
    if (row[0].ToString() == "read_only") {
      saw_read_only = true;
      EXPECT_EQ(row[1].ToString(), "0");
    }
    if (row[0].ToString() == "durability_open") {
      saw_durability = true;
      EXPECT_EQ(row[1].ToString(), "0");  // in-memory database
    }
  }
  EXPECT_TRUE(saw_read_only);
  EXPECT_TRUE(saw_durability);
}

TEST(ShowTest, EventsRecordStatementSpans) {
  Database db;
  Populate(&db);
  auto events = db.ExecuteQuery("SHOW EVENTS");
  ASSERT_TRUE(events.ok());
  ASSERT_FALSE(events->rows.empty());
  const std::string first = events->rows[0][0].ToString();
  EXPECT_NE(first.find("\"kind\":\"statement\""), std::string::npos) << first;
  EXPECT_NE(first.find("\"duration_ns\":"), std::string::npos) << first;
}

TEST(ShowTest, TableStatsCountAccessesPerTableAndIndex) {
  Database db;
  Populate(&db);
  // The join scans parent and probes child_parent once per parent row.
  ASSERT_TRUE(db.ExecuteQuery(kJoin).ok());
  ASSERT_TRUE(db.Execute("UPDATE parent SET v = v + 1 WHERE id = 3").ok());
  ASSERT_TRUE(db.Execute("DELETE FROM child WHERE parentId = 9").ok());

  auto stats = db.ExecuteQuery("SHOW TABLE STATS");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(MetricValue(*stats, "table.parent.scans"), 0);
  EXPECT_GT(MetricValue(*stats, "table.parent.rows_read"), 0);
  EXPECT_EQ(MetricValue(*stats, "table.parent.rows_inserted"), 10);
  EXPECT_EQ(MetricValue(*stats, "table.parent.rows_updated"), 1);
  EXPECT_EQ(MetricValue(*stats, "table.child.rows_inserted"), 30);
  EXPECT_EQ(MetricValue(*stats, "table.child.rows_deleted"), 3);
  EXPECT_EQ(MetricValue(*stats, "table.child.live_rows"), 27);
  // The join drove the secondary index: 10 probes (one per parent row), all
  // hits; the DELETE may add more.
  EXPECT_GE(MetricValue(*stats, "index.child.child_parent.probes"), 10);
  EXPECT_GE(MetricValue(*stats, "index.child.child_parent.hits"), 10);
  EXPECT_LE(MetricValue(*stats, "index.child.child_parent.hits"),
            MetricValue(*stats, "index.child.child_parent.probes"));
  // Version-buffer columns exist even when nothing is parked right now.
  EXPECT_GE(MetricValue(*stats, "table.parent.version_rows"), 0);
  EXPECT_GE(MetricValue(*stats, "table.parent.version_bytes"), 0);
  // Slot columns: the 3 deleted child rows are tombstones in 30 slots.
  EXPECT_EQ(MetricValue(*stats, "table.child.slots"), 30);
  EXPECT_EQ(MetricValue(*stats, "table.child.dead_slots"), 3);
  EXPECT_EQ(MetricValue(*stats, "table.parent.dead_slots"), 0);
}

TEST(ShowTest, SlotReuseShowsInTableStatsAndMetrics) {
  Database db;
  Populate(&db);
  ASSERT_TRUE(db.Execute("DELETE FROM child WHERE parentId = 9").ok());
  // The delete's boundary published the 3 tombstones; two inserts take two
  // of them instead of growing the slab.
  ASSERT_TRUE(db.Execute("INSERT INTO child VALUES (100, 1), (101, 2)").ok());
  auto stats = db.ExecuteQuery("SHOW TABLE STATS");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(MetricValue(*stats, "table.child.slots"), 30);
  EXPECT_EQ(MetricValue(*stats, "table.child.dead_slots"), 1);
  EXPECT_EQ(MetricValue(*stats, "table.child.live_rows"), 29);
  auto metrics = db.ExecuteQuery("SHOW METRICS");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(MetricValue(*metrics, "stats.slots_reused"), 2);
  EXPECT_NE(db.stats().ToString().find("reused=2"), std::string::npos);
}

TEST(ShowTest, TraceReturnsChromeTraceJson) {
  Database db;
  Populate(&db);
  ASSERT_TRUE(db.ExecuteQuery(kJoin).ok());
  auto trace = db.ExecuteQuery("SHOW TRACE");
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  ASSERT_EQ(trace->columns.size(), 1u);
  ASSERT_EQ(trace->rows.size(), 1u);
  const std::string json = trace->rows[0][0].ToString();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json.substr(0, 64);
  EXPECT_EQ(json.substr(json.size() - 2), "]}");
  // Statement spans carry their causal identity into the export.
  EXPECT_NE(json.find("\"name\":\"statement\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
}

TEST(ShowTest, ParserRejectsIncompleteShowTable) {
  Database db;
  auto rs = db.ExecuteQuery("SHOW TABLE");
  EXPECT_FALSE(rs.ok());
}

TEST(SlowLogTest, ThresholdZeroCapturesStatementsWithPlans) {
  Database db;
  Populate(&db);
  db.set_slow_statement_threshold_us(0);
  ASSERT_TRUE(db.ExecuteQuery(kJoin).ok());
  ASSERT_FALSE(db.slow_statements().empty());
  const Database::SlowStatement& slow = db.slow_statements().back();
  EXPECT_EQ(slow.sql, kJoin);
  EXPECT_GT(slow.duration_ns, 0u);
  EXPECT_NE(slow.plan.find("Project"), std::string::npos) << slow.plan;
  EXPECT_GT(db.stats().slow_statements, 0u);

  auto shown = db.ExecuteQuery("SHOW SLOW");
  ASSERT_TRUE(shown.ok());
  EXPECT_FALSE(shown->rows.empty());

  db.clear_slow_statements();
  EXPECT_TRUE(db.slow_statements().empty());
}

TEST(SlowLogTest, DisabledByDefault) {
  Database db;
  Populate(&db);
  ASSERT_TRUE(db.ExecuteQuery(kJoin).ok());
  EXPECT_TRUE(db.slow_statements().empty());
  EXPECT_EQ(db.stats().slow_statements, 0u);
}

}  // namespace
}  // namespace xupd::rdb
