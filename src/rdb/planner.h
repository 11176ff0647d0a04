// Logical planner: turns parsed SELECT/INSERT/DELETE/UPDATE statements into
// immutable plan trees. Planning resolves every column reference to a
// (relation ordinal, column ordinal) pair, chooses index access paths, and
// pushes WHERE conjuncts down to the earliest join step that can evaluate
// them — all ONCE per plan instead of once per row, which is what lets the
// physical operators (rdb/exec_node.h) run over pre-resolved ordinals.
//
// Plans capture raw Table* / HashIndex* pointers from the catalog snapshot
// they were built against; one guard protects every cached reuse: the
// global Database::catalog_version(), bumped by any SQL DDL (including
// CREATE INDEX / DROP INDEX — plans capture index choices) and by TryHeal's
// catalog rebuild — the only ways a table leaves the catalog. Engine
// scratch tables (id-list and §6.2.2 staging) are cleared, never dropped,
// so plans over them stay valid. A stale plan is rebuilt, never
// dereferenced. Plans are immutable after construction and hold no
// execution state, so one cached plan can be executed reentrantly (e.g. a
// recursive trigger body).
#ifndef XUPD_RDB_PLANNER_H_
#define XUPD_RDB_PLANNER_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "rdb/result.h"
#include "rdb/sql_ast.h"
#include "rdb/table.h"

namespace xupd::rdb {

class Database;
struct PlannedSelect;

/// A bound expression: sql::Expr with every column reference resolved to
/// ordinals (kColumn -> relation/column, kOldColumn -> trigger-schema column)
/// and IN-subqueries planned. `name` keeps the source identifier for EXPLAIN.
struct BoundExpr {
  sql::Expr::Kind kind = sql::Expr::Kind::kLiteral;
  Value literal;
  int param_index = 0;   ///< kParam: 0-based placeholder ordinal.
  size_t rel = 0;        ///< kColumn: relation ordinal within the plan.
  size_t col = 0;        ///< kColumn / kOldColumn / kAggregate argument.
  std::string name;      ///< source identifier (display only).
  sql::Expr::Op op = sql::Expr::Op::kNone;
  std::vector<BoundExpr> children;
  std::vector<BoundExpr> in_list;
  std::shared_ptr<const PlannedSelect> subquery;  ///< kInSubquery.
  bool negated = false;
  sql::Expr::Agg agg = sql::Expr::Agg::kCount;
  bool count_star = false;
  /// Highest relation ordinal referenced by this subtree (-1 = none).
  /// Subqueries are independent (the dialect has no correlation) and do not
  /// contribute.
  int max_rel = -1;
};

/// One FROM entry, resolved: a catalog table or a materialized CTE slot.
struct PlannedRelation {
  std::string alias;
  std::string name;               ///< table / CTE name (display).
  const Table* table = nullptr;   ///< catalog table (null for a CTE).
  int cte_slot = -1;              ///< >= 0: slot in the execution's CTE store.
  std::vector<std::string> columns;  ///< column names, for * expansion.
};

/// How one relation is accessed: full scan, or a hash-index probe driven by
/// an equality conjunct, an IN value list, or an IN (SELECT ...) set.
struct AccessPath {
  enum class Kind { kScan, kIndexEq, kIndexIn, kIndexInSubquery };
  Kind kind = Kind::kScan;
  const HashIndex* index = nullptr;
  std::string index_name;   ///< display only.
  std::string column_name;  ///< indexed column, display only.
  /// kIndexEq: probe value over strictly-earlier relations (or no columns).
  BoundExpr probe;
  /// kIndexIn: the column-free IN-list values.
  std::vector<BoundExpr> probe_list;
  /// kIndexInSubquery: the planned set-producing subquery (shared with the
  /// bound conjunct, so the execution-time memo covers both uses).
  std::shared_ptr<const PlannedSelect> probe_subquery;
};

/// One planned SELECT core: a left-to-right nested-loop join pipeline with
/// per-step access paths and pushed-down filters, then project or aggregate.
struct PlannedCore {
  std::vector<PlannedRelation> relations;
  std::vector<AccessPath> paths;                ///< one per relation.
  std::vector<std::vector<BoundExpr>> filters;  ///< conjuncts per join step.
  std::vector<BoundExpr> const_filters;         ///< WHERE with no FROM.
  bool has_aggregate = false;
  /// Output expressions ('*' pre-expanded into kColumn refs at plan time;
  /// kAggregate items when has_aggregate).
  std::vector<BoundExpr> outputs;
  std::vector<std::string> out_columns;
};

/// A planned SELECT statement: CTEs (materialized into per-execution slots),
/// UNION ALL cores, and ORDER BY resolved to output ordinals.
struct PlannedSelect {
  struct Cte {
    std::string name;
    int slot = 0;
    std::shared_ptr<const PlannedSelect> query;
    std::vector<std::string> columns;
  };
  std::vector<Cte> ctes;
  std::vector<PlannedCore> cores;
  std::vector<std::pair<int, bool>> order_by;  ///< (output ordinal, desc).
  std::vector<std::string> out_columns;
};

/// A planned DELETE or UPDATE: single-table access path + residual filters.
struct PlannedMutation {
  Table* table = nullptr;
  std::string table_name;
  AccessPath path;
  std::vector<BoundExpr> filters;  ///< conjuncts not consumed by the path.
  struct Set {
    int col = 0;
    ColumnType type = ColumnType::kVarchar;
    BoundExpr expr;
  };
  std::vector<Set> sets;  ///< UPDATE only.
};

/// A planned INSERT: resolved column map + bound VALUES rows or a planned
/// source SELECT.
struct PlannedInsert {
  Table* table = nullptr;
  std::string table_name;
  std::vector<int> column_map;            ///< statement position -> column.
  std::vector<ColumnType> column_types;   ///< per column_map entry.
  std::vector<std::vector<BoundExpr>> rows;
  std::shared_ptr<const PlannedSelect> select;
};

struct PlannedStatement {
  sql::Statement::Kind kind = sql::Statement::Kind::kSelect;
  std::shared_ptr<const PlannedSelect> select;
  PlannedMutation mutation;
  PlannedInsert insert;
  /// Total CTE slots across the statement (including nested subqueries);
  /// sizes the per-execution CTE store.
  int cte_slot_count = 0;
};

/// One cached plan: hangs off a StatementHandle (prepared statements) or the
/// Database's trigger-body map. `version`/`db` guard reuse against catalog
/// changes and cross-database handle misuse.
struct PlanCacheSlot {
  std::shared_ptr<const PlannedStatement> plan;
  uint64_t version = 0;
  const void* db = nullptr;
};

/// An immutable parsed statement. Handles stay valid after cache eviction or
/// invalidation (they are shared_ptrs); name resolution happens at plan
/// time, so a handle held across DDL simply re-plans against the new
/// catalog (the per-handle plan slot is version-guarded).
struct PreparedStatement {
  std::string sql;     ///< original text (also the cache key).
  sql::Statement stmt; ///< parsed form.
  int param_count = 0; ///< number of ? placeholders to bind.
  /// Cached plan for this statement (the plan cache hangs off the handle, so
  /// ExecutePrepared/ExecuteBound reuse it across calls and only bind
  /// parameters). Mutable: handles are shared as pointers-to-const.
  mutable PlanCacheSlot plan_slot;
};

using StatementHandle = std::shared_ptr<const PreparedStatement>;

/// A bounded LRU cache of parsed statements keyed by their SQL text: the
/// writer's prepared-statement cache and each reader session's parse cache.
class StatementCache {
 public:
  static constexpr size_t kDefaultCapacity = 128;

  /// The handle cached for `sql`, now the most recently used; null on a miss.
  StatementHandle Find(std::string_view sql);
  /// Caches `handle` as the most recently used, evicting the least recently
  /// used entries beyond capacity.
  void Insert(StatementHandle handle);
  void Clear() {
    index_.clear();
    lru_.clear();
  }
  size_t size() const { return lru_.size(); }
  size_t capacity() const { return capacity_; }
  void set_capacity(size_t capacity);

 private:
  /// Front = most recently used. Keys view the handles' own text.
  std::list<StatementHandle> lru_;
  std::map<std::string_view, std::list<StatementHandle>::iterator> index_;
  size_t capacity_ = kDefaultCapacity;
};

class Planner {
 public:
  /// `old_schema` (optional) resolves OLD.column references — the schema of
  /// the table whose row trigger is being planned.
  Planner(Database* db, const TableSchema* old_schema)
      : db_(db), old_schema_(old_schema) {}

  /// Plans a SELECT/INSERT/DELETE/UPDATE statement. Other kinds are not
  /// plannable and return InvalidArgument.
  Result<std::shared_ptr<const PlannedStatement>> Plan(
      const sql::Statement& stmt);

  /// Reader sessions plan with index probes disabled: hash indexes are
  /// writer-private (not epoch-versioned), so snapshot reads always scan.
  void set_allow_index_probes(bool allow) { allow_index_probes_ = allow; }

 private:
  struct CteScope {
    std::string name;
    int slot = 0;
    std::vector<std::string> columns;
  };

  Result<std::shared_ptr<const PlannedSelect>> PlanSelect(
      const sql::SelectStmt& stmt);
  Result<PlannedCore> PlanCore(const sql::SelectCore& core);
  Result<PlannedMutation> PlanDelete(const sql::DeleteStmt& stmt);
  Result<PlannedMutation> PlanUpdate(const sql::UpdateStmt& stmt);
  Result<PlannedInsert> PlanInsert(const sql::InsertStmt& stmt);

  /// Resolves [alias.]column against `rels` (all of them; ambiguity and
  /// not-found reproduce the interpreter's messages).
  Result<std::pair<size_t, size_t>> ResolveColumn(
      const std::vector<PlannedRelation>& rels, const std::string& table,
      const std::string& column) const;

  /// Binds `e` against `rels`. `values_context` switches the no-columns
  /// error message (INSERT VALUES rows reject column references outright).
  Result<BoundExpr> Bind(const sql::Expr& e,
                         const std::vector<PlannedRelation>& rels,
                         bool values_context = false);

  /// Picks an index access path for relation `k` from the conjuncts placed
  /// at step `k` (first usable conjunct in order wins). Equality probes may
  /// reference strictly-earlier relations; IN-list and IN-subquery probes
  /// are row-free by construction (the dialect has no correlation) and are
  /// considered at EVERY join position — at inner steps the executor
  /// gathers their candidate set once per execution and replays it for each
  /// outer row. Returns the index of the consumed conjunct in `conjuncts`
  /// (-1 = scan).
  int ChooseAccessPath(const std::vector<PlannedRelation>& rels, size_t k,
                       const std::vector<BoundExpr*>& conjuncts,
                       AccessPath* path) const;

  Database* db_;
  const TableSchema* old_schema_;
  bool allow_index_probes_ = true;
  /// CTE scopes visible while planning (innermost last).
  std::vector<CteScope> cte_stack_;
  int next_cte_slot_ = 0;
};

/// Actual-execution counters for one plan operator, filled by EXPLAIN
/// ANALYZE (see exec_node.cc's TimedNode).
struct OpStats {
  uint64_t opens = 0;    ///< Open() calls — "loops" for a join inner side.
  uint64_t rows = 0;     ///< tuples emitted.
  uint64_t time_ns = 0;  ///< inclusive wall time spent in Open()/Next().
};

/// Per-operator actuals for one EXPLAIN ANALYZE execution, shaped like the
/// plan: one entry per (core, relation access step) plus a per-core total
/// (pipeline + project/aggregate) and the statement root.
struct AnalyzeStats {
  struct Core {
    OpStats total;              ///< the whole core, inclusive.
    std::vector<OpStats> rels;  ///< one per relation access step.
  };
  std::vector<Core> cores;  ///< top-level SELECT cores (or INSERT..SELECT).
  OpStats mutation;         ///< DELETE/UPDATE row-collection step.
  OpStats root;             ///< the whole statement (rows = result/affected).
};

/// Renders a plan tree, one node per line (the EXPLAIN output).
std::string PlanToString(const PlannedStatement& plan);

/// Renders the plan annotated with per-operator actuals plus a trailing
/// "Execution: ..." summary line (the EXPLAIN ANALYZE output).
std::string PlanToStringAnalyzed(const PlannedStatement& plan,
                                 const AnalyzeStats& stats);

/// A rendered plan as the one-column "plan" result EXPLAIN returns, one row
/// per line.
ResultSet PlanResult(std::string_view rendered);

}  // namespace xupd::rdb

#endif  // XUPD_RDB_PLANNER_H_
