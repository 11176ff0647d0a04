#include "rdb/database.h"

#include <algorithm>

#include "common/stopwatch.h"
#include "common/str_util.h"
#include "rdb/exec_node.h"
#include "rdb/sql_executor.h"
#include "rdb/sql_parser.h"

namespace xupd::rdb {

namespace {

// Busy-wait so the simulated latency shows up in wall-clock measurements.
// Deadline-aware: an armed statement deadline cuts the spin short so a
// timed-out statement fails promptly instead of first paying the full
// simulated round trip.
void SpinFor(double us, uint64_t deadline_ns = 0) {
  if (us <= 0) return;
  Stopwatch sw;
  while (sw.ElapsedSeconds() * 1e6 < us) {
    if (deadline_ns != 0 && MonotonicNanos() >= deadline_ns) return;
  }
}

// Parses `sql_text` into a fresh (uncached) handle.
Result<StatementHandle> ParseStatement(std::string_view sql_text) {
  auto stmt = sql::ParseSql(sql_text);
  if (!stmt.ok()) return stmt.status();
  auto prepared = std::make_shared<PreparedStatement>();
  prepared->sql = std::string(sql_text);
  prepared->param_count = stmt.value().param_count;
  prepared->stmt = std::move(stmt).value();
  return StatementHandle(std::move(prepared));
}

}  // namespace

std::string MultiRowInsertSql(std::string_view table, size_t columns,
                              size_t rows) {
  std::string sql = "INSERT INTO ";
  sql += table;
  sql += " VALUES ";
  for (size_t r = 0; r < rows; ++r) {
    if (r > 0) sql += ", ";
    sql += "(";
    for (size_t c = 0; c < columns; ++c) {
      if (c > 0) sql += ", ";
      sql += "?";
    }
    sql += ")";
  }
  return sql;
}

Database::Database() {
  InitMetrics();
  // Wire the memory accountant into the always-present charge sites; tables
  // and the WAL writer are wired as they are created/opened.
  interner_.set_accountant(&mem_);
  txn_.set_accountant(&mem_);
}

void Database::InitMetrics() {
  static constexpr const char* kStmtHistNames[kStmtKindSlots] = {
      "stmt.select", "stmt.insert", "stmt.delete", "stmt.update",
      "stmt.ddl",    "stmt.txn",    "stmt.explain", "stmt.other",
  };
  for (size_t i = 0; i < kStmtKindSlots; ++i) {
    stmt_hists_[i] = metrics_.GetHistogram(kStmtHistNames[i]);
  }
  exec_ns_ = metrics_.Counter("db.exec_ns");
  trigger_ns_ = metrics_.Counter("db.trigger_ns");
  epochs_.readers_gauge = metrics_.Gauge("readers.active");
  // Concurrency telemetry (PR 9): resolved once so the commit-boundary and
  // reader hot paths touch plain atomics.
  epochs_.lag_gauge = metrics_.Gauge("epoch.lag");
  epochs_.reclaim_counter = metrics_.Counter("mvcc.slab_reclaims");
  epoch_published_gauge_ = metrics_.Gauge("epoch.published");
  version_rows_gauge_ = metrics_.Gauge("mvcc.version_rows");
  version_bytes_gauge_ = metrics_.Gauge("mvcc.version_bytes");
  version_gc_rows_ = metrics_.Counter("mvcc.version_gc_rows");
  reader_sessions_gauge_ = metrics_.Gauge("readers.sessions");
  // Resource governance (PR 10): statement-kill counters, heal/watchdog
  // observability, and the mem.* gauges the accountant mirrors into.
  stmt_cancelled_ = metrics_.Counter("stmt.cancelled");
  stmt_deadline_exceeded_ = metrics_.Counter("stmt.deadline_exceeded");
  stmt_resource_exhausted_ = metrics_.Counter("stmt.resource_exhausted");
  stmt_shed_ = metrics_.Counter("stmt.shed");
  mem_.AttachMetrics(&metrics_);
}

size_t Database::StmtKindSlot(sql::Statement::Kind kind) {
  switch (kind) {
    case sql::Statement::Kind::kSelect:
      return 0;
    case sql::Statement::Kind::kInsert:
      return 1;
    case sql::Statement::Kind::kDelete:
      return 2;
    case sql::Statement::Kind::kUpdate:
      return 3;
    case sql::Statement::Kind::kCreateTable:
    case sql::Statement::Kind::kCreateIndex:
    case sql::Statement::Kind::kCreateTrigger:
    case sql::Statement::Kind::kDrop:
      return 4;
    case sql::Statement::Kind::kBegin:
    case sql::Statement::Kind::kCommit:
    case sql::Statement::Kind::kRollback:
    case sql::Statement::Kind::kSavepoint:
    case sql::Statement::Kind::kRelease:
      return 5;
    case sql::Statement::Kind::kExplain:
      return 6;
    default:  // kCheckIntegrity, kShow
      return 7;
  }
}

bool Database::IsDdl(const sql::Statement& stmt) {
  switch (stmt.kind) {
    case sql::Statement::Kind::kCreateTable:
    case sql::Statement::Kind::kCreateIndex:
    case sql::Statement::Kind::kCreateTrigger:
    case sql::Statement::Kind::kDrop:
      return true;
    default:
      return false;
  }
}

void Database::InvalidateStatementCache() {
  statement_cache_.Clear();
  BumpCatalogVersion();
}

void Database::BumpCatalogVersion() {
  catalog_version_.fetch_add(1, std::memory_order_acq_rel);
  trigger_plans_.clear();
}

void Database::PublishCatalog(Catalog next) {
  const Catalog* old = catalog_.exchange(new Catalog(std::move(next)),
                                         std::memory_order_acq_rel);
  // A statement pinned at or before the current epoch may have resolved
  // names through `old`; only pins taken after the next boundary cannot.
  epochs_.Retire(epochs_.current(), [old] { delete old; });
}

void Database::ResetCatalog() {
  PublishCatalog({});
  triggers_.clear();
  InvalidateStatementCache();
  next_id_ = 1;
}

Database::~Database() {
  // Background threads first (the checkpoint thread reads the tables), and
  // a clean shutdown persists pending direct-API writes; an open
  // transaction's pending redo is uncommitted and must not.
  durability_.Close(/*commit_pending=*/!txn_.active());
  // The metrics registry dies before the tables, interner_ and txn_ do,
  // and their destructors release memory charges — stop mirroring into
  // gauges now.
  mem_.AttachMetrics(nullptr);
  delete catalog_.load(std::memory_order_relaxed);
}

Status Database::WalFlush() {
  if (txn_.active()) return Status::OK();
  Status unit = durability_.CommitUnit();
  // Every top-level boundary publishes an epoch — also on statement failure
  // (outside a transaction partial effects stay visible, matching the
  // documented single-thread semantics) and on non-durable Databases.
  AdvanceEpochBoundary();
  return unit;
}

void Database::AdvanceEpochBoundary() {
  const uint64_t published = epochs_.Advance();
  epoch_published_gauge_->store(static_cast<int64_t>(published),
                                std::memory_order_relaxed);
  // With no pin held MinPinned returns without a slot scan, so a boundary
  // with no reader costs the increment, one pin-count load and a few
  // relaxed stores. Every later pin lands at or above `published`, so the
  // tombstones it published become reusable slots.
  const uint64_t min_pinned = epochs_.MinPinned();
  epochs_.reuse_horizon = std::min(min_pinned, published);
  epochs_.lag_gauge->store(
      min_pinned == UINT64_MAX ? 0
                               : static_cast<int64_t>(published - min_pinned),
      std::memory_order_relaxed);
  if (!epochs_.has_retired() && epochs_.version_entries == 0) return;
  epochs_.ReclaimBefore(min_pinned);
  uint64_t version_bytes = 0;
  if (epochs_.version_entries > 0) {
    uint64_t trimmed = 0;
    for (auto& [name, table] : catalog()) {
      trimmed += table->GcVersions(min_pinned);
      version_bytes += table->version_bytes();
    }
    if (trimmed != 0) {
      version_gc_rows_->fetch_add(trimmed, std::memory_order_relaxed);
    }
  }
  version_rows_gauge_->store(static_cast<int64_t>(epochs_.version_entries),
                             std::memory_order_relaxed);
  version_bytes_gauge_->store(static_cast<int64_t>(version_bytes),
                              std::memory_order_relaxed);
}

Status Database::CheckWritable(const sql::Statement& stmt) const {
  if (!read_only()) return Status::OK();
  // DDL always goes through the WAL when durability is open. DML is
  // rejected only against durable tables: engine scratch tables (idlists,
  // setup markers) bypass the WAL and must keep working so reads — which
  // stage intermediate ids — still run in degraded mode. SELECT, EXPLAIN,
  // CHECK INTEGRITY, and transaction control stay available (a txn holding
  // only scratch-table writes is legitimate).
  using Kind = sql::Statement::Kind;
  const std::string* table = nullptr;
  const char* action = nullptr;
  switch (stmt.kind) {
    case Kind::kCreateTable: action = "CREATE TABLE"; break;
    case Kind::kCreateIndex: action = "CREATE INDEX"; break;
    case Kind::kCreateTrigger: action = "CREATE TRIGGER"; break;
    case Kind::kDrop: action = "DROP"; break;
    case Kind::kInsert: table = &stmt.insert.table; action = "INSERT"; break;
    case Kind::kDelete: table = &stmt.del.table; action = "DELETE"; break;
    case Kind::kUpdate: table = &stmt.update.table; action = "UPDATE"; break;
    default: return Status::OK();
  }
  if (table != nullptr) {
    const Table* t = FindTable(*table);
    if (t != nullptr && !t->durable()) return Status::OK();
  }
  return durability_.ReadOnlyError(action);
}

Status Database::Begin() {
  if (!txn_.active()) txn_start_ns_ = MonotonicNanos();
  txn_.Begin(next_id_);
  return Status::OK();
}

Status Database::Commit() {
  XUPD_RETURN_IF_ERROR(txn_.Commit());
  // The outermost commit makes the unit durable: flush its redo records.
  if (!txn_.active()) {
    Status unit = durability_.CommitUnit();
    AdvanceEpochBoundary();
    const uint64_t dur = MonotonicNanos() - txn_start_ns_;
    metrics_.GetHistogram("db.txn")->Record(dur);
    events_.Record({TraceEvent::Kind::kTxn, txn_start_ns_, dur, 1, 0,
                    nullptr});
    return unit;
  }
  return Status::OK();
}

Status Database::Rollback() {
  auto next_id = txn_.Rollback();
  if (!next_id.ok()) return next_id.status();
  next_id_ = next_id.value();
  if (!txn_.active()) {
    // Rolled-back state is a boundary too: rows un-deleted by undo carry
    // their restored metadata and must become visible to new pins.
    AdvanceEpochBoundary();
    const uint64_t dur = MonotonicNanos() - txn_start_ns_;
    metrics_.GetHistogram("db.txn")->Record(dur);
    events_.Record({TraceEvent::Kind::kTxn, txn_start_ns_, dur, 0, 0,
                    nullptr});
  }
  return Status::OK();
}

Status Database::Savepoint(const std::string& name) {
  if (!txn_.active()) {
    return Status::InvalidArgument(
        "SAVEPOINT requires an active transaction");
  }
  txn_.Begin(next_id_, name);
  return Status::OK();
}

Status Database::RollbackTo(const std::string& name) {
  auto next_id = txn_.RollbackTo(name);
  if (!next_id.ok()) return next_id.status();
  next_id_ = next_id.value();
  return Status::OK();
}

Status Database::Release(const std::string& name) {
  XUPD_RETURN_IF_ERROR(txn_.Release(name));
  // Releasing the outermost scope commits the unit — WalFlush also
  // publishes the epoch boundary.
  if (!txn_.active()) return WalFlush();
  return Status::OK();
}

Status Database::ConsumeFailpoint() {
  if (fail_after_statements_ < 0) return Status::OK();
  if (fail_after_statements_ == 0) {
    fail_after_statements_ = -1;
    return Status::Internal("injected failure");
  }
  --fail_after_statements_;
  return Status::OK();
}

Status Database::CheckDdlBarrier(const sql::Statement& stmt) const {
  if (txn_.active() && IsDdl(stmt)) {
    return Status::InvalidArgument(
        "DDL is not allowed inside a transaction (catalog changes are not "
        "undoable; commit or roll back first)");
  }
  return Status::OK();
}

uint64_t Database::EffectiveDeadline(int64_t timeout_us) const {
  uint64_t deadline =
      timeout_us > 0 ? MonotonicNanos() + static_cast<uint64_t>(timeout_us) *
                                              1000
                     : 0;
  // An armed engine-op deadline bounds every statement of the op; the
  // earlier of the two wins.
  if (operation_deadline_ns_ != 0 &&
      (deadline == 0 || operation_deadline_ns_ < deadline)) {
    deadline = operation_deadline_ns_;
  }
  return deadline;
}

bool Database::GovernanceExempt(sql::Statement::Kind kind) {
  switch (kind) {
    // Resource-releasing and diagnostic statements must run even over
    // budget / past a deadline: COMMIT and ROLLBACK shrink the very
    // buffers the budgets meter, and SHOW / CHECK INTEGRITY / SET are how
    // an operator diagnoses and fixes an overloaded database.
    case sql::Statement::Kind::kCommit:
    case sql::Statement::Kind::kRollback:
    case sql::Statement::Kind::kRelease:
    case sql::Statement::Kind::kShow:
    case sql::Statement::Kind::kCheckIntegrity:
    case sql::Statement::Kind::kSet:
      return true;
    default:
      return false;
  }
}

Status Database::GovernanceAdmission(uint64_t deadline_ns) const {
  if (cancel_token_.cancelled()) {
    return Status::Cancelled(
        "statement cancelled via CancelToken (Reset() to resume)");
  }
  if (deadline_ns != 0 && MonotonicNanos() >= deadline_ns) {
    return Status::DeadlineExceeded(
        "statement deadline exceeded before execution (see "
        "Database::set_statement_timeout_us / SET STATEMENT_TIMEOUT)");
  }
  XUPD_RETURN_IF_ERROR(mem_.CheckHard());
  return mem_.CheckAdmission();
}

Result<ResultSet> Database::RunStatement(const sql::Statement& stmt,
                                         const std::vector<Value>* params,
                                         std::string_view sql_text,
                                         PlanCacheSlot* slot,
                                         uint64_t deadline_ns) {
  // DDL invalidation happens inside the Executor, the choke point shared
  // by all entry paths.
  const bool exempt = GovernanceExempt(stmt.kind);
  // Snapshot stats when governance could kill this statement, so a killed
  // statement's slow-log entry carries the partial-work delta even with
  // the slow log's threshold disabled.
  const bool governed =
      !exempt && (deadline_ns != 0 || cancel_at_pull_armed_ ||
                  mem_.soft_budget() != 0 || mem_.hard_budget() != 0 ||
                  mem_.wal_pending_limit() != 0);
  const bool slow_enabled = slow_statement_threshold_us_ >= 0;
  Stats before;
  if (slow_enabled || governed) before = stats_;
  const uint64_t t0 = MonotonicNanos();
  // Root (or nested, inside a trigger cascade) span of the statement: every
  // engine op, WAL unit and fsync recorded below inherits it through the
  // thread-local trace context.
  trace::SpanScope stmt_span;
  Executor exec(this, params, sql_text);
  exec.set_deadline(deadline_ns);
  Status gate = exempt ? Status::OK() : GovernanceAdmission(deadline_ns);
  auto result = gate.ok() ? exec.Run(stmt, slot) : Result<ResultSet>(gate);
  Status wal = WalFlush();
  const uint64_t dur = MonotonicNanos() - t0;
  stmt_hists_[StmtKindSlot(stmt.kind)]->Record(dur);
  *exec_ns_ += dur;
  TraceEvent stmt_ev{TraceEvent::Kind::kStatement, t0, dur,
                     static_cast<uint64_t>(stmt.kind), 0, nullptr};
  stmt_span.Annotate(&stmt_ev);
  events_.Record(stmt_ev);
  // Classify governance kills: count them, and force a slow-log entry with
  // the cause so operators can see WHAT was killed and how far it got.
  const char* cause = nullptr;
  if (!result.ok()) {
    switch (result.status().code()) {
      case StatusCode::kCancelled:
        cause = "cancelled";
        stmt_cancelled_->fetch_add(1, std::memory_order_relaxed);
        break;
      case StatusCode::kDeadlineExceeded:
        cause = "deadline_exceeded";
        stmt_deadline_exceeded_->fetch_add(1, std::memory_order_relaxed);
        break;
      case StatusCode::kResourceExhausted:
        cause = "resource_exhausted";
        stmt_resource_exhausted_->fetch_add(1, std::memory_order_relaxed);
        if (!gate.ok()) stmt_shed_->fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        break;
    }
  }
  if ((slow_enabled && dur >= slow_statement_threshold_us_ * 1000.0) ||
      cause != nullptr) {
    SlowStatement slow;
    slow.sql = std::string(sql_text);
    slow.duration_ns = dur;
    if (slow_enabled || governed) slow.delta = stats_.Delta(before);
    if (exec.last_plan() != nullptr) slow.plan = PlanToString(*exec.last_plan());
    if (cause != nullptr) slow.cause = cause;
    if (slow_log_.size() >= slow_log_capacity_) {
      slow_log_.erase(slow_log_.begin());
    }
    slow_log_.push_back(std::move(slow));
    ++stats_.slow_statements;
  }
  if (!result.ok()) return result;
  if (!wal.ok()) return wal;
  return result;
}

Status Database::Execute(std::string_view sql_text) {
  return Execute(sql_text, statement_timeout_us());
}

Status Database::Execute(std::string_view sql_text, int64_t timeout_us) {
  auto result = ExecuteQuery(sql_text, timeout_us);
  if (!result.ok()) return result.status();
  return Status::OK();
}

Result<ResultSet> Database::ExecuteQuery(std::string_view sql_text) {
  return ExecuteQuery(sql_text, statement_timeout_us());
}

Result<ResultSet> Database::ExecuteQuery(std::string_view sql_text,
                                         int64_t timeout_us) {
  ++stats_.statements;
  const uint64_t deadline_ns = EffectiveDeadline(timeout_us);
  SpinFor(statement_latency_us_, deadline_ns);
  ++stats_.sql_parses;
  auto stmt = sql::ParseSql(sql_text);
  if (!stmt.ok()) return stmt.status();
  return RunStatement(stmt.value(), nullptr, sql_text, nullptr, deadline_ns);
}

Result<StatementHandle> Database::Prepare(std::string_view sql_text,
                                          bool cacheable) {
  if (StatementHandle cached = statement_cache_.Find(sql_text)) {
    ++stats_.prepared_hits;
    return cached;
  }
  ++stats_.prepared_misses;
  ++stats_.sql_parses;
  XUPD_ASSIGN_OR_RETURN(StatementHandle handle, ParseStatement(sql_text));
  // DDL is never cached: executing it would invalidate its own entry.
  if (cacheable && !IsDdl(handle->stmt)) statement_cache_.Insert(handle);
  return handle;
}

Status Database::ExecutePrepared(const StatementHandle& handle,
                                 const std::vector<Value>& params) {
  auto result = ExecuteQueryPrepared(handle, params);
  if (!result.ok()) return result.status();
  return Status::OK();
}

Result<ResultSet> Database::ExecuteQueryPrepared(
    const StatementHandle& handle, const std::vector<Value>& params) {
  if (handle == nullptr) {
    return Status::InvalidArgument("null prepared statement handle");
  }
  if (static_cast<int>(params.size()) != handle->param_count) {
    return Status::InvalidArgument(
        "bound " + std::to_string(params.size()) + " parameters, statement has " +
        std::to_string(handle->param_count));
  }
  ++stats_.statements;
  const uint64_t deadline_ns = EffectiveDeadline(statement_timeout_us());
  SpinFor(statement_latency_us_, deadline_ns);
  return RunStatement(handle->stmt, &params, handle->sql,
                      &handle->plan_slot, deadline_ns);
}

Status Database::ExecuteBound(std::string_view sql,
                              const std::vector<Value>& params,
                              bool cacheable) {
  auto handle = Prepare(sql, cacheable);
  if (!handle.ok()) return handle.status();
  return ExecutePrepared(handle.value(), params);
}

Result<ResultSet> Database::ExecuteQueryBound(std::string_view sql,
                                              const std::vector<Value>& params,
                                              bool cacheable) {
  auto handle = Prepare(sql, cacheable);
  if (!handle.ok()) return handle.status();
  return ExecuteQueryPrepared(handle.value(), params);
}

Result<Table*> Database::CreateTableDirect(TableSchema schema, bool durable) {
  if (durable && read_only()) {
    return durability_.ReadOnlyError("CREATE TABLE");
  }
  if (FindTable(schema.name()) != nullptr) {
    return Status::AlreadyExists("table '" + schema.name() + "' already exists");
  }
  std::string key = schema.name();
  auto table = std::make_shared<Table>(std::move(schema),
                                       durable ? &txn_ : nullptr);
  table->set_durable(durable);
  table->set_interner(&interner_);
  table->set_epoch_manager(&epochs_);
  table->set_accountant(&mem_);
  table->set_stats(&stats_);
  Table* raw = table.get();
  Catalog next = catalog();
  next.emplace(std::move(key), std::move(table));
  PublishCatalog(std::move(next));
  return raw;
}

Status Database::InsertDirect(Table* table, Row row) {
  if (table->durable() && read_only()) {
    return durability_.ReadOnlyError("INSERT");
  }
  auto rowid = table->Insert(std::move(row));
  if (!rowid.ok()) return rowid.status();
  ++stats_.rows_inserted;
  return Status::OK();
}

Table* Database::FindTable(std::string_view name) {
  const Catalog& tables = catalog();
  auto it = tables.find(name);
  return it == tables.end() ? nullptr : it->second.get();
}

const Table* Database::FindTable(std::string_view name) const {
  const Catalog& tables = catalog();
  auto it = tables.find(name);
  return it == tables.end() ? nullptr : it->second.get();
}

std::vector<std::string> Database::TableNames() const {
  const Catalog& tables = catalog();
  std::vector<std::string> out;
  out.reserve(tables.size());
  for (const auto& [key, table] : tables) {
    out.push_back(table->schema().name());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Reader sessions

Result<std::unique_ptr<ReaderSession>> Database::OpenReaderSession() {
  const int slot = epochs_.AcquireSlot();
  if (slot < 0) {
    return Status::Unavailable(
        "all " + std::to_string(EpochManager::kMaxReaders) +
        " reader session slots are in use; retry after an open session "
        "closes (sessions release their slot on destruction)");
  }
  reader_sessions_gauge_->fetch_add(1, std::memory_order_relaxed);
  return std::unique_ptr<ReaderSession>(new ReaderSession(this, slot));
}

ReaderSession::~ReaderSession() {
  Unpin();
  db_->epochs_.ReleaseSlot(slot_);
  db_->reader_sessions_gauge_->fetch_sub(1, std::memory_order_relaxed);
}

uint64_t ReaderSession::PinSnapshot() {
  if (explicit_pin_) return pin_epoch_;
  pin_epoch_ = db_->epochs_.Pin(slot_);
  explicit_pin_ = true;
  if (db_->epochs_.readers_gauge != nullptr) {
    db_->epochs_.readers_gauge->fetch_add(1, std::memory_order_relaxed);
  }
  return pin_epoch_;
}

void ReaderSession::Unpin() {
  if (!explicit_pin_) return;
  db_->epochs_.Unpin(slot_);
  explicit_pin_ = false;
  pin_epoch_ = 0;
  if (db_->epochs_.readers_gauge != nullptr) {
    db_->epochs_.readers_gauge->fetch_sub(1, std::memory_order_relaxed);
  }
}

Result<ResultSet> ReaderSession::ExecuteQuery(std::string_view sql) {
  return Run(sql, nullptr);
}

Result<ResultSet> ReaderSession::ExecuteQueryBound(
    std::string_view sql, const std::vector<Value>& params) {
  return Run(sql, &params);
}

Result<ResultSet> ReaderSession::Run(std::string_view sql_text,
                                     const std::vector<Value>* params) {
  ++stats_.statements;
  // Parse, or reuse this session's cached parse of the same text.
  StatementHandle cached = plan_cache_.Find(sql_text);
  if (cached == nullptr) {
    ++stats_.sql_parses;
    XUPD_ASSIGN_OR_RETURN(cached, ParseStatement(sql_text));
    plan_cache_.Insert(cached);
  }

  // Only SELECT and plain EXPLAIN SELECT: everything else mutates, needs
  // the writer's transaction machinery, or reports writer-private state.
  const sql::Statement* target = &cached->stmt;
  bool explain = false;
  if (target->kind == sql::Statement::Kind::kExplain) {
    if (target->explain_analyze ||
        target->explain->kind != sql::Statement::Kind::kSelect) {
      return Status::InvalidArgument(
          "reader sessions accept only SELECT and EXPLAIN SELECT");
    }
    explain = true;
    target = target->explain.get();
  } else if (target->kind != sql::Statement::Kind::kSelect) {
    return Status::InvalidArgument(
        "reader sessions accept only SELECT and EXPLAIN SELECT");
  }
  const size_t bound = params != nullptr ? params->size() : 0;
  if (static_cast<int>(bound) != cached->param_count) {
    return Status::InvalidArgument(
        "bound " + std::to_string(bound) + " parameters, statement has " +
        std::to_string(cached->param_count));
  }

  // Pin before resolving any name: the pin keeps every catalog version and
  // table this statement reaches alive until it unpins (DDL retires them
  // through the epoch manager), and row visibility reads at it. A cached
  // plan validated against the catalog version holds tables that are
  // either still in the catalog or retired no earlier than this pin.
  struct StatementPin {
    ReaderSession* session;
    bool owned;  ///< false inside an explicit PinSnapshot.
    ~StatementPin() {
      if (owned) session->Unpin();
    }
  } statement_pin{this, !explicit_pin_};
  const uint64_t pin = PinSnapshot();
  PlanCacheSlot& slot = cached->plan_slot;
  std::shared_ptr<const PlannedStatement> plan;
  if (slot.plan != nullptr && slot.version == db_->catalog_version()) {
    ++stats_.plan_cache_hits;
    plan = slot.plan;
  }
  if (plan == nullptr) {
    // Read the version first: DDL bumps it after changing the catalog, so a
    // plan built over a newer catalog is at worst rebuilt once more.
    const uint64_t version = db_->catalog_version();
    Planner planner(db_, nullptr);
    planner.set_allow_index_probes(false);
    auto planned = planner.Plan(*target);
    if (!planned.ok()) return planned.status();
    ++stats_.plans_built;
    plan = std::move(planned).value();
    slot.plan = plan;
    slot.version = version;
  }
  if (explain) return PlanResult(PlanToString(*plan));

  std::vector<std::unique_ptr<ResultSet>> cte_store(
      static_cast<size_t>(plan->cte_slot_count));
  ExecContext::SubqueryMemo memo;
  ExecContext ctx;
  ctx.db = db_;
  ctx.stats = &stats_;
  ctx.read_epoch = pin;
  ctx.params = params;
  ctx.cte_values = &cte_store;
  ctx.subquery_memo = &memo;
  // Governance for readers: the statement timeout (read atomically — the
  // writer thread owns the setting) and the shared cancel token. The
  // cancel-at-pull hook and engine-op deadline are writer-thread state and
  // are NOT consulted here.
  const int64_t timeout_us = db_->statement_timeout_us();
  ctx.deadline_ns =
      timeout_us > 0
          ? MonotonicNanos() + static_cast<uint64_t>(timeout_us) * 1000
          : 0;
  ctx.cancel = db_->cancel_token_.flag();
  ctx.mem = &db_->mem_;
  return ExecutePlannedSelect(*plan->select, ctx);
}

std::string ResultSet::ToString(size_t max_rows) const {
  std::string out = Join(columns, " | ") + "\n";
  size_t shown = 0;
  for (const Row& row : rows) {
    if (shown++ >= max_rows) {
      out += "... (" + std::to_string(rows.size()) + " rows)\n";
      break;
    }
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += " | ";
      out += row[i].ToString();
    }
    out += "\n";
  }
  return out;
}

}  // namespace xupd::rdb
