// Database: catalog of tables + AFTER DELETE triggers, and the SQL entry
// points. Every Execute/ExecuteQuery call parses its SQL text — statement
// issue overhead is part of the cost model the paper studies (§6: "issuing
// multiple separate SQL statements incurs overhead"). Prepare/ExecutePrepared
// model the JDBC PreparedStatement path: the text is parsed once, kept in an
// LRU cache keyed by SQL text, and later executions only bind parameter
// values (they still pay the simulated round-trip latency, but not the
// parse). Begin/Commit/Rollback expose the transaction subsystem (rdb/txn.h)
// that gives multi-statement XML update operations the all-or-nothing
// semantics the paper inherits from the relational engine (§6).
#ifndef XUPD_RDB_DATABASE_H_
#define XUPD_RDB_DATABASE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/str_util.h"
#include "rdb/durability.h"
#include "rdb/epoch.h"
#include "rdb/governance.h"
#include "rdb/planner.h"
#include "rdb/result.h"
#include "rdb/sql_ast.h"
#include "rdb/stats.h"
#include "rdb/table.h"
#include "rdb/txn.h"

namespace xupd::rdb {

/// Renders "INSERT INTO <table> VALUES (?, ...), (?, ...), ..." with `rows`
/// placeholder rows of `columns` placeholders each. Parameter values are
/// bound row-major. Constant for a fixed (table, columns, rows) shape, so
/// batched loads of the same batch size hit the prepared cache.
std::string MultiRowInsertSql(std::string_view table, size_t columns,
                              size_t rows);

class ReaderSession;

// ---------------------------------------------------------------------------
// Threading model
//
// The engine is single-writer / multi-reader:
//
//  * Exactly ONE thread (the "writer thread") may call any mutating or
//    transactional API — Execute*, Prepare, Begin/Commit/Rollback, the
//    direct catalog/bulk APIs, Checkpoint, TryHeal, and the knob setters.
//    Writer-side SELECTs also belong to the writer thread; they see the
//    latest in-memory state including uncommitted changes, exactly as
//    before.
//
//  * Any number of threads may each own a ReaderSession (OpenReaderSession,
//    up to EpochManager::kMaxReaders concurrently). A session executes
//    SELECT / EXPLAIN SELECT statements against an epoch snapshot: the
//    writer publishes a new epoch at every outermost commit boundary (each
//    top-level statement outside a transaction, or the outermost
//    COMMIT/ROLLBACK), a session pins the current epoch for the duration of
//    one statement (or explicitly via PinSnapshot/Unpin for a
//    multi-statement snapshot), and sees exactly the rows whose
//    [begin, end) epoch interval contains the pin — never an uncommitted or
//    torn row. Storage the writer supersedes (slab growth, pre-update row
//    images, cleared scratch slabs) is retired to the epoch manager and
//    freed only once no reader pins an epoch that could reach it, so reader
//    scans never take a lock on the data path.
//
//  * Tombstoned row slots are reused. Each boundary also computes the
//    reuse horizon: the smallest pinned epoch, or the published epoch when
//    nothing is pinned (a pin count spares the slot scan then). An insert
//    may overwrite a dead slot whose end epoch is at or below it — every
//    current and future pin already sees it as dead, and a session never
//    reads the cells of a slot it cannot see — and the new row is born at
//    the write epoch, invisible to every current pin. A delete is never
//    reused before its boundary publishes it, so undo finds its cells in
//    place. The background checkpointer is the one reader of dead slots:
//    while its capture is open, a reused durable slot parks its dead image
//    in the version buffer, where SnapshotReadRow finds it. Its pin also
//    holds the horizon at the capture epoch until the serializer has read
//    the slots, so which row ids the inserts of that stretch take depends
//    on the checkpoint thread's timing; WAL replay still lands every row at
//    the id the writer gave it.
//
//  * DDL is NOT snapshot-isolated, and it never waits for readers. The
//    writer publishes the table catalog through one atomic pointer: CREATE
//    and DROP of a table publish a new catalog version and retire the old
//    one (with any table only it still holds) to the epoch manager. A
//    statement pins its epoch before it resolves a name, so an in-flight
//    statement finishes on the tables it pinned, and the reader's NEXT
//    statement sees the new catalog (e.g. "table not found" after a drop).
//    Index and trigger DDL needs no reader sync at all: reader sessions
//    plan with index probes disabled — hash indexes are writer-private, so
//    snapshot reads always scan — and never read triggers.
//
//  * Two background threads may exist, both owned by the durability
//    component (rdb/durability.h, which also states the per-SyncMode loss
//    bounds). The WAL writer owns the group-commit flusher (kBatched): its
//    Open starts it and its Close joins it. At most one off-thread
//    checkpoint (CheckpointBackground) serializes a pinned epoch while the
//    writer keeps committing. ~Database joins both.
//
//  * Read-only mode engages from any thread: once the writer or the flusher
//    fail-stops the WAL, read_only() is true everywhere and the next write
//    to durable state is rejected with kUnavailable.
// ---------------------------------------------------------------------------

class Database {
 public:
  Database();
  /// Flushes and closes the WAL when durability is open (pending records of
  /// an open transaction are discarded — only committed units persist).
  ~Database();
  /// The TransactionManager and every undo record hold pointers into this
  /// object (stats, tables), so it is pinned in place.
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // --- durability and graceful degradation -------------------------------
  //
  // Each call forwards to the durability component; rdb/durability.h
  // documents the WAL, recovery, checkpoints, loss bounds, the read-only
  // contract and TryHeal.

  Status Open(const std::string& dir, const DurabilityOptions& options = {}) {
    return durability_.Open(dir, options);
  }
  bool recovered() const { return durability_.recovered(); }
  bool durability_open() const { return durability_.open(); }
  Status Checkpoint() { return durability_.Checkpoint(); }
  Status CheckpointBackground() { return durability_.CheckpointBackground(); }
  Status CheckpointWait() { return durability_.CheckpointWait(); }
  bool checkpoint_running() const { return durability_.checkpoint_running(); }
  using Health = Durability::Health;
  Health health() const { return durability_.health(); }
  bool read_only() const { return durability_.read_only(); }
  Status TryHeal(int max_attempts = 5) {
    return durability_.TryHeal(max_attempts);
  }
  static constexpr int kMaxHealBackoffMs = Durability::kMaxHealBackoffMs;

  /// Opens a concurrent read-only session (see the threading model above).
  /// Fails with kUnavailable when all EpochManager::kMaxReaders reader
  /// slots are taken — admission control, not a fault: the message carries a
  /// retry-after hint and the caller should close a session or retry after
  /// the suggested backoff. The session must not outlive the Database.
  Result<std::unique_ptr<ReaderSession>> OpenReaderSession();

  /// The epoch-based MVCC core (tests / benches: inspect the published
  /// epoch, pinned readers, and deferred-reclamation queue).
  EpochManager& epochs() { return epochs_; }

  /// Flushes pending redo as one committed unit when no transaction is
  /// open. The statement entry points call it at every top-level boundary
  /// (autocommit statements and their trigger cascades persist as one unit
  /// each); call it directly after direct bulk-API writes, which cross no
  /// statement boundary of their own. No-op when durability is off or a
  /// transaction is open.
  Status WalFlush();

  /// Online integrity scrub (SQL: CHECK INTEGRITY). Walks every table
  /// checking slab liveness against hash-index entries in both directions,
  /// that every tombstoned slot is in the reuse queue with no index entry,
  /// id columns against the next-id counter, that the undo log is empty
  /// outside transactions, and re-walks the WAL and snapshot files' CRCs.
  /// Returns human-readable violations; empty means the database is clean.
  std::vector<std::string> VerifyIntegrity();

  // --- resource governance (rdb/governance.h) ------------------------------
  //
  // Contract: a statement that exceeds its deadline, is cancelled, or pushes
  // memory past the hard budget fails with kDeadlineExceeded / kCancelled /
  // kResourceExhausted respectively, and ALL of its partial effects —
  // element-table rows, hash-index entries, version buffers, WAL pending
  // redo — are rolled back through the ordinary transaction machinery (the
  // engine wraps every multi-statement op in RunInTxn; a lone autocommit
  // statement unwinds via its own statement scope). The checks are
  // cooperative: every Volcano operator pull ticks an amortized governance
  // poll (ExecContext::TickGovernance, every 64th pull), and every statement
  // entry point polls once up front, so a runaway scan is cut within 64
  // pulls of the deadline and nothing is killed mid-mutation without undo.
  //
  //  * Deadlines: set_statement_timeout_us() arms a per-statement deadline
  //    for every later statement (SQL: SET STATEMENT_TIMEOUT <us>; 0
  //    clears); the Execute/ExecuteQuery overloads taking `timeout_us` arm a
  //    one-call deadline that overrides the global one. The simulated
  //    statement latency (SpinFor) is deadline-aware: an expired deadline
  //    cuts the spin short and fails the statement before it runs.
  //  * Cancellation: cancel_token() is shared with any thread; Cancel()
  //    makes the writer's (and every reader session's) next governance poll
  //    fail with kCancelled. The token stays cancelled until Reset() — it is
  //    a connection-level kill switch, not a one-shot.
  //  * Memory budgets: memory_accountant() meters table slabs, version
  //    buffers, the string interner, the undo log, WAL pending redo, and
  //    query scratch under mem.* gauges. A soft budget sheds NEW statements
  //    (kResourceExhausted before any work; COMMIT/ROLLBACK/RELEASE, SHOW,
  //    CHECK INTEGRITY and SET stay admitted so callers can always release
  //    resources and diagnose); a hard budget (and the WAL pending-buffer
  //    watermark) kills the RUNNING statement at its next poll, rolling the
  //    unit back.
  //  * Watchdogs: health() reports the group-commit flusher or background
  //    checkpointer stalled (see rdb/durability.h).

  /// Global per-statement timeout in microseconds; 0 (default) disables.
  /// Readable from reader sessions, hence atomic.
  void set_statement_timeout_us(int64_t us) {
    statement_timeout_us_.store(us < 0 ? 0 : us, std::memory_order_relaxed);
  }
  int64_t statement_timeout_us() const {
    return statement_timeout_us_.load(std::memory_order_relaxed);
  }

  /// Cross-thread cancellation switch (see the contract above).
  CancelToken& cancel_token() { return cancel_token_; }

  /// The per-Database memory accountant: budgets, watermark, mem.* gauges.
  MemoryAccountant& memory_accountant() { return mem_; }
  const MemoryAccountant& memory_accountant() const { return mem_; }

  /// Watchdog staleness threshold: a background thread is stalled after
  /// this many progress-free windows. Must be >= 1.
  void set_watchdog_stall_windows(int windows) {
    durability_.set_stall_windows(windows);
  }
  int watchdog_stall_windows() const { return durability_.stall_windows(); }
  /// The background checkpointer's watchdog window (it has no natural
  /// period like the flusher's group-commit window). Default 1s.
  void set_checkpoint_watchdog_window_us(int64_t us) {
    durability_.set_checkpoint_window_us(us);
  }
  int64_t checkpoint_watchdog_window_us() const {
    return durability_.checkpoint_window_us();
  }

  /// Engine-op deadline (engine/store.cc): arms an absolute MonotonicNanos
  /// deadline that bounds every statement of the current multi-statement
  /// operation (merged with per-statement deadlines; the earlier wins).
  /// 0 disarms. Writer thread only.
  void ArmOperationDeadline(uint64_t deadline_ns) {
    operation_deadline_ns_ = deadline_ns;
  }
  uint64_t operation_deadline_ns() const { return operation_deadline_ns_; }

  /// Test hook: fails the k-th operator pull (1-based) of subsequent
  /// execution with kCancelled — the cancellation-injection matrix drives
  /// it through every pull index. The counter keeps counting down below
  /// zero, so `k - remaining` doubles as a pull counter; arm with a huge k
  /// to count pulls without injecting. Disarm before verification queries.
  void ArmCancelAtPull(int64_t k) {
    cancel_at_pull_.store(k, std::memory_order_relaxed);
    cancel_at_pull_armed_ = true;
  }
  void DisarmCancelAtPull() { cancel_at_pull_armed_ = false; }
  int64_t cancel_at_pull_remaining() const {
    return cancel_at_pull_.load(std::memory_order_relaxed);
  }

  /// Parses and executes a DDL/DML statement.
  Status Execute(std::string_view sql);
  /// Per-call deadline overload: `timeout_us` (microseconds from now)
  /// overrides the global statement timeout for this one call; <= 0 means
  /// no deadline.
  Status Execute(std::string_view sql, int64_t timeout_us);

  /// Parses and executes a SELECT, returning its rows.
  Result<ResultSet> ExecuteQuery(std::string_view sql);
  Result<ResultSet> ExecuteQuery(std::string_view sql, int64_t timeout_us);

  /// Parses `sql` into a reusable handle, or returns the cached handle when
  /// the same text was prepared before (LRU, invalidated by DDL). DDL
  /// statements parse but are never cached. `cacheable = false` still probes
  /// the cache but never inserts on a miss — for one-shot texts (e.g. with
  /// inlined id lists) that would only evict reusable plans.
  Result<StatementHandle> Prepare(std::string_view sql, bool cacheable = true);

  /// Executes a prepared statement, binding `params` to its ? placeholders
  /// positionally. Pays the per-statement latency but skips the parse.
  Status ExecutePrepared(const StatementHandle& handle,
                         const std::vector<Value>& params = {});
  Result<ResultSet> ExecuteQueryPrepared(const StatementHandle& handle,
                                         const std::vector<Value>& params = {});

  /// Convenience: Prepare (served from the cache after the first call) then
  /// ExecutePrepared.
  Status ExecuteBound(std::string_view sql, const std::vector<Value>& params,
                      bool cacheable = true);
  Result<ResultSet> ExecuteQueryBound(std::string_view sql,
                                      const std::vector<Value>& params,
                                      bool cacheable = true);

  // --- transactions --------------------------------------------------------
  //
  // Begin/Commit/Rollback control an in-memory logical undo log (rdb/txn.h).
  // Nested Begin opens a savepoint scope: an inner Rollback undoes only that
  // scope's writes, an inner Commit merges them into the enclosing scope.
  // Rollback restores row liveness (tombstones), hash-index entries, updated
  // column values, and the next-id counter to their state at the matching
  // Begin. Trigger-issued writes log into the enclosing transaction like any
  // other write. These calls run inside the engine (no simulated statement
  // latency); the SQL statements BEGIN/COMMIT/ROLLBACK map onto them and pay
  // the usual per-statement cost.
  //
  // DDL-in-transaction policy: SQL DDL (CREATE/DROP of tables, indexes and
  // triggers) inside an active transaction is REJECTED with InvalidArgument
  // — catalog changes are not undoable, and silently auto-committing would
  // break the atomicity the engine layers rely on. CreateTableDirect is
  // exempt: the engine creates its scratch tables (id-list staging, §6.2.2
  // table-insert staging) through it lazily, inside update transactions,
  // and a rollback leaves the new table in place. Scratch tables are
  // cleared after use, never dropped.

  /// Opens a transaction scope (a savepoint when one is already active).
  Status Begin();
  /// Commits the innermost scope; the outermost commit discards the log.
  Status Commit();
  /// Rolls back the innermost scope's writes in reverse order.
  Status Rollback();
  /// Opens a NAMED savepoint scope (SQL: SAVEPOINT name). Requires an
  /// active transaction — savepoints mark positions inside one.
  Status Savepoint(const std::string& name);
  /// Undoes every write since the innermost savepoint named `name` and
  /// keeps the savepoint open (SQL: ROLLBACK TO [SAVEPOINT] name).
  Status RollbackTo(const std::string& name);
  /// Merges the named savepoint (and scopes nested inside it) into its
  /// parent scope (SQL: RELEASE [SAVEPOINT] name).
  Status Release(const std::string& name);
  bool in_transaction() const { return txn_.active(); }
  size_t transaction_depth() const { return txn_.depth(); }
  /// Undo records currently held for open scopes (tests/benches).
  size_t undo_log_size() const { return txn_.undo_size(); }

  /// Failure injection (tests/benches): after `statements` further statement
  /// executions — counting trigger-body and nested statements — the next one
  /// fails with an Internal error, and the hook disarms. Negative cancels.
  void InjectFailureAfterStatements(int64_t statements) {
    fail_after_statements_ = statements;
  }

  /// Prepared-statement cache introspection (tests/benches).
  size_t prepared_cache_size() const { return statement_cache_.size(); }
  size_t prepared_cache_capacity() const {
    return statement_cache_.capacity();
  }
  void set_prepared_cache_capacity(size_t capacity) {
    statement_cache_.set_capacity(capacity);
  }

  /// Global catalog snapshot version guarding cached plans, bumped by every
  /// SQL DDL statement (including CREATE INDEX / DROP INDEX — plans capture
  /// index choices) and by TryHeal's catalog rebuild. A cached plan built
  /// under an older version is rebuilt before use. CreateTableDirect does
  /// not bump it: adding a table cannot stale a plan, and tables leave the
  /// catalog only through SQL DROP TABLE or TryHeal.
  uint64_t catalog_version() const {
    return catalog_version_.load(std::memory_order_acquire);
  }

  /// Planner knob (tests): when false, every plan uses full scans — the
  /// parity harness compares probed vs scanned execution. Toggling
  /// invalidates cached plans.
  bool planner_index_probes_enabled() const {
    return planner_index_probes_enabled_;
  }
  void set_planner_index_probes_enabled(bool enabled) {
    if (planner_index_probes_enabled_ != enabled) BumpCatalogVersion();
    planner_index_probes_enabled_ = enabled;
  }

  /// Direct bulk-load API (bypasses SQL): used by the shredder to load
  /// documents quickly; benchmark updates always go through Execute().
  /// `durable = true` wires the table into the undo log, WAL logging and
  /// snapshots (SQL CREATE TABLE and the snapshot loader). `durable = false`
  /// makes an engine scratch table: writes to it are never undone, logged,
  /// or checkpointed, and a restart or TryHeal forgets it.
  Result<Table*> CreateTableDirect(TableSchema schema, bool durable);
  Status InsertDirect(Table* table, Row row);

  Table* FindTable(std::string_view name);
  const Table* FindTable(std::string_view name) const;
  std::vector<std::string> TableNames() const;

  Stats& stats() { return stats_; }
  const Stats& stats() const { return stats_; }

  // --- observability (common/metrics.h) ------------------------------------
  //
  // Always-on latency attribution next to the Stats event counts, cheapest
  // surface first. All of it is plain pre-resolved atomics on the hot path;
  // the cached-prepared CI budget holds with it on.
  //
  //  * Histograms + counters: per-kind statement histograms (stmt.select /
  //    .insert / .delete / .update / .ddl / .txn / .explain / .other, in
  //    ns); wal.commit_unit, wal.fsync, wal.batch_commits (group-commit
  //    batch size) and wal.window_occupancy_pct from the WAL writer;
  //    db.checkpoint, snapshot.write, db.recovery, db.scrub and db.txn; and
  //    engine.<op> spans from engine/store.cc. SQL `SHOW METRICS` returns
  //    all of it — stats.* fields, registry counters (db.exec_ns,
  //    db.trigger_ns, engine.asr_ns) and <hist>.count/.p50_ns/.p95_ns/
  //    .p99_ns/.max_ns/.sum_ns rows — and `SHOW HEALTH` wraps health().
  //
  //  * EXPLAIN ANALYZE <stmt>: executes the statement and returns the plan
  //    annotated with per-operator actual rows / loops / time_us plus a
  //    final "Execution: rows=N time_us=T" summary. Trigger cascades run but
  //    are reported in db.trigger_ns, not in plan operators.
  //
  //  * Slow-statement log: set_slow_statement_threshold_us(t) captures every
  //    top-level statement at or above t microseconds — SQL text, Stats
  //    delta (including its cascade), and plan when one was built — into a
  //    bounded ring readable via slow_statements() or SQL `SHOW SLOW`.
  //    Threshold < 0 (default) disables capture entirely.
  //
  //  * Events and causal traces: events() is a fixed-size ring of TraceEvent
  //    spans (statement / txn / WAL unit / fsync / checkpoint / recovery /
  //    scrub / engine op), each stamped with (tid, seq, trace_id, span_id,
  //    parent_span_id) from the recording thread's trace::Context. Spans
  //    nest through thread-local context; the two cross-thread edges —
  //    commit unit -> flusher fsync, checkpoint schedule -> background
  //    snapshot write — travel as trace::Handoff tokens. `SHOW EVENTS` /
  //    DumpJson() export the ring; DumpChromeTrace() (SQL `SHOW TRACE`)
  //    renders it as Chrome/Perfetto JSON with named thread tracks
  //    ("wal-flusher", "checkpoint") and flow arrows for every handoff.
  //
  //  * Concurrency telemetry: epoch.published and epoch.lag (published −
  //    min pinned) gauges, mvcc.version_rows / mvcc.version_bytes gauges,
  //    mvcc.version_gc_rows and mvcc.slab_reclaims counters (epoch GC
  //    firing), and readers.sessions. Per-table/per-index access stats
  //    surface via SQL `SHOW TABLE STATS`.

  /// Mutable even on const Database: observability is not logical state
  /// (read-only paths like snapshot writing record their own timings).
  MetricsRegistry& metrics() const { return metrics_; }
  EventLog& events() const { return events_; }

  /// One captured slow statement (see the observability comment). A
  /// governance-killed statement (deadline / cancel / budget) is captured
  /// regardless of the threshold, with `cause` naming why and `delta`
  /// holding the partial work it did before the kill (rolled back).
  struct SlowStatement {
    std::string sql;           ///< original text ("" for unseen text).
    uint64_t duration_ns = 0;  ///< wall time including trigger cascade.
    Stats delta;               ///< stats delta over the statement.
    std::string plan;          ///< rendered plan ("" when none was built).
    std::string cause;  ///< "deadline_exceeded" / "cancelled" /
                        ///< "resource_exhausted"; "" for plain slow capture.
  };
  /// Capture threshold in microseconds; negative (default) disables the
  /// slow log and its per-statement stats snapshot.
  void set_slow_statement_threshold_us(double us) {
    slow_statement_threshold_us_ = us;
  }
  double slow_statement_threshold_us() const {
    return slow_statement_threshold_us_;
  }
  /// Captured entries, oldest first (bounded; oldest evicted).
  const std::vector<SlowStatement>& slow_statements() const {
    return slow_log_;
  }
  void clear_slow_statements() { slow_log_.clear(); }

  /// The per-Database string arena: long string values stored into any
  /// catalog table are deduplicated against it (rdb/value.h). Exposed for
  /// tests and memory introspection.
  StringInterner& interner() { return interner_; }

  /// Simulated per-statement issue latency (microseconds), applied to every
  /// Execute/ExecuteQuery/ExecutePrepared call — models the client/server
  /// round trip a 2001-era JDBC/DB2 stack pays per statement (trigger
  /// bodies run inside the engine and do NOT pay it; prepared statements
  /// pay the round trip but skip the parse). Default 0 (off). The paper
  /// bench's Table 2 run also sets 500 us: the paper measured through such
  /// a stack, where statement count rather than in-engine work ranks the
  /// methods, and an in-process engine alone would not show that regime.
  double statement_latency_us() const { return statement_latency_us_; }
  void set_statement_latency_us(double us) { statement_latency_us_ = us; }

  /// A next-id counter for the mapping layer (the paper's "systemwide next
  /// available id", §6.2.2).
  int64_t next_id() const { return next_id_; }
  void set_next_id(int64_t v) { next_id_ = v; }
  int64_t AllocateId() { return next_id_++; }
  /// Advances next_id by `count` and returns the first id of the block.
  int64_t AllocateIdBlock(int64_t count) {
    int64_t first = next_id_;
    next_id_ += count;
    return first;
  }

  struct TriggerDef {
    std::string name;
    std::string table;
    sql::TriggerGranularity granularity = sql::TriggerGranularity::kRow;
    std::vector<std::shared_ptr<sql::Statement>> body;
    /// Original CREATE TRIGGER text — how snapshots persist the trigger.
    std::string sql;
  };
  const std::vector<TriggerDef>& triggers() const { return triggers_; }

 private:
  friend class Durability;
  friend class Executor;
  friend class ReaderSession;

  /// One catalog version: tables keyed by their original name, compared
  /// case-insensitively (the transparent comparator keeps FindTable
  /// allocation-free on the hot path). Immutable once published. Versions
  /// share their tables, so a dropped table dies with the last version
  /// that still holds it.
  using Catalog =
      std::map<std::string, std::shared_ptr<Table>, AsciiCaseInsensitiveLess>;
  /// The current catalog version. Writer and reader statements resolve
  /// names against it; a reader must be pinned while it holds the result.
  const Catalog& catalog() const {
    return *catalog_.load(std::memory_order_acquire);
  }
  /// Publishes `next` as the catalog (writer thread) and retires the
  /// version it replaces to the epoch manager, which frees it — and any
  /// table only it still holds — once no statement pinned before the swap
  /// is still running.
  void PublishCatalog(Catalog next);
  /// Empties the catalog, triggers, cached plans and next-id — the state a
  /// failed Open or a heal starts recovery from.
  void ResetCatalog();

  /// CREATE/DROP of any catalog object drops every cached parse (outstanding
  /// handles survive; re-Prepare of the same text is a miss) and bumps the
  /// catalog version, invalidating every cached plan.
  void InvalidateStatementCache();
  /// Invalidates cached plans only (catalog shape changed without SQL DDL,
  /// or the planner knob flipped). Clears the trigger-body plan map so its
  /// statement-pointer keys can never dangle across a version change.
  void BumpCatalogVersion();
  static bool IsDdl(const sql::Statement& stmt);

  /// Plan slot for a trigger-body statement (keyed by the shared Statement's
  /// identity; trigger bodies are stable shared_ptrs held by triggers_).
  PlanCacheSlot* TriggerPlanSlot(const sql::Statement* stmt) {
    return &trigger_plans_[stmt];
  }

  /// Returns the injected error when the failpoint counter runs out.
  Status ConsumeFailpoint();
  /// The DDL-in-transaction barrier (see the policy comment above).
  Status CheckDdlBarrier(const sql::Statement& stmt) const;
  /// The read-only gate: rejects DML/DDL against durable state with
  /// kUnavailable while degraded (SELECT, EXPLAIN, transaction control, and
  /// writes to ephemeral scratch tables pass).
  Status CheckWritable(const sql::Statement& stmt) const;
  /// Shared tail of every statement entry point: runs the statement, then
  /// flushes the WAL at the top-level boundary (even on statement failure —
  /// without a transaction the partial effects stay in memory too). A
  /// statement error outranks a flush error; a flush error surfaces on an
  /// otherwise successful statement.
  Result<ResultSet> RunStatement(const sql::Statement& stmt,
                                 const std::vector<Value>* params,
                                 std::string_view sql_text,
                                 PlanCacheSlot* slot,
                                 uint64_t deadline_ns = 0);

  /// Absolute deadline for a statement entry point: `timeout_us` from now
  /// (0 = none) merged with any armed operation deadline (earlier wins).
  uint64_t EffectiveDeadline(int64_t timeout_us) const;
  /// Statement kinds that bypass admission/governance gates: resource
  /// RELEASING or diagnostic statements that must run even degraded
  /// (COMMIT/ROLLBACK/RELEASE, SHOW, CHECK INTEGRITY, SET).
  static bool GovernanceExempt(sql::Statement::Kind kind);
  /// The statement-entry governance gate: cancel flag, expired deadline,
  /// hard budget / WAL watermark, then soft-budget admission.
  Status GovernanceAdmission(uint64_t deadline_ns) const;

  /// Publishes a new epoch at an outermost commit boundary, then reclaims
  /// retired storage / version-buffer images no pinned reader can reach.
  /// The no-garbage fast path is one atomic increment.
  void AdvanceEpochBoundary();

  /// Resolves the statement-kind histograms and hot counters once (ctor).
  void InitMetrics();
  /// Histogram slot for a statement kind (see kStmtHistNames).
  static size_t StmtKindSlot(sql::Statement::Kind kind);
  /// Charges a finished trigger cascade's wall time (Executor calls this at
  /// cascade root; engine spans read the counter to decompose op cost).
  void AddTriggerNs(uint64_t ns) { *trigger_ns_ += ns; }

  /// Memory accountant every charge site (tables, interner, undo log, WAL
  /// pending, query scratch) reports into. Declared FIRST so it outlives
  /// every charging member — their destructors release their charges.
  MemoryAccountant mem_;
  /// String arena every table dedups long values against. Safe in any
  /// destruction order relative to the tables: interned Values carry their
  /// own references, so blocks outlive whichever of table or arena dies
  /// first.
  StringInterner interner_;
  /// Epoch-based MVCC core: retires superseded slab buffers and catalog
  /// versions, and frees what is still queued in its destructor.
  EpochManager epochs_;
  /// The current catalog version (see PublishCatalog). The writer owns it
  /// and frees it in ~Database; superseded versions go to epochs_.
  std::atomic<const Catalog*> catalog_{new Catalog()};
  std::vector<TriggerDef> triggers_;
  Stats stats_;
  TransactionManager txn_{&stats_};
  /// Observability state (see metrics()). Mutable: const read paths record
  /// timings too.
  mutable MetricsRegistry metrics_;
  mutable EventLog events_{1024};
  /// Per-statement-kind histograms, resolved once in InitMetrics.
  static constexpr size_t kStmtKindSlots = 8;
  Histogram* stmt_hists_[kStmtKindSlots] = {};
  /// Cumulative ns spent executing statements / trigger cascades (registry
  /// counters db.exec_ns / db.trigger_ns; engine spans diff them).
  std::atomic<uint64_t>* exec_ns_ = nullptr;
  std::atomic<uint64_t>* trigger_ns_ = nullptr;
  /// Concurrency-telemetry hooks, resolved once in InitMetrics (epoch/GC
  /// gauges live on epochs_; these cover the Database-owned surfaces).
  std::atomic<int64_t>* epoch_published_gauge_ = nullptr;
  std::atomic<int64_t>* version_rows_gauge_ = nullptr;
  std::atomic<int64_t>* version_bytes_gauge_ = nullptr;
  std::atomic<uint64_t>* version_gc_rows_ = nullptr;
  std::atomic<int64_t>* reader_sessions_gauge_ = nullptr;
  /// Governance counters, resolved once in InitMetrics (SHOW METRICS rows
  /// stmt.cancelled / stmt.deadline_exceeded / stmt.resource_exhausted /
  /// stmt.shed).
  std::atomic<uint64_t>* stmt_cancelled_ = nullptr;
  std::atomic<uint64_t>* stmt_deadline_exceeded_ = nullptr;
  std::atomic<uint64_t>* stmt_resource_exhausted_ = nullptr;
  std::atomic<uint64_t>* stmt_shed_ = nullptr;
  double slow_statement_threshold_us_ = -1;
  size_t slow_log_capacity_ = 32;
  std::vector<SlowStatement> slow_log_;
  /// Start of the outermost open transaction (db.txn span).
  uint64_t txn_start_ns_ = 0;
  int64_t next_id_ = 1;
  double statement_latency_us_ = 0;
  /// Failpoint countdown; negative = disarmed.
  int64_t fail_after_statements_ = -1;

  /// The prepared-statement cache (see Prepare).
  StatementCache statement_cache_;

  /// Plan-cache guard (see catalog_version()). Starts at 1 so a
  /// default-constructed PlanCacheSlot (version 0) never validates. Atomic:
  /// reader sessions validate cached plans against it. A DDL statement
  /// bumps it before its boundary publishes the next epoch, so a reader
  /// that still validates a plan over a dropped table is pinned early
  /// enough to keep that table alive.
  std::atomic<uint64_t> catalog_version_{1};
  bool planner_index_probes_enabled_ = true;
  /// Cached plans for trigger-body statements. Entries are version-guarded
  /// like handle slots and the map is cleared on every version bump.
  std::map<const sql::Statement*, PlanCacheSlot> trigger_plans_;

  // --- resource governance -------------------------------------------------
  /// Connection-level kill switch (see cancel_token()).
  CancelToken cancel_token_;
  /// Global statement timeout (µs); atomic — reader sessions read it.
  std::atomic<int64_t> statement_timeout_us_{0};
  /// Absolute deadline of the engine op in flight (0 = none); writer only.
  uint64_t operation_deadline_ns_ = 0;
  /// Cancellation-injection hook (see ArmCancelAtPull).
  std::atomic<int64_t> cancel_at_pull_{0};
  bool cancel_at_pull_armed_ = false;

  /// The durability component (WAL, recovery, checkpoints, heal,
  /// watchdogs). Declared after everything it reports into; ~Database
  /// closes it before the tables go.
  Durability durability_{this};
};

/// A concurrent read-only SQL session over epoch snapshots (see the
/// threading model in this header). Obtained from
/// Database::OpenReaderSession; owned by exactly one thread; must not
/// outlive the Database.
///
/// Each ExecuteQuery* call pins the current epoch for the duration of that
/// statement, unless PinSnapshot() opened an explicit multi-statement
/// snapshot (then every statement reads the same pinned epoch until
/// Unpin()). Only SELECT and EXPLAIN SELECT are accepted. The session keeps
/// its own Stats (rows_scanned etc.) and plan cache — nothing here touches
/// the writer's counters.
class ReaderSession {
 public:
  ~ReaderSession();
  ReaderSession(const ReaderSession&) = delete;
  ReaderSession& operator=(const ReaderSession&) = delete;

  Result<ResultSet> ExecuteQuery(std::string_view sql);
  Result<ResultSet> ExecuteQueryBound(std::string_view sql,
                                      const std::vector<Value>& params);

  /// Pins the current epoch until Unpin(): every subsequent statement reads
  /// this one snapshot, and the writer retains superseded row versions the
  /// snapshot can still reach. Returns the pinned epoch. No-op (returning
  /// the existing pin) when already pinned.
  uint64_t PinSnapshot();
  void Unpin();
  bool pinned() const { return explicit_pin_; }

  /// This session's private event counters (rows_scanned, plans_built, ...).
  const Stats& stats() const { return stats_; }

 private:
  friend class Database;
  ReaderSession(Database* db, int slot) : db_(db), slot_(slot) {}

  Result<ResultSet> Run(std::string_view sql, const std::vector<Value>* params);

  Database* db_;
  int slot_;
  Stats stats_;
  uint64_t pin_epoch_ = 0;  ///< valid while explicit_pin_.
  bool explicit_pin_ = false;
  /// Parsed statements with their plans, validated against the catalog
  /// version like the writer's handles; bounded like the writer's cache.
  StatementCache plan_cache_;
};

}  // namespace xupd::rdb

#endif  // XUPD_RDB_DATABASE_H_
