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
#include <condition_variable>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/str_util.h"
#include "rdb/epoch.h"
#include "rdb/governance.h"
#include "rdb/planner.h"
#include "rdb/result.h"
#include "rdb/sql_ast.h"
#include "rdb/stats.h"
#include "rdb/table.h"
#include "rdb/txn.h"
#include "rdb/vfs.h"
#include "rdb/wal.h"

namespace xupd::rdb {

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

/// Renders "INSERT INTO <table> VALUES (?, ...), (?, ...), ..." with `rows`
/// placeholder rows of `columns` placeholders each. Parameter values are
/// bound row-major. Constant for a fixed (table, columns, rows) shape, so
/// batched loads of the same batch size hit the prepared cache.
std::string MultiRowInsertSql(std::string_view table, size_t columns,
                              size_t rows);

class ReaderSession;
struct CheckpointCapture;

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
//  * Two background threads may exist: the group-commit flusher (kBatched
//    durability; fsyncs the WAL every group_commit_window_us) and at most
//    one off-thread checkpoint (CheckpointBackground; serializes a pinned
//    epoch while the writer keeps committing — a blocking Checkpoint runs
//    the same serializer on the writer thread instead). Both are managed
//    internally and joined by ~Database.
//
// Durability loss bounds per SyncMode, as observed after a crash (what
// ReplayWal recovers):
//
//  * kCommit  — an acknowledged commit is never lost (fsync before ack).
//  * kBatched — at most the acknowledged units of ONE group-commit window
//    (group_commit_window_us, default 2ms) are lost; a crash never yields a
//    torn or reordered unit, only a clean prefix of acknowledged commits.
//  * kNone    — acknowledged units survive process crashes (the OS page
//    cache holds appended records) but an OS/power crash may lose anything
//    since the last checkpoint or explicit Sync.
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

  // --- durability (rdb/wal.h, rdb/snapshot.h) ------------------------------
  //
  // Open(dir) turns the database durable: if `dir` holds a snapshot and/or
  // WAL from an earlier run, the snapshot is loaded and the WAL's committed
  // prefix replayed (a torn or uncommitted tail is discarded), otherwise the
  // directory is initialized fresh. From then on every committed unit of
  // work on *durable* tables — an outermost transaction commit, or each
  // top-level statement outside a transaction — is appended to the WAL as
  // logical redo records framed with length + CRC32 and a commit marker
  // carrying the next-id counter. Durable tables are those created through
  // SQL DDL (or recovered); engine scratch tables made through the direct
  // catalog API are ephemeral and bypass both WAL and snapshot. SQL DDL is
  // logged as its statement text and replayed by re-execution.

  /// Opens durability under `dir` (created if missing), recovering any
  /// existing state. Must be called on a fresh Database (no tables, no open
  /// transaction) and at most once.
  Status Open(const std::string& dir, const DurabilityOptions& options = {});
  /// True when the last Open found existing durable state (snapshot or
  /// committed WAL records).
  bool recovered() const { return recovered_; }
  bool durability_open() const { return wal_ != nullptr; }

  /// Both checkpoint kinds capture the current commit boundary (catalog,
  /// every row slot with its liveness and cells, index and trigger
  /// definitions, next-id) and hand it to one serializer (WriteSnapshot in
  /// rdb/snapshot.h). Both are rejected inside a transaction: a snapshot
  /// must not contain uncommitted effects.
  ///
  /// Checkpoint() serializes the capture inline on the writer thread —
  /// blocking the writer for the whole write, taking no reader slot — and
  /// then resets the WAL to the next epoch. A running background
  /// checkpoint is joined first.
  Status Checkpoint();

  /// Off-thread checkpoint: captures the boundary with the synced WAL
  /// offset, pins its epoch in a reader slot, and serializes it on a
  /// background thread while the writer keeps committing. The WAL is NOT
  /// truncated — recovery loads the snapshot and replays only the WAL
  /// suffix past the recorded offset. Returns once the capture is done
  /// (fast); CheckpointWait() joins the serialization and reports its
  /// status. Rejected while a background checkpoint is already running and
  /// (kUnavailable) when every reader slot is taken. A
  /// background-checkpoint failure is benign: the previous snapshot + full
  /// WAL still recover everything.
  Status CheckpointBackground();
  /// Joins an in-flight background checkpoint (no-op when none is running)
  /// and returns its final status.
  Status CheckpointWait();
  bool checkpoint_running() const { return checkpoint_running_; }

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

  // --- graceful degradation ------------------------------------------------
  //
  // When the WAL writer fail-stops (append, fsync, or post-checkpoint reset
  // failure), the Database enters an explicit READ-ONLY mode instead of
  // surfacing opaque Internal errors forever: SELECT and EXPLAIN keep
  // serving the in-memory state, while DML/DDL against durable tables (and
  // the direct write APIs) return kUnavailable naming the original errno and
  // failed operation. Ephemeral scratch tables bypass the WAL and stay
  // writable. TryHeal() re-opens the data directory — discarding in-memory
  // effects that were never durable (they already surfaced as statement
  // errors) and rebuilding from the snapshot + committed WAL prefix — to
  // return to read-write once the underlying fault clears.

  struct Health {
    bool read_only = false;
    std::string cause;  ///< First failure (op + path + errno); "" if healthy.
    /// Background-thread watchdogs (see the resource-governance section):
    /// true when the group-commit flusher / background checkpointer has made
    /// no progress for watchdog_stall_windows() consecutive windows.
    bool flusher_stalled = false;
    bool checkpoint_stalled = false;
    bool degraded() const {
      return read_only || flusher_stalled || checkpoint_stalled;
    }
  };
  /// Current health, including lazy watchdog evaluation: the first call that
  /// observes a stalled background thread bumps watchdog.flusher_stalls /
  /// watchdog.checkpoint_stalls and records a kGovernance trace event.
  Health health() const;
  bool read_only() const { return read_only_.load(std::memory_order_acquire); }

  /// Attempts to return a read-only database to read-write: re-runs recovery
  /// from disk, retrying up to `max_attempts` times with exponential backoff.
  /// The backoff is bounded (capped at kMaxHealBackoffMs per attempt),
  /// interruptible (cancel_token() aborts the sleep with kCancelled), and
  /// observable (each attempt bumps Stats::heal_attempts and each backoff
  /// records a kGovernance trace event annotated "heal_backoff").
  /// No-op when not read-only; rejected inside a transaction. On success the
  /// in-memory state equals the last committed-on-disk unit boundary.
  Status TryHeal(int max_attempts = 5);
  /// Upper bound on one TryHeal backoff sleep, milliseconds.
  static constexpr int kMaxHealBackoffMs = 100;

  /// Online integrity scrub (SQL: CHECK INTEGRITY). Walks every table
  /// checking slab liveness against hash-index entries in both directions,
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
  //  * Watchdogs: the group-commit flusher and background checkpointer
  //    stamp progress heartbeats; health() reports a thread stalled when it
  //    made no progress for watchdog_stall_windows() windows (flusher
  //    window = group_commit_window_us; checkpointer window =
  //    checkpoint_watchdog_window_us).

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
    watchdog_stall_windows_ = windows < 1 ? 1 : windows;
  }
  int watchdog_stall_windows() const { return watchdog_stall_windows_; }
  /// The background checkpointer's watchdog window (it has no natural
  /// period like the flusher's group-commit window). Default 1s.
  void set_checkpoint_watchdog_window_us(int64_t us) {
    checkpoint_watchdog_window_us_ = us < 1 ? 1 : us;
  }
  int64_t checkpoint_watchdog_window_us() const {
    return checkpoint_watchdog_window_us_;
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
  size_t prepared_cache_size() const { return cache_lru_.size(); }
  size_t prepared_cache_capacity() const { return cache_capacity_; }
  void set_prepared_cache_capacity(size_t capacity);

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
  // Always-on latency attribution next to the Stats event counts. Four
  // surfaces, cheapest first:
  //
  //  * Histograms + counters: every statement records its wall time into a
  //    per-kind histogram (stmt.select / stmt.insert / stmt.delete /
  //    stmt.update / stmt.ddl / stmt.txn / stmt.explain / stmt.other, in
  //    nanoseconds); the WAL records wal.commit_unit and wal.fsync; the
  //    checkpoint/recovery/scrub paths record db.checkpoint, snapshot.write,
  //    db.recovery and db.scrub; outermost transactions record db.txn; and
  //    engine/store.cc operations record engine.<op> spans. SQL
  //    `SHOW METRICS` returns all of it — stats.* fields, registry counters
  //    (db.exec_ns, db.trigger_ns, engine.asr_ns), and <hist>.count/.p50_ns/
  //    .p95_ns/.p99_ns/.max_ns/.sum_ns rows — and `SHOW HEALTH` wraps
  //    health(). Per-statement overhead is two clock reads and a bucket
  //    increment; the cached-prepared CI budget holds with it on.
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
  //  * Structured events: events() is a fixed-size ring of TraceEvent spans
  //    (statement / txn / WAL unit / fsync / checkpoint / recovery / scrub /
  //    engine op) with kind-specific payloads; `SHOW EVENTS` or
  //    events().DumpJson() exports it. bench/harness.h turns the histograms
  //    into the p50/p99 columns of bench JSON rows (e.g. commit_p50_us /
  //    commit_p99_us in the WAL ablation): medians of per-run samples, so
  //    single-run noise stays out of checked-in numbers.
  //
  //  * Causal trace spans: every TraceEvent additionally carries
  //    (tid, seq, trace_id, span_id, parent_span_id), stamped from the
  //    recording thread's trace::Context (common/metrics.h). The writer's
  //    statement span is the root; engine ops and WAL commit units nest
  //    under it via thread-local context, and the two cross-thread edges —
  //    commit unit -> group-commit flusher fsync, and writer-side
  //    checkpoint schedule -> background snapshot write — propagate via
  //    explicit trace::Handoff tokens captured on the producing thread and
  //    adopted by the consuming one. Background threads name themselves
  //    ("wal-flusher", "checkpoint") so exported tracks are labeled.
  //    events().DumpChromeTrace() (or SQL `SHOW TRACE`) renders the ring as
  //    Chrome/Perfetto trace-event JSON: per-thread named tracks, nested
  //    duration events, and flow arrows for every cross-thread handoff.
  //
  //  * Concurrency telemetry: the commit boundary maintains epoch.published
  //    and epoch.lag (published − min pinned, 0 when no reader is pinned)
  //    gauges, mvcc.version_rows / mvcc.version_bytes (pre-update images
  //    parked in table version buffers), mvcc.version_gc_rows and
  //    mvcc.slab_reclaims counters (epoch GC actually firing);
  //    readers.sessions gauges open reader sessions; and the batched
  //    flusher records group-commit batch size (fsync `a`
  //    payload) plus wal.window_occupancy_pct. Per-table/per-index access
  //    stats (scans, probes/hits, rows read/inserted/deleted/updated,
  //    version-buffer size) aggregate in Table and surface via SQL
  //    `SHOW TABLE STATS`. All of it is plain pre-resolved atomics on the
  //    hot path — the cached-prepared CI budget holds with it on.

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
  /// kUnavailable naming the original fault, for rejected write paths.
  Status ReadOnlyError(const std::string& action) const;
  /// Flips into read-only mode recording the first cause (preferring the
  /// WAL writer's own broken-cause, which names op + path + errno).
  void EnterReadOnly(const Status& cause);
  /// Loads the snapshot, replays the WAL's committed prefix, and opens the
  /// writer under data_dir_. Requires an empty catalog; on failure partial
  /// state may linger (callers reset or stay read-only).
  Status RecoverFromDir();
  /// Opens the WAL writer for `epoch` (resuming appends at `valid_bytes`)
  /// and installs it: metrics, memory accountant, and the transaction
  /// manager's redo hooks. `table_ids` seeds the file's table dictionary.
  Status OpenWalWriter(
      uint64_t epoch, uint64_t valid_bytes,
      const std::vector<std::pair<std::string, uint16_t>>* table_ids =
          nullptr);
  /// The prologue every checkpoint shares: durability open, not read-only,
  /// no transaction open (and no background checkpoint running — a
  /// blocking one joins it, a background one is rejected); commits the
  /// pending unit, publishes an epoch boundary, and fills `*out` with it.
  /// `reset_wal` (blocking Checkpoint) stamps epoch+1 and WAL offset 0 —
  /// the caller resets the WAL before anything else commits; otherwise the
  /// WAL is synced and the capture keeps its epoch and synced offset.
  Status CaptureCheckpoint(bool reset_wal, CheckpointCapture* out);
  /// One TryHeal attempt: probe-recover into a scratch Database first (so an
  /// active fault cannot wreck the read-serving state), then rebuild this
  /// one from disk and reopen the WAL writer.
  Status ReopenFromDisk();

  /// Flushes the WAL's pending redo as one committed unit (carrying the
  /// current next-id). No-op when durability is off or nothing is pending.
  Status WalCommitUnit();
  /// Pends the text of a successfully executed DDL statement (called by the
  /// Executor; the unit is flushed at the statement boundary since DDL is
  /// barred inside transactions).
  void WalLogDdl(std::string_view sql_text);
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
  /// Watchdog staleness check for one background thread (see health()): a
  /// `running` thread is stalled when its heartbeat is older than
  /// watchdog_stall_windows() windows of `window_us`. The first observation
  /// of a stall episode (latched in `*reported`) bumps `counter` and
  /// records a kGovernance trace event named `event`.
  bool WatchdogStalled(bool running, const std::atomic<uint64_t>& heartbeat_ns,
                       int64_t window_us, std::atomic<bool>* reported,
                       std::atomic<uint64_t>* counter,
                       const char* event) const;
  /// The group-commit period: group_commit_window_us, or 2ms when unset.
  int GroupCommitWindowUs() const;

  /// Publishes a new epoch at an outermost commit boundary, then reclaims
  /// retired storage / version-buffer images no pinned reader can reach.
  /// The no-garbage fast path is one atomic increment.
  void AdvanceEpochBoundary();

  /// Group-commit flusher lifecycle (kBatched durability).
  void StartFlusher();
  void StopFlusher();
  void FlusherLoop();

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
  /// stmt.shed / watchdog.*_stalls).
  std::atomic<uint64_t>* stmt_cancelled_ = nullptr;
  std::atomic<uint64_t>* stmt_deadline_exceeded_ = nullptr;
  std::atomic<uint64_t>* stmt_resource_exhausted_ = nullptr;
  std::atomic<uint64_t>* stmt_shed_ = nullptr;
  std::atomic<uint64_t>* flusher_stall_counter_ = nullptr;
  std::atomic<uint64_t>* checkpoint_stall_counter_ = nullptr;
  double slow_statement_threshold_us_ = -1;
  size_t slow_log_capacity_ = 32;
  std::vector<SlowStatement> slow_log_;
  /// Start of the outermost open transaction (db.txn span).
  uint64_t txn_start_ns_ = 0;
  int64_t next_id_ = 1;
  double statement_latency_us_ = 0;
  /// Failpoint countdown; negative = disarmed.
  int64_t fail_after_statements_ = -1;

  /// LRU prepared-statement cache: list front = most recently used; the
  /// index maps SQL text to its list node (transparent lookup, no copy).
  std::list<std::pair<std::string, StatementHandle>> cache_lru_;
  std::map<std::string, std::list<std::pair<std::string, StatementHandle>>::
                            iterator,
           std::less<>>
      cache_index_;
  size_t cache_capacity_ = 128;

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

  // --- durability ----------------------------------------------------------
  std::string data_dir_;
  DurabilityOptions durability_options_;
  /// All durable file I/O goes through this (never null once Open ran).
  Vfs* vfs_ = nullptr;
  std::unique_ptr<WalWriter> wal_;
  bool recovered_ = false;
  /// flock'd <data_dir>/LOCK file guarding against two Databases sharing
  /// one WAL; null when durability is off. Released by ~Database.
  std::unique_ptr<VfsFile> lock_file_;
  /// Degraded mode (see health()). Atomic so the flag itself is readable
  /// off-thread; the cause string is writer-thread state.
  std::atomic<bool> read_only_{false};
  std::string read_only_cause_;

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
  /// Watchdog knobs (see the governance section).
  int watchdog_stall_windows_ = 8;
  int64_t checkpoint_watchdog_window_us_ = 1000000;
  /// Progress heartbeats, stamped by the background threads themselves and
  /// read by health(); 0 = thread not started.
  std::atomic<uint64_t> flusher_heartbeat_ns_{0};
  std::atomic<uint64_t> checkpoint_heartbeat_ns_{0};
  /// Set by the checkpoint thread at exit: a finished-but-unjoined
  /// checkpoint (checkpoint_running_ stays true until CheckpointWait) is
  /// progress, not a stall.
  std::atomic<bool> checkpoint_done_{false};
  /// Stall-episode latches: the counter/trace event fire once per episode,
  /// not on every health() poll. Mutable — health() is const.
  mutable std::atomic<bool> flusher_stall_reported_{false};
  mutable std::atomic<bool> checkpoint_stall_reported_{false};

  // --- background threads --------------------------------------------------
  /// Group-commit flusher (kBatched): fsyncs the WAL every
  /// group_commit_window_us. flusher_mu_ additionally guards wal_ pointer
  /// swaps (Checkpoint / ReopenFromDisk) against the flusher dereference.
  std::thread flusher_;
  std::mutex flusher_mu_;
  std::condition_variable flusher_cv_;
  bool flusher_stop_ = false;

  /// At most one background checkpoint (CheckpointBackground). The writer
  /// thread owns this state; the spawned thread writes checkpoint_status_
  /// before exiting and it is read after join.
  std::thread checkpoint_thread_;
  Status checkpoint_status_;
  int checkpoint_slot_ = -1;
  bool checkpoint_running_ = false;
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

  /// Per-session cached plan keyed by SQL text (validated against the
  /// catalog version like writer-side handle slots).
  struct CachedPlan {
    sql::Statement stmt;
    int param_count = 0;
    std::shared_ptr<const PlannedStatement> plan;
    uint64_t version = 0;
  };

  Result<ResultSet> Run(std::string_view sql, const std::vector<Value>* params);

  Database* db_;
  int slot_;
  Stats stats_;
  uint64_t pin_epoch_ = 0;  ///< valid while explicit_pin_.
  bool explicit_pin_ = false;
  std::map<std::string, CachedPlan, std::less<>> plan_cache_;
};

}  // namespace xupd::rdb

#endif  // XUPD_RDB_DATABASE_H_
