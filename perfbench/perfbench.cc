// Repository benchmark program: three XML-update workloads over the §7.1.1
// fixed synthetic document, driven only through the engine's public surface
// (engine::RelationalStore, rdb::Database / ReaderSession,
// xquery::NativeExecutor).
//
//   bulk_churn     one closed-loop writer, in memory, ASR delete + ASR
//                  insert: set-oriented copy of a 1/8 bucket of root
//                  subtrees, delete of the originals, and one point XQuery
//                  REPLACE per step. Few statements, thousands of rows each.
//   point_durable  one closed-loop writer, durable store (batched group
//                  commit, count-based background checkpoints), per-tuple
//                  trigger delete + tuple insert: single-subtree copy/delete
//                  pairs and point XQuery REPLACEs. Many small statements.
//   snapshot_read  three closed-loop ReaderSession threads beside one
//                  open-loop writer running the point mix, in memory, with
//                  the default trigger + table strategies.
//
// Every update pair copies a subtree and then deletes its source, and every
// REPLACE toggles a value between its original and a fixed variant, so the
// stored document always equals the generated one with the net toggles
// applied. The correctness gate after each run checks exactly that, plus the
// engine and relational scrubs; any finding fails the run with no numbers.
//
// Usage:
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> [--size full|tiny] [--corrupt-expected]
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}. --trace 0 reports every metric of an untraced run; --trace 1
// runs the workload untraced and then traced, reports the traced run's
// metrics plus the tracing overhead, and writes a Chrome trace and a
// per-layer table into the work directory.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/store.h"
#include "rdb/database.h"
#include "tracer.h"
#include "workload/synthetic.h"
#include "xml/node.h"
#include "xml/serializer.h"
#include "xquery/executor.h"
#include "xquery/parser.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using xupd::Result;
using xupd::Rng;
using xupd::Status;
using xupd::engine::DeleteStrategy;
using xupd::engine::InsertStrategy;
using xupd::engine::RelationalStore;
using xupd::rdb::Database;
using xupd::rdb::Stats;
using xupd::rdb::Value;

enum class Workload { kBulkChurn, kPointDurable, kSnapshotRead };

struct Args {
  Workload workload = Workload::kBulkChurn;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool corrupt_expected = false;
  std::string work_dir;
};

/// Fixed per-workload parameters. Only the seed and the run length come from
/// the command line.
struct Config {
  Workload workload = Workload::kBulkChurn;
  xupd::workload::SyntheticSpec spec;
  /// Set-up repetitions per run; setup_s is their median.
  int setups = 3;
  /// The count window ends with the step holding this many-th copy. The
  /// count-type per-layer metrics sum counter deltas over its ops, and the
  /// memory metrics are sampled at its end. It is a fixed prefix of a
  /// seed-determined op sequence, so those metrics repeat exactly for one
  /// seed, and every seed has copied the same number of tuples by then, so
  /// slab capacities match across seeds. The run extends past --seconds
  /// until the window is complete.
  int count_window = 0;
  /// point_durable: a background checkpoint every this many update ops.
  int checkpoint_every = 0;
  /// snapshot_read: the open-loop writer's schedule, ops per second.
  double writer_rate = 0;
  int readers = 0;
  /// snapshot_read: mean of each reader's exponentially distributed pause
  /// after every query. Readers that issue queries back to back starve the
  /// writer: the catalog shared_mutex prefers readers, and the table-insert
  /// strategy's staging DDL needs it exclusively (one copy waited more than
  /// 90 s). Random pauses keep the readers from falling into a fixed phase,
  /// which would make the writer's waits differ from run to run.
  double reader_think_ms = 0;
  /// Number of distinct <n2> nodes whose <v2> the XQuery REPLACEs toggle.
  int toggle_pool = 0;
  /// bulk_churn: root subtrees are split into this many v1 buckets.
  int buckets = 0;
};

Config MakeConfig(Workload w, bool tiny) {
  Config c;
  c.workload = w;
  c.spec = tiny ? xupd::workload::SyntheticSpec{16, 4, 2}
                : xupd::workload::SyntheticSpec{256, 5, 3};
  c.setups = tiny ? 2 : 9;
  c.toggle_pool = tiny ? 8 : 64;
  switch (w) {
    case Workload::kBulkChurn:
      c.count_window = tiny ? 2 : 32;
      c.buckets = tiny ? 4 : 8;
      break;
    case Workload::kPointDurable:
      c.count_window = tiny ? 20 : 4000;
      c.checkpoint_every = tiny ? 50 : 6000;
      break;
    case Workload::kSnapshotRead:
      c.count_window = tiny ? 12 : 100;
      c.writer_rate = 50;
      c.reader_think_ms = 50;
      c.readers = 3;
      break;
  }
  return c;
}

// --- samples ----------------------------------------------------------------

/// Latency samples. A failed operation is recorded as +inf: it misses any
/// latency limit.
struct Samples {
  std::vector<double> v;

  void Add(double x) { v.push_back(x); }
  void Append(const Samples& o) { v.insert(v.end(), o.v.begin(), o.v.end()); }
  size_t size() const { return v.size(); }

  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const {
    if (v.empty()) return 0;
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    size_t idx = static_cast<size_t>(std::ceil(q * s.size()));
    idx = std::clamp<size_t>(idx, 1, s.size()) - 1;
    return s[idx];
  }
  double P50() const { return Quantile(0.5); }

  /// The highest percentile with at least ten samples beyond it (the
  /// maximum when there are fewer than eleven samples).
  double Tail(double* pct) const {
    const size_t n = v.size();
    if (n == 0) {
      *pct = 0;
      return 0;
    }
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    if (n < 11) {
      *pct = 100;
      return s.back();
    }
    *pct = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
    return s[n - 11];
  }
};

/// Histogram percentile in the engine's unit (ns) scaled by `scale`.
double HistP(const xupd::Histogram* h, double p, double scale) {
  return h == nullptr || h->count() == 0 ? 0 : h->Percentile(p) * scale;
}

/// Histogram tail: highest percentile with at least ten samples beyond it.
double HistTail(const xupd::Histogram* h, double scale) {
  if (h == nullptr || h->count() == 0) return 0;
  const double n = static_cast<double>(h->count());
  const double p = n < 11 ? 100 : 100.0 * (n - 10) / n;
  return h->Percentile(p) * scale;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --- counters ---------------------------------------------------------------

/// The Stats fields the per-op metrics read, summed over a set of ops.
struct Counts {
  uint64_t ops = 0;
  uint64_t stmts = 0, parses = 0, plans = 0, plan_hits = 0;
  uint64_t trig_fires = 0, scanned = 0, probes = 0, changed = 0;
  uint64_t undo = 0, wal_appends = 0, wal_bytes = 0;

  void AddDelta(const Stats& a, const Stats& b) {
    ++ops;
    stmts += b.statements - a.statements;
    parses += b.sql_parses - a.sql_parses;
    plans += b.plans_built - a.plans_built;
    plan_hits += b.plan_cache_hits - a.plan_cache_hits;
    trig_fires += b.trigger_firings - a.trigger_firings;
    scanned += b.rows_scanned - a.rows_scanned;
    probes += b.index_probes - a.index_probes;
    changed += (b.rows_inserted - a.rows_inserted) +
               (b.rows_deleted - a.rows_deleted) +
               (b.rows_updated - a.rows_updated);
    undo += b.undo_records - a.undo_records;
    wal_appends += b.wal_appends - a.wal_appends;
    wal_bytes += b.wal_bytes - a.wal_bytes;
  }
  void Add(const Counts& o) {
    ops += o.ops;
    stmts += o.stmts;
    parses += o.parses;
    plans += o.plans;
    plan_hits += o.plan_hits;
    trig_fires += o.trig_fires;
    scanned += o.scanned;
    probes += o.probes;
    changed += o.changed;
    undo += o.undo;
    wal_appends += o.wal_appends;
    wal_bytes += o.wal_bytes;
  }
};

enum OpKind { kCopy = 0, kDelete = 1, kXQuery = 2 };
const char* const kOpSpan[] = {"op.copy", "op.delete", "op.xquery"};

/// Everything the writer measures.
struct WriterLog {
  Samples lat_ms[3];
  /// Copy and delete latencies in issue order (p50 drift).
  std::vector<double> update_seq_ms;
  Counts window[3];  ///< counter deltas of the count window's ops.
  uint64_t window_copies = 0;
  bool window_closed = false;
  uint64_t wall_ns = 0, exec_ns = 0, trigger_ns = 0, asr_ns = 0;
  uint64_t attempted = 0, failed = 0;
  Samples late_ms;  ///< open loop: start time minus due time.
  Samples parse_us;  ///< traced runs: xquery::ParseStatement of each text.
  int64_t epoch_lag_max = 0, version_rows_max = 0;
};

void ReportFailure(uint64_t* failed, const char* what, const Status& s) {
  if (++*failed <= 5) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 s.ToString().c_str());
  }
}

// --- set-up -----------------------------------------------------------------

struct Built {
  xupd::workload::GeneratedDoc gen;
  std::unique_ptr<RelationalStore> store;
  double generate_s = 0, create_s = 0, load_s = 0, total_s = 0;
};

RelationalStore::Options StoreOptions(const Config& cfg,
                                      const std::string& dir) {
  RelationalStore::Options o;
  switch (cfg.workload) {
    case Workload::kBulkChurn:
      o.delete_strategy = DeleteStrategy::kAsr;
      o.insert_strategy = InsertStrategy::kAsr;
      o.build_asr = true;
      break;
    case Workload::kPointDurable:
      o.delete_strategy = DeleteStrategy::kPerTupleTrigger;
      o.insert_strategy = InsertStrategy::kTuple;
      o.durability = true;
      o.data_dir = dir;
      o.sync_mode = xupd::rdb::SyncMode::kBatched;
      break;
    case Workload::kSnapshotRead:
      break;  // defaults: per-tuple trigger delete + table insert
  }
  return o;
}

double Seconds(uint64_t a, uint64_t b) { return (b - a) / 1e9; }

/// Generate + create + load (+ first checkpoint on the durable store).
Result<Built> SetupOnce(const Config& cfg, uint64_t seed,
                        const std::string& dir) {
  Span setup("bench.setup", 0);
  Built b;
  const uint64_t t0 = NowNs();
  {
    Span s("workload.GenerateFixedSynthetic", 0);
    auto gen = xupd::workload::GenerateFixedSynthetic(cfg.spec, seed);
    if (!gen.ok()) return gen.status();
    b.gen = std::move(gen).value();
  }
  const uint64_t t1 = NowNs();
  {
    Span s("engine.Create", 0);
    auto store = RelationalStore::Create(b.gen.dtd, StoreOptions(cfg, dir));
    if (!store.ok()) return store.status();
    b.store = std::move(store).value();
  }
  const uint64_t t2 = NowNs();
  {
    Span s("shred.Load", 0);
    Status st = b.store->Load(*b.gen.doc);
    if (!st.ok()) return st;
  }
  const uint64_t t3 = NowNs();
  if (cfg.workload == Workload::kPointDurable) {
    Span s("engine.Checkpoint", 0);
    Status st = b.store->Checkpoint();
    if (!st.ok()) return st;
  }
  const uint64_t t4 = NowNs();
  b.generate_s = Seconds(t0, t1);
  b.create_s = Seconds(t1, t2);
  b.load_s = Seconds(t2, t3);
  b.total_s = Seconds(t0, t4);
  return b;
}

// --- the writer -------------------------------------------------------------

/// Elements named `name` among the element children of `e`.
std::vector<xupd::xml::Element*> ChildElements(const xupd::xml::Element* e,
                                               const std::string& name) {
  std::vector<xupd::xml::Element*> out;
  for (const auto& c : e->children()) {
    if (!c->is_element()) continue;
    auto* el = static_cast<xupd::xml::Element*>(c.get());
    if (el->name() == name) out.push_back(el);
  }
  return out;
}

std::string ReplaceText(const std::string& from, const std::string& to) {
  return "FOR $x IN document(\"doc\")//n2[v2 = \"" + from +
         "\"], $v IN $x/v2 UPDATE $x { REPLACE $v WITH <v2>" + to +
         "</v2> }";
}

class Writer {
 public:
  Writer(const Config& cfg, uint64_t seed, RelationalStore* store,
         WriterLog* log)
      : cfg_(cfg),
        rng_(seed * 0x9e3779b97f4a7c15ULL + 17),
        store_(store),
        db_(store->db()),
        log_(log),
        exec_ns_(db_->metrics().Counter("db.exec_ns")),
        trigger_ns_(db_->metrics().Counter("db.trigger_ns")),
        asr_ns_(db_->metrics().Counter("engine.asr_ns")),
        lag_(db_->metrics().Gauge("epoch.lag")),
        version_rows_(db_->metrics().Gauge("mvcc.version_rows")) {}

  /// Derives the op inputs from the generated document: the root-subtree
  /// ids, the REPLACE targets (n2 nodes with a unique v2 value) and the
  /// v1 bucket predicates.
  Status Init(const xupd::xml::Document& doc) {
    auto ids = store_->SelectIds("n1", "");
    if (!ids.ok()) return ids.status();
    slots_ = std::vector<std::atomic<int64_t>>(ids->size());
    for (size_t i = 0; i < ids->size(); ++i) slots_[i] = (*ids)[i];

    std::map<std::string, int> v2_count;
    std::vector<std::string> v2_values, v1_values;
    for (auto* n1 : ChildElements(doc.root(), "n1")) {
      v1_values.push_back(n1->FindChildElement("v1")->TextContent());
      for (auto* n2 : ChildElements(n1, "n2")) {
        v2_values.push_back(n2->FindChildElement("v2")->TextContent());
        ++v2_count[v2_values.back()];
      }
    }
    for (const std::string& v : v2_values) {
      if (v2_count[v] == 1) pool_.push_back(v);
    }
    for (size_t i = pool_.size(); i > 1; --i) {
      std::swap(pool_[i - 1], pool_[rng_.Uniform(i)]);
    }
    if (pool_.size() > static_cast<size_t>(cfg_.toggle_pool)) {
      pool_.resize(static_cast<size_t>(cfg_.toggle_pool));
    }
    if (pool_.empty()) return Status::Internal("no unique v2 values");
    toggled_.assign(pool_.size(), false);

    if (cfg_.buckets > 0) {
      std::sort(v1_values.begin(), v1_values.end());
      const size_t n = v1_values.size();
      for (int b = 0; b < cfg_.buckets; ++b) {
        std::string pred;
        if (b > 0) pred = "v1 >= '" + v1_values[b * n / cfg_.buckets] + "'";
        if (b + 1 < cfg_.buckets) {
          if (!pred.empty()) pred += " AND ";
          pred += "v1 < '" + v1_values[(b + 1) * n / cfg_.buckets] + "'";
        }
        bucket_preds_.push_back(pred);
      }
    }
    return Status::OK();
  }

  const std::vector<std::atomic<int64_t>>& slots() const { return slots_; }

  /// Starts the measured window (open-loop schedule origin).
  void Start(uint64_t t0) { t0_ = t0; }

  /// Runs one step of the workload's op mix. A non-OK status is a
  /// benchmark-side invariant violation and aborts the run; failed engine
  /// calls are only counted.
  Status Step() {
    switch (cfg_.workload) {
      case Workload::kBulkChurn:
        XUPD_RETURN_IF_ERROR(BulkPair());
        return XQueryToggle();
      case Workload::kPointDurable:
      case Workload::kSnapshotRead:
        // Two copy/delete pairs, then one REPLACE: a fixed mix, so every
        // seed has done the same numbers of each when the count window ends.
        XUPD_RETURN_IF_ERROR(++steps_ % 3 != 0 ? PointPair() : XQueryToggle());
        if (cfg_.checkpoint_every > 0 &&
            ops_ >= next_checkpoint_ + cfg_.checkpoint_every) {
          next_checkpoint_ = ops_;
          BackgroundCheckpoint();
        }
        return Status::OK();
    }
    return Status::OK();
  }

  /// The net REPLACE statements: one per pool value toggled an odd number
  /// of times.
  std::vector<std::string> NetToggles() const {
    std::vector<std::string> out;
    for (size_t i = 0; i < pool_.size(); ++i) {
      if (toggled_[i]) out.push_back(ReplaceText(pool_[i], "x" + pool_[i]));
    }
    return out;
  }

 private:
  /// Open loop: waits for the op's due time and returns it. Closed loop:
  /// returns 0 (latency is timed from the start of the call).
  uint64_t AwaitDue() {
    if (cfg_.writer_rate <= 0) return 0;
    const uint64_t due =
        t0_ + static_cast<uint64_t>(static_cast<double>(ops_) * 1e9 /
                                    cfg_.writer_rate);
    uint64_t now = NowNs();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    }
    return due;
  }

  /// Times one engine call as an op of `kind`, with counter deltas taken at
  /// the same boundaries.
  template <typename Fn>
  Status Timed(OpKind kind, const char* span_name, const char* what, Fn&& fn) {
    const uint64_t due = AwaitDue();
    const uint64_t op = ++ops_;
    Span op_span(kOpSpan[kind], op);
    const Stats before = db_->stats();
    const uint64_t exec0 = *exec_ns_, trig0 = *trigger_ns_, asr0 = *asr_ns_;
    const uint64_t t0 = NowNs();
    Status s;
    {
      Span call(span_name, op);
      s = fn();
    }
    const uint64_t t1 = NowNs();
    const Stats after = db_->stats();
    ++log_->attempted;
    if (due != 0) log_->late_ms.Add((t0 > due ? t0 - due : 0) / 1e6);
    const double ms = (t1 - (due != 0 ? due : t0)) / 1e6;
    const double recorded = s.ok() ? ms : INFINITY;
    if (!s.ok()) ReportFailure(&log_->failed, what, s);
    log_->lat_ms[kind].Add(recorded);
    if (kind != kXQuery) log_->update_seq_ms.push_back(recorded);
    if (!log_->window_closed) {
      log_->window[kind].AddDelta(before, after);
      if (kind == kCopy) ++log_->window_copies;
    }
    log_->wall_ns += t1 - t0;
    log_->exec_ns += *exec_ns_ - exec0;
    log_->trigger_ns += *trigger_ns_ - trig0;
    log_->asr_ns += *asr_ns_ - asr0;
    log_->epoch_lag_max = std::max<int64_t>(log_->epoch_lag_max, *lag_);
    log_->version_rows_max =
        std::max<int64_t>(log_->version_rows_max, *version_rows_);
    return s;
  }

  Status BulkPair() {
    const std::string& pred = bucket_preds_[rng_.Uniform(bucket_preds_.size())];
    const int64_t watermark = db_->next_id() - 1;
    Status copied =
        Timed(kCopy, "engine.CopySubtreesWhere", "bulk copy", [&] {
          return store_->CopySubtreesWhere("n1", pred, store_->root_id());
        });
    if (!copied.ok()) return Status::OK();
    const std::string originals =
        pred + " AND id <= " + std::to_string(watermark);
    Timed(kDelete, "engine.DeleteWhere", "bulk delete",
          [&] { return store_->DeleteWhere("n1", originals); });
    return Status::OK();
  }

  Status PointPair() {
    const size_t i = rng_.Uniform(slots_.size());
    const int64_t src = slots_[i];
    const int64_t watermark = db_->next_id();
    Status copied = Timed(kCopy, "engine.CopySubtree", "copy", [&] {
      return store_->CopySubtree("n1", src, store_->root_id());
    });
    if (!copied.ok()) return Status::OK();
    Result<std::vector<int64_t>> fresh = std::vector<int64_t>{};
    {
      Span s("engine.SelectIds", ops_);
      fresh = store_->SelectIds("n1", "id >= " + std::to_string(watermark));
    }
    if (!fresh.ok()) return fresh.status();
    if (fresh->size() != 1) {
      return Status::Internal("copy of subtree " + std::to_string(src) +
                              " produced " + std::to_string(fresh->size()) +
                              " new root tuples");
    }
    Status deleted = Timed(kDelete, "engine.DeleteByIds", "delete", [&] {
      return store_->DeleteByIds("n1", {src});
    });
    // A failed delete leaves both copies stored; the gate reports it.
    if (deleted.ok()) slots_[i] = fresh->front();
    return Status::OK();
  }

  Status XQueryToggle() {
    const size_t j = rng_.Uniform(pool_.size());
    const std::string variant = "x" + pool_[j];
    const std::string text = toggled_[j] ? ReplaceText(variant, pool_[j])
                                         : ReplaceText(pool_[j], variant);
    Status s = Timed(kXQuery, "engine.ExecuteXQueryUpdate", "xquery",
                     [&] { return store_->ExecuteXQueryUpdate(text); });
    if (s.ok()) toggled_[j] = !toggled_[j];
    if (TracingOn()) {
      Span span("xquery.ParseStatement", ops_);
      const uint64_t t0 = NowNs();
      auto parsed = xupd::xquery::ParseStatement(text);
      log_->parse_us.Add((NowNs() - t0) / 1e3);
      if (!parsed.ok()) return parsed.status();
    }
    return Status::OK();
  }

  void BackgroundCheckpoint() {
    Span s("rdb.CheckpointBackground", ops_);
    ++log_->attempted;
    Status st = db_->CheckpointWait();
    if (st.ok()) st = db_->CheckpointBackground();
    if (!st.ok()) ReportFailure(&log_->failed, "background checkpoint", st);
  }

  const Config& cfg_;
  Rng rng_;
  RelationalStore* store_;
  Database* db_;
  WriterLog* log_;
  std::atomic<uint64_t>* exec_ns_;
  std::atomic<uint64_t>* trigger_ns_;
  std::atomic<uint64_t>* asr_ns_;
  std::atomic<int64_t>* lag_;
  std::atomic<int64_t>* version_rows_;
  /// Current id of each root subtree; readers pick point-query parents here.
  std::vector<std::atomic<int64_t>> slots_;
  std::vector<std::string> pool_;
  std::vector<bool> toggled_;
  std::vector<std::string> bucket_preds_;
  uint64_t t0_ = 0;
  uint64_t ops_ = 0;
  uint64_t steps_ = 0;
  uint64_t next_checkpoint_ = 0;
};

// --- readers ----------------------------------------------------------------

enum ReadClass { kPoint = 0, kPath = 1, kScan = 2 };
const char* const kReadSpan[] = {"read.point", "read.path", "read.scan"};

/// The three reader query classes: children of a root subtree by parentId,
/// the §7.2 conventional two-step parentId join with a leaf-value filter,
/// and a filtered COUNT(*) over the largest element table.
struct ReadQueries {
  std::string sql[3];

  explicit ReadQueries(const Config& cfg) {
    // The path query ends one level above the leaves, so that no reader
    // statement but the scan holds the catalog lock for long.
    const int d = cfg.spec.depth;
    const std::string p = std::to_string(d - 1);
    sql[kPoint] = "SELECT id, v2 FROM n2 WHERE parentId = ?";
    sql[kPath] = "SELECT l2.id FROM n" + p + " l0, n" + std::to_string(d - 2) +
                 " l1, n" + std::to_string(d - 3) + " l2 WHERE l0.v" + p +
                 " >= ? AND l0.v" + p +
                 " < ? AND l0.parentId = l1.id AND l1.parentId = l2.id";
    sql[kScan] = "SELECT COUNT(*) FROM n" + std::to_string(d) + " WHERE v" +
                 std::to_string(d) + " < ?";
  }

  /// Seeded parameters for class `c`. Path: a three-digit value prefix
  /// (about 1/900 of the filtered rows). Scan: a one-digit upper bound.
  static std::vector<Value> Params(
      ReadClass c, Rng* rng, const std::vector<std::atomic<int64_t>>& slots) {
    switch (c) {
      case kPoint:
        return {Value::Int(slots[rng->Uniform(slots.size())])};
      case kPath: {
        const int p = static_cast<int>(rng->UniformRange(100, 998));
        return {Value::Str(std::to_string(p)),
                Value::Str(std::to_string(p + 1))};
      }
      case kScan:
        return {Value::Str(std::to_string(rng->UniformRange(1, 9)))};
    }
    return {};
  }
};

struct ReaderLog {
  Samples lat_us[3];
  uint64_t attempted = 0, failed = 0;
  uint64_t rows_returned = 0, rows_examined = 0, index_probes = 0;
};

void ReaderLoop(Database* db, const ReadQueries& queries, uint64_t seed, int r,
                double think_ms,
                const std::vector<std::atomic<int64_t>>& slots,
                const std::atomic<bool>& stop, ReaderLog* log) {
  Rng rng(seed * 1000003 + static_cast<uint64_t>(r) * 7919 + 1);
  std::unique_ptr<xupd::rdb::ReaderSession> session;
  {
    Span s("rdb.OpenReaderSession", 0);
    auto opened = db->OpenReaderSession();
    ++log->attempted;
    if (!opened.ok()) {
      ReportFailure(&log->failed, "reader admission", opened.status());
      return;
    }
    session = std::move(opened).value();
  }
  uint64_t q = 0;
  while (!stop.load(std::memory_order_acquire)) {
    const ReadClass c = static_cast<ReadClass>(q % 3);
    const uint64_t op = (static_cast<uint64_t>(r + 1) << 48) | ++q;
    std::vector<Value> params = ReadQueries::Params(c, &rng, slots);
    Span read(kReadSpan[c], op);
    const uint64_t t0 = NowNs();
    Result<xupd::rdb::ResultSet> rs = xupd::rdb::ResultSet{};
    {
      Span call("rdb.ReaderSession.ExecuteQueryBound", op);
      rs = session->ExecuteQueryBound(queries.sql[c], params);
    }
    const double us = (NowNs() - t0) / 1e3;
    ++log->attempted;
    if (rs.ok()) {
      log->lat_us[c].Add(us);
      log->rows_returned += rs->rows.size();
    } else {
      ReportFailure(&log->failed, "reader query", rs.status());
      log->lat_us[c].Add(INFINITY);
    }
    const double u =
        (static_cast<double>(rng.Uniform(1 << 30)) + 1) / (1 << 30);
    std::this_thread::sleep_for(std::chrono::microseconds(
        static_cast<int64_t>(-think_ms * 1e3 * std::log(u))));
  }
  log->rows_examined = session->stats().rows_scanned;
  log->index_probes = session->stats().index_probes;
}

std::vector<std::string> SortedRows(const xupd::rdb::ResultSet& rs) {
  std::vector<std::string> out;
  for (const auto& row : rs.rows) {
    std::string line;
    for (const Value& v : row) line += v.ToString() + "|";
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Once the writer has stopped, a reader session must give the writer's
/// answer to the same SQL, for a sample of parameters of every class.
Status CheckReadersAgree(Database* db, const ReadQueries& queries,
                         uint64_t seed,
                         const std::vector<std::atomic<int64_t>>& slots) {
  auto session = db->OpenReaderSession();
  if (!session.ok()) return session.status();
  Rng rng(seed + 99);
  for (int c = 0; c < 3; ++c) {
    for (int k = 0; k < 4; ++k) {
      auto params = ReadQueries::Params(static_cast<ReadClass>(c), &rng, slots);
      Result<xupd::rdb::ResultSet> mine = xupd::rdb::ResultSet{};
      Result<xupd::rdb::ResultSet> writer = xupd::rdb::ResultSet{};
      {
        Span s("rdb.ReaderSession.ExecuteQueryBound", 0);
        mine = (*session)->ExecuteQueryBound(queries.sql[c], params);
      }
      {
        Span s("rdb.Database.ExecuteQueryBound", 0);
        writer = db->ExecuteQueryBound(queries.sql[c], params);
      }
      if (!mine.ok()) return mine.status();
      if (!writer.ok()) return writer.status();
      if (SortedRows(*mine) != SortedRows(*writer)) {
        return Status::Internal(std::string("reader and writer disagree on ") +
                                kReadSpan[c] + ": " + queries.sql[c]);
      }
    }
  }
  return Status::OK();
}

// --- one run ----------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
  std::string note;
};
using Metrics = std::map<std::string, Metric>;

struct RunResult {
  Metrics metrics;
  uint64_t attempted = 0, failed = 0;
  /// Work per second the run completed: update ops, plus reader queries
  /// when there are readers (tracing-overhead base).
  double throughput = 0;
};

uint64_t DirBytes(const std::string& dir, uint64_t* snapshot_bytes) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (!e.is_regular_file()) continue;
    total += e.file_size();
    if (e.path().filename() == "snapshot.xupd") *snapshot_bytes = e.file_size();
  }
  return total;
}

double MemMb(Database* db, const char* gauge) {
  return static_cast<double>(db->metrics().Gauge(gauge)->load()) /
         (1024.0 * 1024.0);
}

const char* const kResetHistograms[] = {
    "stmt.select",         "stmt.insert",
    "stmt.delete",         "stmt.update",
    "db.txn",              "wal.commit_unit",
    "wal.fsync",           "wal.window_occupancy_pct",
    "db.checkpoint",       "catalog_lock.shared_wait",
    "catalog_lock.exclusive_wait"};

Result<RunResult> RunOnce(const Config& cfg, const Args& args, bool traced) {
  SetTracing(traced);
  ClearSpans();
  const std::string store_root = args.work_dir + "/stores";
  std::error_code ec;
  fs::remove_all(store_root, ec);
  fs::create_directories(store_root, ec);

  // Set-up, repeated; the last store is the one measured.
  Samples setup_s, generate_s, create_s, load_s;
  Built built;
  for (int i = 0; i < cfg.setups; ++i) {
    if (i > 0) {
      built.store.reset();
      fs::remove_all(store_root + "/s" + std::to_string(i - 1), ec);
    }
    auto b = SetupOnce(cfg, args.seed, store_root + "/s" + std::to_string(i));
    if (!b.ok()) return b.status();
    built = std::move(b).value();
    setup_s.Add(built.total_s);
    generate_s.Add(built.generate_s);
    create_s.Add(built.create_s);
    load_s.Add(built.load_s);
  }
  const std::string data_dir =
      store_root + "/s" + std::to_string(cfg.setups - 1);
  RelationalStore* store = built.store.get();
  Database* db = store->db();

  WriterLog wlog;
  Writer writer(cfg, args.seed, store, &wlog);
  XUPD_RETURN_IF_ERROR(writer.Init(*built.gen.doc));
  const ReadQueries queries(cfg);

  for (const char* h : kResetHistograms) db->metrics().GetHistogram(h)->Reset();
  const Stats stats0 = db->stats();
  const uint64_t gc0 = db->metrics().Counter("mvcc.version_gc_rows")->load();

  // --- measured window ---
  std::atomic<bool> stop{false};
  std::vector<ReaderLog> rlogs(static_cast<size_t>(cfg.readers));
  std::vector<std::thread> readers;
  for (int r = 0; r < cfg.readers; ++r) {
    readers.emplace_back(ReaderLoop, db, std::cref(queries), args.seed, r,
                         cfg.reader_think_ms,
                         std::cref(writer.slots()), std::cref(stop),
                         &rlogs[static_cast<size_t>(r)]);
  }
  const uint64_t t_start = NowNs();
  writer.Start(t_start);
  const uint64_t min_ns = static_cast<uint64_t>(args.seconds * 1e9);
  std::atomic<int64_t>* mem_gauge = db->metrics().Gauge("mem.total");
  // mem.total and peak RSS once the count window is complete.
  double mem_window = 0, rss_window_mb = 0;
  Status loop = Status::OK();
  while (loop.ok() && (NowNs() - t_start < min_ns || !wlog.window_closed)) {
    loop = writer.Step();
    if (!wlog.window_closed &&
        wlog.window_copies >= static_cast<uint64_t>(cfg.count_window)) {
      wlog.window_closed = true;
      mem_window = static_cast<double>(mem_gauge->load());
      rusage ru{};
      getrusage(RUSAGE_SELF, &ru);
      rss_window_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    }
  }
  const uint64_t t_end = NowNs();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  XUPD_RETURN_IF_ERROR(loop);
  const double window_s = Seconds(t_start, t_end);

  // --- end-of-window state ---
  const Stats stats1 = db->stats();
  double dead = 0, capacity = 0;
  for (const auto& tm : store->mapping().tables()) {
    const auto* t = db->FindTable(tm.table);
    if (t == nullptr) continue;
    capacity += static_cast<double>(t->capacity());
    dead += static_cast<double>(t->capacity() - t->live_count());
  }
  const auto* asr_table = db->FindTable("asr");
  const double asr_rows =
      asr_table == nullptr ? 0 : static_cast<double>(asr_table->live_count());
  uint64_t disk_bytes = 0, snapshot_bytes = 0;
  if (cfg.workload == Workload::kPointDurable) {
    Span s("engine.Checkpoint", 0);
    Status st = db->CheckpointWait();
    if (st.ok()) st = store->Checkpoint();
    if (!st.ok()) return st;
    disk_bytes = DirBytes(data_dir, &snapshot_bytes);
  }

  // --- correctness gate (untimed) ---
  Span check_span("bench.check", 0);
  if (cfg.readers > 0) {
    XUPD_RETURN_IF_ERROR(
        CheckReadersAgree(db, queries, args.seed, writer.slots()));
  }
  uint64_t c0 = NowNs();
  auto expected = built.gen.doc->Clone();
  {
    Span s("xquery.NativeExecutor.ExecuteString", 0);
    xupd::xquery::NativeExecutor oracle(expected.get());
    for (const std::string& q : writer.NetToggles()) {
      XUPD_RETURN_IF_ERROR(oracle.ExecuteString(q));
    }
  }
  const double oracle_ms = (NowNs() - c0) / 1e6;
  if (args.corrupt_expected) {
    auto* v1 = ChildElements(expected->root(), "n1").front()->FindChildElement(
        "v1");
    auto removed = v1->RemoveChildAt(0);
    if (!removed.ok()) return removed.status();
    v1->AppendText("altered");
  }
  const double doc_bytes =
      static_cast<double>(xupd::xml::Serialize(*expected).size());
  c0 = NowNs();
  std::unique_ptr<xupd::xml::Document> rebuilt;
  {
    Span s("shred.Reconstruct", 0);
    auto r = store->Reconstruct();
    if (!r.ok()) return r.status();
    rebuilt = std::move(r).value();
  }
  const double reconstruct_ms = (NowNs() - c0) / 1e6;
  if (!xupd::xml::DeepEqualUnordered(*expected->root(), *rebuilt->root())) {
    return Status::Internal(
        "reconstructed document differs from the expected document");
  }
  c0 = NowNs();
  std::vector<std::string> findings;
  {
    Span s("engine.VerifyStore", 0);
    findings = store->VerifyStore();
  }
  const double verify_ms = (NowNs() - c0) / 1e6;
  if (!findings.empty()) {
    return Status::Internal("VerifyStore: " + findings.front());
  }
  c0 = NowNs();
  {
    Span s("rdb.VerifyIntegrity", 0);
    findings = db->VerifyIntegrity();
  }
  const double integrity_ms = (NowNs() - c0) / 1e6;
  if (!findings.empty()) {
    return Status::Internal("CHECK INTEGRITY: " + findings.front());
  }

  // --- metrics ---
  RunResult out;
  Metrics& m = out.metrics;
  auto put = [&m](const std::string& name, double v, const char* unit,
                  std::string note = "") {
    m[name] = Metric{v, unit, std::move(note)};
  };
  auto tail = [&](const std::string& name, const Samples& s, const char* unit) {
    double pct = 0;
    const double v = s.Tail(&pct);
    char note[64];
    std::snprintf(note, sizeof(note), "p%.3f of %zu samples", pct, s.size());
    put(name, v, unit, note);
  };
  auto hist = [db](const char* name) {
    return db->metrics().FindHistogram(name);
  };

  uint64_t attempted = wlog.attempted, failed = wlog.failed;
  ReaderLog reads;
  for (const ReaderLog& r : rlogs) {
    for (int c = 0; c < 3; ++c) reads.lat_us[c].Append(r.lat_us[c]);
    reads.attempted += r.attempted;
    reads.failed += r.failed;
    reads.rows_returned += r.rows_returned;
    reads.rows_examined += r.rows_examined;
    reads.index_probes += r.index_probes;
  }
  attempted += reads.attempted;
  failed += reads.failed;
  out.attempted = attempted;
  out.failed = failed;
  const double update_ops = static_cast<double>(
      wlog.lat_ms[kCopy].size() + wlog.lat_ms[kDelete].size() +
      wlog.lat_ms[kXQuery].size());
  const double read_queries = static_cast<double>(
      reads.lat_us[0].size() + reads.lat_us[1].size() + reads.lat_us[2].size());
  out.throughput = (update_ops + read_queries) / window_s;

  // End-to-end.
  put("setup_s", setup_s.P50(), "s",
      "median of " + std::to_string(cfg.setups) + " set-ups");
  put("update_ops_per_s", update_ops / window_s, "ops/s");
  put("copy_p50_ms", wlog.lat_ms[kCopy].P50(), "ms");
  tail("copy_tail_ms", wlog.lat_ms[kCopy], "ms");
  put("delete_p50_ms", wlog.lat_ms[kDelete].P50(), "ms");
  tail("delete_tail_ms", wlog.lat_ms[kDelete], "ms");
  put("xquery_p50_ms", wlog.lat_ms[kXQuery].P50(), "ms");
  put("read_qps", read_queries / window_s, "queries/s");
  put("read_point_p50_us", reads.lat_us[kPoint].P50(), "us");
  put("read_path_p50_us", reads.lat_us[kPath].P50(), "us");
  put("read_scan_p50_us", reads.lat_us[kScan].P50(), "us");
  tail("read_point_tail_us", reads.lat_us[kPoint], "us");
  put("mem_bytes_per_doc_byte", mem_window / doc_bytes, "ratio");
  put("disk_bytes_per_doc_byte", static_cast<double>(disk_bytes) / doc_bytes,
      "ratio");
  put("peak_rss_mb", rss_window_mb, "MiB",
      "peak over set-up and the count window");
  put("error_ratio", Ratio(static_cast<double>(failed),
                           static_cast<double>(attempted)),
      "ratio");

  // Set-up layers.
  put("workload.generate_s", generate_s.P50(), "s");
  put("shred.load_s", load_s.P50(), "s");
  put("shred.load_tuples_per_s",
      Ratio(static_cast<double>(built.gen.tuple_count), load_s.P50()),
      "tuples/s");
  put("rdb.open_s", create_s.P50(), "s");

  // Engine: time shares over every update op; counts over the op window.
  const double wall = static_cast<double>(wlog.wall_ns);
  put("engine.sql_exec_share", Ratio(static_cast<double>(wlog.exec_ns), wall),
      "ratio");
  put("engine.trigger_share",
      Ratio(static_cast<double>(wlog.trigger_ns), wall), "ratio");
  put("engine.unattributed_share",
      wall > 0 ? std::max(0.0, 1.0 - static_cast<double>(wlog.exec_ns) / wall)
               : 0,
      "ratio");
  put("asr.maint_share", Ratio(static_cast<double>(wlog.asr_ns), wall),
      "ratio");
  Counts upd = wlog.window[kCopy];
  upd.Add(wlog.window[kDelete]);
  Counts all = upd;
  all.Add(wlog.window[kXQuery]);
  const auto per = [](uint64_t n, uint64_t d) {
    return Ratio(static_cast<double>(n), static_cast<double>(d));
  };
  put("engine.stmts_per_op", per(upd.stmts, upd.ops), "stmts/op",
      "copy+delete ops in the count window");
  put("engine.rows_changed_per_op", per(upd.changed, upd.ops), "rows/op");
  put("engine.xquery_stmts_per_op",
      per(wlog.window[kXQuery].stmts, wlog.window[kXQuery].ops), "stmts/op");
  {
    const auto& seq = wlog.update_seq_ms;
    const size_t fifth = seq.size() / 5;
    double drift = 0;
    if (fifth > 0) {
      Samples first, last;
      first.v.assign(seq.begin(), seq.begin() + static_cast<long>(fifth));
      last.v.assign(seq.end() - static_cast<long>(fifth), seq.end());
      drift = Ratio(last.P50(), first.P50());
    }
    put("engine.p50_drift", drift, "ratio");
  }
  put("asr.rows", asr_rows, "rows");
  put("xquery.parse_us", wlog.parse_us.P50(), "us",
      "traced runs only (0 untraced)");

  // Statements (count window, every op kind).
  put("rdb.parses_per_stmt", per(all.parses, all.stmts), "ratio");
  put("rdb.plan_cache_hit_ratio", per(all.plan_hits, all.plan_hits + all.plans),
      "ratio");
  put("rdb.stmt_select_p50_us", HistP(hist("stmt.select"), 50, 1e-3), "us");
  put("rdb.stmt_insert_p50_us", HistP(hist("stmt.insert"), 50, 1e-3), "us");
  put("rdb.stmt_delete_p50_us", HistP(hist("stmt.delete"), 50, 1e-3), "us");
  put("rdb.stmt_update_p50_us", HistP(hist("stmt.update"), 50, 1e-3), "us");
  put("rdb.rows_scanned_per_row_changed", per(all.scanned, all.changed),
      "ratio");
  put("rdb.index_probes_per_op", per(all.probes, all.ops), "probes/op");
  put("rdb.trigger_fires_per_op", per(all.trig_fires, all.ops), "fires/op");
  put("rdb.undo_records_per_op", per(all.undo, all.ops), "records/op");
  put("rdb.txn_p50_us", HistP(hist("db.txn"), 50, 1e-3), "us");

  // Durability.
  put("rdb.wal.bytes_per_op", per(all.wal_bytes, all.ops), "B/op");
  put("rdb.wal.records_per_op", per(all.wal_appends, all.ops), "records/op");
  put("rdb.wal.commit_unit_p50_us", HistP(hist("wal.commit_unit"), 50, 1e-3),
      "us");
  put("rdb.wal.commit_unit_tail_us", HistTail(hist("wal.commit_unit"), 1e-3),
      "us");
  put("rdb.wal.fsync_p50_us", HistP(hist("wal.fsync"), 50, 1e-3), "us");
  const double fsyncs =
      static_cast<double>(stats1.wal_fsyncs - stats0.wal_fsyncs);
  put("rdb.wal.fsyncs_per_s", fsyncs / window_s, "1/s");
  const auto* units = hist("wal.commit_unit");
  put("rdb.wal.units_per_fsync",
      Ratio(units == nullptr ? 0 : static_cast<double>(units->count()), fsyncs),
      "ratio");
  put("rdb.wal.window_occupancy_pct",
      HistP(hist("wal.window_occupancy_pct"), 50, 1), "%");
  put("rdb.checkpoint_ms", HistP(hist("db.checkpoint"), 50, 1e-6), "ms");
  put("rdb.checkpoint_bytes", static_cast<double>(snapshot_bytes), "B");

  // Readers / MVCC.
  put("rdb.read.rows_examined_per_result",
      per(reads.rows_examined, reads.rows_returned), "ratio");
  put("rdb.read.index_probes", static_cast<double>(reads.index_probes),
      "probes");
  put("rdb.catalog.shared_wait_tail_us",
      HistTail(hist("catalog_lock.shared_wait"), 1e-3), "us");
  put("rdb.catalog.exclusive_wait_tail_us",
      HistTail(hist("catalog_lock.exclusive_wait"), 1e-3), "us");
  put("rdb.mvcc.epoch_lag_max", static_cast<double>(wlog.epoch_lag_max),
      "epochs");
  put("rdb.mvcc.version_rows_max", static_cast<double>(wlog.version_rows_max),
      "rows");
  put("rdb.mvcc.version_gc_rows",
      static_cast<double>(
          db->metrics().Counter("mvcc.version_gc_rows")->load() - gc0),
      "rows");
  put("gen.writer_late_p50_ms", wlog.late_ms.P50(), "ms");

  // Memory.
  put("rdb.mem.table_slabs_mb", MemMb(db, "mem.table_slabs"), "MiB");
  put("rdb.mem.version_buffers_mb", MemMb(db, "mem.version_buffers"), "MiB");
  put("rdb.mem.interner_mb", MemMb(db, "mem.interner"), "MiB");
  put("rdb.mem.undo_log_mb", MemMb(db, "mem.undo_log"), "MiB");
  put("rdb.dead_slot_ratio", Ratio(dead, capacity), "ratio");

  // Check phase.
  put("shred.reconstruct_ms", reconstruct_ms, "ms");
  put("xquery.oracle_ms", oracle_ms, "ms");
  put("engine.verify_ms", verify_ms, "ms");
  put("rdb.integrity_ms", integrity_ms, "ms");
  return out;
}

// --- output -----------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto next = [&](std::string* v) {
      if (i + 1 >= argc) return false;
      *v = argv[++i];
      return true;
    };
    std::string v;
    if (k == "--workload" && next(&v)) {
      a->workload_name = v;
      if (v == "bulk_churn") {
        a->workload = Workload::kBulkChurn;
      } else if (v == "point_durable") {
        a->workload = Workload::kPointDurable;
      } else if (v == "snapshot_read") {
        a->workload = Workload::kSnapshotRead;
      } else {
        return false;
      }
    } else if (k == "--seed" && next(&v)) {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds" && next(&v)) {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace" && next(&v)) {
      a->trace = v == "1";
    } else if (k == "--work-dir" && next(&v)) {
      a->work_dir = v;
    } else if (k == "--size" && next(&v)) {
      if (v != "tiny" && v != "full") return false;
      a->tiny = v == "tiny";
    } else if (k == "--corrupt-expected") {
      a->corrupt_expected = true;
    } else {
      return false;
    }
  }
  return !a->workload_name.empty() && !a->work_dir.empty() && a->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload bulk_churn|point_durable|"
                 "snapshot_read --seed N --seconds S --trace 0|1 --work-dir "
                 "DIR [--size full|tiny] [--corrupt-expected]\n");
    return 2;
  }
  const Config cfg = MakeConfig(args.workload, args.tiny);
  Result<RunResult> result = RunOnce(cfg, args, /*traced=*/false);
  if (result.ok() && args.trace) {
    const RunResult untraced = std::move(result).value();
    result = RunOnce(cfg, args, /*traced=*/true);
    if (result.ok()) {
      result->attempted += untraced.attempted;
      result->failed += untraced.failed;
      std::vector<SpanRecord> spans = CollectSpans();
      const std::string stem = args.work_dir + "/trace-" + args.workload_name +
                               "-" + std::to_string(args.seed);
      if (!WriteChromeTrace(spans, stem + ".json")) {
        result = Status::Internal("cannot write " + stem + ".json");
      } else {
        const std::string table = LayerTable(spans);
        std::FILE* f = std::fopen((stem + ".layers.txt").c_str(), "w");
        if (f != nullptr) {
          std::fputs(table.c_str(), f);
          std::fclose(f);
        }
        std::fputs(table.c_str(), stderr);
        Metrics& m = result->metrics;
        m["trace.overhead_pct"] = Metric{
            100.0 * (1.0 - Ratio(result->throughput, untraced.throughput)),
            "%",
            "throughput lost to span recording vs the untraced run"};
        m["trace.spans"] =
            Metric{static_cast<double>(spans.size()), "spans", ""};
      }
    }
  }
  std::error_code ec;
  fs::remove_all(args.work_dir + "/stores", ec);
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: run failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  for (const auto& [name, metric] : result->metrics) {
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   name.c_str());
      return 1;
    }
  }
  std::string json = "{";
  bool first = true;
  for (const auto& [name, metric] : result->metrics) {
    std::printf("%-40s %18.6f %-10s %s\n", name.c_str(), metric.value,
                metric.unit.c_str(), metric.note.c_str());
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  first ? "" : ",", name.c_str(), metric.value,
                  metric.unit.c_str());
    json += buf;
    first = false;
  }
  json += "}";
  std::printf("{\"correct\":true,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              static_cast<unsigned long long>(result->attempted),
              static_cast<unsigned long long>(result->failed), json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
