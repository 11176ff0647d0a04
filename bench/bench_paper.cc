// The paper's evaluation (§7) in one driver:
//
//   bench_paper <experiment|all> [runs] [size]
//
// Experiments: table1, fig6..fig11, table2, sec72, randomized, asr_size,
// orphan_scan. Timed points follow the paper's protocol: `runs` executions
// (default 5), the first discarded, each on a freshly loaded store; a point
// with no counted run reports 0. `size` trims the larger grids: the maximum
// depth of the depth sweeps (default 6) and the number of DBLP conferences
// in table2 (default 400).
//
// Every timed point prints a text line (gnuplot-friendly: method, x,
// seconds) followed by one JSON row.
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "harness.h"

using namespace xupd;
using engine::DeleteStrategy;
using engine::InsertStrategy;
using engine::RelationalStore;

namespace {

constexpr uint64_t kDocSeed = 42;
constexpr uint64_t kPickSeed = 7;
constexpr size_t kRandomSubtrees = 10;

struct Args {
  int runs = 5;
  int size = 0;  ///< 0 = each experiment's own default.
};

[[noreturn]] void Fail(const char* what, const Status& s) {
  std::fprintf(stderr, "%s failed: %s\n", what, s.ToString().c_str());
  std::exit(1);
}

void Must(const char* what, const Status& s) {
  if (!s.ok()) Fail(what, s);
}

template <typename T>
T Must(const char* what, Result<T> r) {
  if (!r.ok()) Fail(what, r.status());
  return std::move(r).value();
}

workload::GeneratedDoc Synthetic(int sf, int depth, int fanout) {
  return Must("generate",
              workload::GenerateFixedSynthetic({sf, depth, fanout}, kDocSeed));
}

RelationalStore::Options StoreOptions(DeleteStrategy del, InsertStrategy ins) {
  RelationalStore::Options options;
  options.delete_strategy = del;
  options.insert_strategy = ins;
  return options;
}

// --- timed points ------------------------------------------------------------

/// The update a point times. Random ops target kRandomSubtrees ids picked
/// once per point (loads are deterministic, so ids are stable across fresh
/// stores).
enum class Op { kBulkDelete, kRandomDelete, kBulkCopy, kRandomCopy };

const char* ToString(Op op) {
  switch (op) {
    case Op::kBulkDelete: return "bulk_delete";
    case Op::kRandomDelete: return "random_delete";
    case Op::kBulkCopy: return "bulk_copy";
    case Op::kRandomCopy: return "random_copy";
  }
  return "?";
}

bool IsRandom(Op op) { return op == Op::kRandomDelete || op == Op::kRandomCopy; }

/// One series of a point: its label and the store it runs on.
struct Method {
  std::string label;
  RelationalStore::Options options;
};

std::vector<Method> Deletes(std::initializer_list<DeleteStrategy> order) {
  std::vector<Method> out;
  for (DeleteStrategy d : order) {
    out.push_back({ToString(d), StoreOptions(d, InsertStrategy::kTable)});
  }
  return out;
}

std::vector<Method> Inserts(std::initializer_list<InsertStrategy> order) {
  std::vector<Method> out;
  for (InsertStrategy i : order) {
    out.push_back({ToString(i), StoreOptions(DeleteStrategy::kCascade, i)});
  }
  return out;
}

const std::vector<Method> kFigureDeletes =
    Deletes({DeleteStrategy::kAsr, DeleteStrategy::kPerStatementTrigger,
             DeleteStrategy::kPerTupleTrigger, DeleteStrategy::kCascade});
const std::vector<Method> kFigureInserts = Inserts(
    {InsertStrategy::kTuple, InsertStrategy::kTable, InsertStrategy::kAsr});

struct Point {
  const char* bench;  ///< JSON "bench" name.
  Op op;
  const char* x_name;
  long x;
  std::string extra_json = {};  ///< more `"key":value,` fields.
  const char* element = "n1";   ///< table the op targets.
  const char* where = "";       ///< bulk-op predicate.
  double statement_latency_us = 0;
};

void PrintColumns(const char* x_name) {
  std::printf("%-12s %8s %12s\n", "method", x_name, "time_sec");
}

void PrintJsonRow(const char* bench, const char* op, const std::string& method,
                  const char* x_name, long x, const std::string& extra_json,
                  const bench::MeasuredRuns& t) {
  std::printf(
      "{\"bench\":\"%s\",\"op\":\"%s\",\"method\":\"%s\",\"%s\":%ld,%s"
      "\"seconds\":%.6f,\"run_p50_us\":%.1f,\"run_p99_us\":%.1f,%s\n",
      bench, op, method.c_str(), x_name, x, extra_json.c_str(),
      t.avg_seconds(), t.run_ns.Percentile(50) / 1e3,
      t.run_ns.Percentile(99) / 1e3, bench::JsonTail().c_str());
}

/// Times `p.op` on `gen` under each of `methods` and prints its rows.
void RunPoint(const workload::GeneratedDoc& gen, const Point& p,
              const std::vector<Method>& methods, int runs) {
  std::vector<int64_t> picked;
  if (IsRandom(p.op)) {
    auto scratch = bench::FreshStore(
        gen, StoreOptions(DeleteStrategy::kCascade, InsertStrategy::kTable));
    picked = bench::PickRandomIds(
        Must("select ids", scratch->SelectIds(p.element, "")),
        kRandomSubtrees, kPickSeed);
  }
  auto op = [&](RelationalStore* store) {
    store->db()->set_statement_latency_us(p.statement_latency_us);
    switch (p.op) {
      case Op::kBulkDelete:
        Must("delete", store->DeleteWhere(p.element, p.where));
        break;
      case Op::kRandomDelete:
        Must("delete", store->DeleteByIds(p.element, picked));
        break;
      case Op::kBulkCopy:
        Must("copy",
             store->CopySubtreesWhere(p.element, p.where, store->root_id()));
        break;
      case Op::kRandomCopy:
        for (int64_t id : picked) {
          Must("copy", store->CopySubtree(p.element, id, store->root_id()));
        }
        break;
    }
  };
  for (const Method& m : methods) {
    bench::MeasuredRuns t =
        bench::MeasureOnFreshStores(gen, m.options, op, runs);
    std::printf("%-12s %8ld %12.6f\n", m.label.c_str(), p.x, t.avg_seconds());
    PrintJsonRow(p.bench, ToString(p.op), m.label, p.x_name, p.x,
                 p.extra_json, t);
  }
}

// --- figures 6-11 ------------------------------------------------------------

/// The x axis of a figure: the scaling-factor sweep at depth 8, fanout 1,
/// or the depth sweep at sf 100, fanout 4 (the document grows
/// exponentially in depth; the paper plots a log y axis).
enum class Axis { kSf, kDepth };

struct Figure {
  const char* name;
  const char* bench;
  const char* title;
  Axis axis;
  Op op;
};

const Figure kFigures[] = {
    {"fig6", "fig6_delete_bulk_sf",
     "Figure 6: delete, bulk workload, fanout=1 depth=8 (time vs sf)",
     Axis::kSf, Op::kBulkDelete},
    {"fig7", "fig7_delete_random_sf",
     "Figure 7: delete, random workload (10 subtrees), fanout=1 depth=8",
     Axis::kSf, Op::kRandomDelete},
    {"fig8", "fig8_delete_bulk_depth",
     "Figure 8: delete, bulk workload, sf=100 fanout=4 (time vs depth)",
     Axis::kDepth, Op::kBulkDelete},
    {"fig9", "fig9_delete_random_depth",
     "Figure 9: delete, random workload (10 subtrees), sf=100 fanout=4",
     Axis::kDepth, Op::kRandomDelete},
    {"fig10", "fig10_insert_bulk_depth",
     "Figure 10: insert (subtree copy), bulk workload, sf=100 fanout=4",
     Axis::kDepth, Op::kBulkCopy},
    {"fig11", "fig11_insert_random_depth",
     "Figure 11: insert (subtree copy), random workload (10 subtrees), "
     "sf=100 fanout=4",
     Axis::kDepth, Op::kRandomCopy},
};

void RunFigure(const Figure& f, const Args& args) {
  const int max_depth = args.size > 0 ? args.size : 6;
  const bool deletes = f.op == Op::kBulkDelete || f.op == Op::kRandomDelete;
  const char* x_name = f.axis == Axis::kSf ? "sf" : "depth";
  std::vector<int> xs;
  if (f.axis == Axis::kSf) {
    xs = {100, 200, 400, 800};
  } else {
    for (int depth = 1; depth <= max_depth; ++depth) xs.push_back(depth);
  }
  std::printf("# %s\n", f.title);
  PrintColumns(x_name);
  for (int x : xs) {
    workload::GeneratedDoc gen =
        f.axis == Axis::kSf ? Synthetic(x, 8, 1) : Synthetic(100, x, 4);
    RunPoint(gen, {f.bench, f.op, x_name, x},
             deletes ? kFigureDeletes : kFigureInserts, args.runs);
  }
  if (deletes) return;

  // insert_batch_size sweep: the tuple strategy is the batching-sensitive
  // path; sweep it at a representative depth so the default is picked from
  // data.
  const int depth = max_depth < 4 ? max_depth : 4;
  workload::GeneratedDoc gen = Synthetic(100, depth, 4);
  std::printf("## insert_batch_size sweep, tuple method, depth=%d\n", depth);
  PrintColumns("batch");
  const std::string extra = "\"sweep\":\"insert_batch_size\",\"depth\":" +
                            std::to_string(depth) + ",\"sf\":100,";
  for (int batch : {1, 16, 64, 256}) {
    Method tuple{"tuple", StoreOptions(DeleteStrategy::kCascade,
                                       InsertStrategy::kTuple)};
    tuple.options.insert_batch_size = batch;
    RunPoint(gen, {f.bench, f.op, "batch", batch, extra}, {tuple}, args.runs);
  }
}

// --- table 2 and the randomized check ---------------------------------------

/// Table 2 on the DBLP-like document: delete every publication of year 2000
/// under each delete method, and copy 10 random conference subtrees under
/// each insert method, once on the raw engine and once with a simulated
/// per-statement round trip.
void RunTable2(const Args& args) {
  workload::DblpSpec spec;
  spec.conferences = args.size > 0 ? args.size : 400;
  workload::GeneratedDoc gen =
      Must("generate", workload::GenerateDblp(spec, kDocSeed));
  std::printf("# Table 2: DBLP-like data (%zu tuples)\n", gen.tuple_count);
  for (double latency_us : {0.0, 500.0}) {
    const char* regime =
        latency_us > 0
            ? "statement_latency = 500 us (simulated JDBC/DB2 round trip)"
            : "statement_latency = 0 us (raw in-process engine)";
    const long x = static_cast<long>(latency_us);
    Point del{"table2_dblp", Op::kBulkDelete, "latency_us", x};
    del.element = "publication";
    del.where = "year = '2000'";
    del.statement_latency_us = latency_us;
    std::printf("## delete year-2000 publications, %s\n", regime);
    PrintColumns("latency_us");
    RunPoint(gen, del,
             Deletes({DeleteStrategy::kPerTupleTrigger,
                      DeleteStrategy::kPerStatementTrigger,
                      DeleteStrategy::kCascade, DeleteStrategy::kAsr}),
             args.runs);
    Point ins{"table2_dblp", Op::kRandomCopy, "latency_us", x};
    ins.element = "conference";
    ins.statement_latency_us = latency_us;
    std::printf("## copy 10 random conferences, %s\n", regime);
    PrintColumns("latency_us");
    RunPoint(gen, ins,
             Inserts({InsertStrategy::kAsr, InsertStrategy::kTable,
                      InsertStrategy::kTuple}),
             args.runs);
  }
}

/// §7.3: the delete-method ranking carries over to documents with
/// randomized structure (depth ~ U[2,5], fanout ~ U[1,4]) — per-tuple wins
/// the random workload and sits slightly below per-stm on the bulk one.
void RunRandomized(const Args& args) {
  const int sf = 200;
  workload::GeneratedDoc gen = Must(
      "generate", workload::GenerateRandomizedSynthetic({sf, 5, 4}, kDocSeed));
  std::printf("# Randomized synthetic documents (%zu tuples), delete methods\n",
              gen.tuple_count);
  std::printf("## bulk workload\n");
  PrintColumns("sf");
  RunPoint(gen, {"randomized_synthetic", Op::kBulkDelete, "sf", sf},
           kFigureDeletes, args.runs);
  std::printf("## random workload (10 subtrees)\n");
  PrintColumns("sf");
  RunPoint(gen, {"randomized_synthetic", Op::kRandomDelete, "sf", sf},
           kFigureDeletes, args.runs);
}

// --- §7.2 path queries -------------------------------------------------------

/// §7.2: the conventional plan (a chain of parentId joins along the path)
/// against the ASR plan (filtered leaf x ASR x start table), for path
/// lengths 3..5 and fanouts 1 and 4. With fanout 4 the ASR is large (one
/// row per full path) and loses on short paths; with small fanout or long
/// paths it wins.
void RunSec72(const Args& args) {
  std::printf("# Section 7.2: path-expression evaluation, joins vs ASR\n");
  std::printf("%-7s %-9s %10s %12s %12s %10s\n", "fanout", "path_len",
              "asr_rows", "joins_sec", "asr_sec", "asr_wins");
  for (int fanout : {1, 4}) {
    workload::GeneratedDoc gen = Synthetic(100, 6, fanout);
    RelationalStore::Options options;
    options.build_asr = true;
    auto store = bench::FreshStore(gen, options);
    const size_t asr_rows = store->db()->FindTable("asr")->live_count();
    for (int path_len : {3, 4, 5}) {
      // Path n1 -> n<path_len>; filter on the leaf's integer value column.
      const std::string n = std::to_string(path_len);
      const std::string leaf = "n" + n;
      const std::string joins_pred = "l0.v" + n + " < '200000'";
      const std::string asr_pred = "l.v" + n + " < '200000'";
      bench::MeasuredRuns joins, asr;
      for (int r = 0; r < args.runs; ++r) {
        Stopwatch sw;
        auto a = Must("joins plan",
                      store->PathQueryJoins("n1", leaf, joins_pred));
        const double tj = sw.ElapsedSeconds();
        sw.Restart();
        auto b = Must("asr plan", store->PathQueryAsr("n1", leaf, asr_pred));
        const double ta = sw.ElapsedSeconds();
        if (a != b) {
          std::fprintf(stderr, "plan results differ!\n");
          std::exit(1);
        }
        if (r > 0) {
          joins.Add(tj);
          asr.Add(ta);
        }
      }
      std::printf("%-7d %-9d %10zu %12.6f %12.6f %10s\n", fanout, path_len,
                  asr_rows, joins.avg_seconds(), asr.avg_seconds(),
                  asr.avg_seconds() < joins.avg_seconds() ? "yes" : "no");
      const std::string extra = "\"fanout\":" + std::to_string(fanout) +
                                ",\"asr_rows\":" + std::to_string(asr_rows) +
                                ",";
      PrintJsonRow("sec72_asr_paths", "path_query", "joins", "path_len",
                   path_len, extra, joins);
      PrintJsonRow("sec72_asr_paths", "path_query", "asr", "path_len",
                   path_len, extra, asr);
    }
  }
}

// --- untimed tables ----------------------------------------------------------

size_t ApproxBytes(RelationalStore* store) {
  size_t bytes = 0;
  for (const auto& name : store->db()->TableNames()) {
    const rdb::Table* t = store->db()->FindTable(name);
    for (size_t r = 0; r < t->capacity(); ++r) {
      if (!t->is_live(r)) continue;
      for (const rdb::Value& v : t->row_span(r)) {
        bytes += v.type() == rdb::ValueType::kString ? v.AsString().size() + 8
                                                     : 8;
      }
    }
  }
  return bytes;
}

/// Table 1: the synthetic-document parameter grid with tuple counts (closed
/// form and after shredding) and approximate stored bytes.
void RunTable1(const Args&) {
  auto report = [](const char* family, int sf, int d, int f) {
    workload::GeneratedDoc gen = Synthetic(sf, d, f);
    auto store = bench::FreshStore(
        gen, StoreOptions(DeleteStrategy::kCascade, InsertStrategy::kTable));
    std::printf("%-18s sf=%-4d d=%d f=%d  tuples=%-8zu (closed form %-8zu)  "
                "~%.2f MB\n",
                family, sf, d, f, gen.tuple_count,
                workload::FixedSyntheticTupleCount({sf, d, f}),
                static_cast<double>(ApproxBytes(store.get())) /
                    (1024.0 * 1024.0));
  };
  std::printf("# Table 1: synthetic data configurations and data sizes\n");
  // fixed fanout (f=1): depth 2,4,8 x sf 100..800; max 6400 tuples (0.8MB).
  for (int d : {2, 4, 8}) {
    for (int sf : {100, 200, 400, 800}) report("fixed-fanout", sf, d, 1);
  }
  // fixed depth (d=2): fanout 1,2,4,8 x sf 100..800; max 7200 tuples.
  for (int f : {1, 2, 4, 8}) {
    for (int sf : {100, 200, 400, 800}) report("fixed-depth", sf, 2, f);
  }
  // fixed sf (=100): depth 2..5 x fanout 2,4,8 — capped as in the paper
  // (58500 tuples / 7MB max, i.e. excluding blow-up combos).
  for (int d : {2, 3, 4, 5}) {
    for (int f : {2, 4, 8}) {
      if (workload::FixedSyntheticTupleCount({100, d, f}) > 60000) continue;
      report("fixed-sf", 100, d, f);
    }
  }
}

/// Ablation: ASR growth with fanout. §7.2 reason 2 for the ASR's poor
/// showing: "with larger fanouts, the ASR relation quickly becomes very
/// large, since it contains a tuple for each full path in the XML tree."
void RunAsrSize(const Args&) {
  std::printf("# Ablation: ASR size and build cost vs fanout (sf=100, d=5)\n");
  std::printf("%-7s %12s %12s %14s\n", "fanout", "data_rows", "asr_rows",
              "build_sec");
  for (int fanout : {1, 2, 4, 8}) {
    workload::GeneratedDoc gen = Synthetic(100, 5, fanout);
    RelationalStore::Options options;
    options.build_asr = true;
    Stopwatch sw;
    auto store = bench::FreshStore(gen, options);
    const double build = sw.ElapsedSeconds();
    std::printf("%-7d %12zu %12zu %14.6f\n", fanout, gen.tuple_count,
                store->db()->FindTable("asr")->live_count(), build);
  }
}

/// Ablation: the per-statement trigger's orphan sweep scans the entire
/// child relation, so its cost grows with document size even when the
/// delete touches a constant number of tuples — the mechanism behind
/// Figure 7's rising per-stm curve (vs the flat per-tuple curve).
void RunOrphanScan(const Args& args) {
  std::printf("# Ablation: rows scanned per single-subtree delete vs sf\n");
  std::printf("%-12s %8s %14s %14s\n", "method", "sf", "rows_scanned",
              "index_probes");
  for (int sf : {100, 200, 400, 800}) {
    workload::GeneratedDoc gen = Synthetic(sf, 8, 1);
    for (DeleteStrategy method : {DeleteStrategy::kPerTupleTrigger,
                                  DeleteStrategy::kPerStatementTrigger}) {
      uint64_t scanned = 0, probes = 0;
      for (int r = 0; r < args.runs; ++r) {
        auto store = bench::FreshStore(
            gen, StoreOptions(method, InsertStrategy::kTable));
        auto ids = Must("select ids", store->SelectIds("n1", ""));
        rdb::Stats before = store->stats();
        Must("delete", store->DeleteByIds("n1", {ids.front()}));
        rdb::Stats delta = store->stats().Delta(before);
        scanned = delta.rows_scanned;
        probes = delta.index_probes;
      }
      std::printf("%-12s %8d %14llu %14llu\n", ToString(method), sf,
                  static_cast<unsigned long long>(scanned),
                  static_cast<unsigned long long>(probes));
    }
  }
}

struct Experiment {
  std::string name;
  std::function<void(const Args&)> run;
};

std::vector<Experiment> Experiments() {
  std::vector<Experiment> out = {{"table1", RunTable1}};
  for (const Figure& f : kFigures) {
    out.push_back({f.name, [&f](const Args& a) { RunFigure(f, a); }});
  }
  out.push_back({"table2", RunTable2});
  out.push_back({"sec72", RunSec72});
  out.push_back({"randomized", RunRandomized});
  out.push_back({"asr_size", RunAsrSize});
  out.push_back({"orphan_scan", RunOrphanScan});
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<Experiment> experiments = Experiments();
  const std::string which = argc > 1 ? argv[1] : "";
  Args args;
  if (argc > 2) args.runs = std::atoi(argv[2]);
  if (argc > 3) args.size = std::atoi(argv[3]);
  bool ran = false;
  for (const Experiment& e : experiments) {
    if (which != "all" && which != e.name) continue;
    if (ran) std::printf("\n");
    e.run(args);
    ran = true;
  }
  if (!ran) {
    std::fprintf(stderr, "usage: %s <experiment|all> [runs] [size]\n",
                 argv[0]);
    std::fprintf(stderr, "experiments:");
    for (const Experiment& e : experiments) {
      std::fprintf(stderr, " %s", e.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  return 0;
}
