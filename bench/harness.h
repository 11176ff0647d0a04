// Shared benchmark harness following the paper's protocol (§7): each point
// is the average of 5 runs with the first run discarded; every run operates
// on a freshly loaded store (loading is not timed).
#ifndef XUPD_BENCH_HARNESS_H_
#define XUPD_BENCH_HARNESS_H_

#include <sys/resource.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "engine/store.h"
#include "workload/synthetic.h"

namespace xupd::bench {

/// Percentile summary of an engine latency histogram (samples are
/// nanoseconds; reported in microseconds for bench JSON rows).
struct LatencySummary {
  uint64_t count = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  double max_us = 0;
};

inline LatencySummary Summarize(const Histogram& h) {
  LatencySummary s;
  s.count = h.count();
  s.p50_us = h.Percentile(50) / 1000.0;
  s.p95_us = h.Percentile(95) / 1000.0;
  s.p99_us = h.Percentile(99) / 1000.0;
  s.max_us = static_cast<double>(h.max()) / 1000.0;
  return s;
}

/// Per-point measurement under the paper protocol: the counted runs' wall
/// times, as an average plus a per-run histogram so JSON rows can carry
/// median/tail columns. Zero counted runs average 0, never NaN.
struct MeasuredRuns {
  double total_seconds = 0;
  Histogram run_ns;  ///< one sample per counted run.
  void Add(double seconds) {
    total_seconds += seconds;
    run_ns.Record(static_cast<uint64_t>(seconds * 1e9));
  }
  double avg_seconds() const {
    return run_ns.count() > 0
               ? total_seconds / static_cast<double>(run_ns.count())
               : 0.0;
  }
};

/// Peak resident set size of this process so far, in KiB (ru_maxrss is KiB
/// on Linux). Emitted into bench JSON rows so memory regressions of the
/// storage layer are as visible as time regressions. It is the process
/// high-water mark: a binary that runs several experiments in one process
/// (`bench_paper all`) carries each experiment's peak into the next.
inline long PeakRssKb() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return ru.ru_maxrss;
}

/// Common trailing fields for bench JSON rows: the number of concurrently
/// executing worker threads the row measured (1 = the paper's single-
/// threaded protocol; concurrent-reader benches report their fan-out),
/// the Value footprint, and peak RSS. Returns the closing "}" too.
inline std::string JsonTail(int threads = 1) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "\"threads\":%d,\"sizeof_value\":%zu,\"peak_rss_kb\":%ld}",
                threads, sizeof(rdb::Value), PeakRssKb());
  return buf;
}

/// Builds a fresh store with explicit options over `gen` and loads it.
inline std::unique_ptr<engine::RelationalStore> FreshStore(
    const workload::GeneratedDoc& gen,
    const engine::RelationalStore::Options& options) {
  auto store = engine::RelationalStore::Create(gen.dtd, options);
  if (!store.ok()) {
    std::fprintf(stderr, "store create failed: %s\n",
                 store.status().ToString().c_str());
    std::abort();
  }
  Status s = store.value()->Load(*gen.doc);
  if (!s.ok()) {
    std::fprintf(stderr, "store load failed: %s\n", s.ToString().c_str());
    std::abort();
  }
  return std::move(store).value();
}

/// Measures `op` on fresh stores built with `store_options`: `runs`
/// executions, the first discarded; loading is not timed.
inline MeasuredRuns MeasureOnFreshStores(
    const workload::GeneratedDoc& gen,
    const engine::RelationalStore::Options& store_options,
    const std::function<void(engine::RelationalStore*)>& op, int runs) {
  MeasuredRuns out;
  for (int r = 0; r < runs; ++r) {
    auto store = FreshStore(gen, store_options);
    Stopwatch sw;
    op(store.get());
    double t = sw.ElapsedSeconds();
    if (r > 0) out.Add(t);
  }
  return out;
}

/// Selects `n` deterministic "random" subtree ids from the given list.
inline std::vector<int64_t> PickRandomIds(const std::vector<int64_t>& ids,
                                          size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> pool = ids;
  std::vector<int64_t> out;
  while (out.size() < n && !pool.empty()) {
    size_t i = rng.Uniform(pool.size());
    out.push_back(pool[i]);
    pool.erase(pool.begin() + static_cast<ptrdiff_t>(i));
  }
  return out;
}

}  // namespace xupd::bench

#endif  // XUPD_BENCH_HARNESS_H_
