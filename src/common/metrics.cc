#include "common/metrics.h"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>

namespace xupd {

double Histogram::Percentile(double p) const {
  const uint64_t total = count();
  if (total == 0) return 0;
  if (p <= 0) return static_cast<double>(min());
  if (p >= 100) return static_cast<double>(max());
  // Rank of the target sample, 1-based; ceil so p=50 over 2 samples picks
  // the first.
  const double rank = p / 100.0 * static_cast<double>(total);
  uint64_t seen = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    const uint64_t n =
        buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
    if (n == 0) continue;
    if (static_cast<double>(seen + n) >= rank) {
      // Interpolate linearly inside the bucket by how far the rank sits
      // among its samples.
      const double frac =
          (rank - static_cast<double>(seen)) / static_cast<double>(n);
      const double v = static_cast<double>(BucketLowerBound(i)) +
                       frac * static_cast<double>(BucketWidth(i));
      return std::clamp(v, static_cast<double>(min()),
                        static_cast<double>(max()));
    }
    seen += n;
  }
  return static_cast<double>(max());
}

void Histogram::Merge(const Histogram& other) {
  if (other.count() == 0) return;
  for (int i = 0; i < kBucketCount; ++i) {
    buckets_[static_cast<size_t>(i)].fetch_add(
        other.buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  const uint64_t omin = other.min_.load(std::memory_order_relaxed);
  uint64_t m = min_.load(std::memory_order_relaxed);
  while (omin < m &&
         !min_.compare_exchange_weak(m, omin, std::memory_order_relaxed)) {
  }
  const uint64_t omax = other.max_.load(std::memory_order_relaxed);
  m = max_.load(std::memory_order_relaxed);
  while (omax > m &&
         !max_.compare_exchange_weak(m, omax, std::memory_order_relaxed)) {
  }
  count_.fetch_add(other.count(), std::memory_order_relaxed);
  sum_.fetch_add(other.sum(), std::memory_order_relaxed);
}

namespace trace {
namespace {

// Dense thread ids start at 1; track names live in a fixed global table so
// naming and lookup never allocate. Threads beyond the table stay unnamed
// (they still trace, their track is just called "thread-<tid>").
constexpr uint32_t kMaxNamedTids = 256;
std::atomic<uint32_t> g_next_tid{1};
std::atomic<uint64_t> g_next_span_id{1};
std::array<std::atomic<const char*>, kMaxNamedTids> g_thread_names{};
thread_local uint32_t t_tid = 0;
thread_local Context t_context;

}  // namespace

uint32_t CurrentTid() {
  if (t_tid == 0) t_tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return t_tid;
}

void SetCurrentThreadName(const char* name) {
  const uint32_t tid = CurrentTid();
  if (tid < kMaxNamedTids) {
    g_thread_names[tid].store(name, std::memory_order_release);
  }
}

const char* ThreadName(uint32_t tid) {
  if (tid >= kMaxNamedTids) return nullptr;
  return g_thread_names[tid].load(std::memory_order_acquire);
}

uint64_t NextSpanId() {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

Context& CurrentContext() { return t_context; }

}  // namespace trace

const char* ToString(TraceEvent::Kind kind) {
  switch (kind) {
    case TraceEvent::Kind::kStatement: return "statement";
    case TraceEvent::Kind::kTxn: return "txn";
    case TraceEvent::Kind::kWalUnit: return "wal_unit";
    case TraceEvent::Kind::kFsync: return "fsync";
    case TraceEvent::Kind::kCheckpoint: return "checkpoint";
    case TraceEvent::Kind::kRecovery: return "recovery";
    case TraceEvent::Kind::kScrub: return "scrub";
    case TraceEvent::Kind::kEngineOp: return "engine_op";
    case TraceEvent::Kind::kGovernance: return "governance";
  }
  return "unknown";
}

void EventLog::Record(const TraceEvent& e) {
  TraceEvent ev = e;
  // The sequence is stamped atomically BEFORE taking the ring lock, so it
  // reflects arrival order even when threads then race into slots; dumps
  // sort by it.
  ev.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  if (ev.tid == 0) ev.tid = trace::CurrentTid();
  if (ev.span_id == 0) {
    const trace::Context& ctx = trace::CurrentContext();
    ev.span_id = trace::NextSpanId();
    if (ev.parent_span_id == 0) ev.parent_span_id = ctx.span_id;
    if (ev.trace_id == 0) {
      ev.trace_id = ctx.trace_id != 0 ? ctx.trace_id : ev.span_id;
    }
  } else if (ev.trace_id == 0) {
    ev.trace_id = ev.span_id;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.empty()) return;
  if (size_ == ring_.size()) {
    ring_[head_] = ev;
    head_ = (head_ + 1) % ring_.size();
    ++dropped_;
  } else {
    ring_[(head_ + size_) % ring_.size()] = ev;
    ++size_;
  }
}

std::vector<TraceEvent> EventLog::Events() const {
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(size_);
    for (size_t i = 0; i < size_; ++i) {
      out.push_back(ring_[(head_ + i) % ring_.size()]);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.seq < b.seq;
            });
  return out;
}

std::vector<std::string> EventLog::ToJsonLines() const {
  const std::vector<TraceEvent> events = Events();
  std::vector<std::string> out;
  out.reserve(events.size());
  char buf[384];
  for (const TraceEvent& e : events) {
    int n = std::snprintf(
        buf, sizeof buf,
        "{\"kind\":\"%s\",\"start_ns\":%" PRIu64 ",\"duration_ns\":%" PRIu64
        ",\"a\":%" PRIu64 ",\"b\":%" PRIu64 ",\"tid\":%" PRIu32
        ",\"seq\":%" PRIu64 ",\"trace_id\":%" PRIu64 ",\"span_id\":%" PRIu64
        ",\"parent_span_id\":%" PRIu64 "%s%s%s}",
        ToString(e.kind), e.start_ns, e.duration_ns, e.a, e.b, e.tid, e.seq,
        e.trace_id, e.span_id, e.parent_span_id,
        e.detail != nullptr ? ",\"detail\":\"" : "",
        e.detail != nullptr ? e.detail : "", e.detail != nullptr ? "\"" : "");
    out.emplace_back(buf, static_cast<size_t>(std::max(n, 0)));
  }
  return out;
}

std::string EventLog::DumpJson() const {
  std::string out = "[";
  bool first = true;
  for (std::string& line : ToJsonLines()) {
    if (!first) out += ',';
    first = false;
    out += line;
  }
  out += ']';
  return out;
}

std::string EventLog::ChromeTrace(const std::vector<TraceEvent>& events) {
  std::string out = "{\"traceEvents\":[";
  char buf[512];
  bool first = true;
  auto append = [&](int n) {
    if (!first) out += ',';
    first = false;
    out.append(buf, static_cast<size_t>(std::max(n, 0)));
  };

  // One metadata event names each distinct track. Tids are small dense
  // ints, so a sorted set keeps the output deterministic.
  std::vector<uint32_t> tids;
  for (const TraceEvent& e : events) tids.push_back(e.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  for (uint32_t tid : tids) {
    const char* name = trace::ThreadName(tid);
    char fallback[32];
    if (name == nullptr) {
      std::snprintf(fallback, sizeof fallback, "thread-%" PRIu32, tid);
      name = fallback;
    }
    append(std::snprintf(buf, sizeof buf,
                         "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                         "\"tid\":%" PRIu32 ",\"args\":{\"name\":\"%s\"}}",
                         tid, name));
  }

  // Complete ("X") duration events, ts/dur in microseconds.
  for (const TraceEvent& e : events) {
    append(std::snprintf(
        buf, sizeof buf,
        "{\"name\":\"%s\",\"cat\":\"xupd\",\"ph\":\"X\",\"ts\":%.3f,"
        "\"dur\":%.3f,\"pid\":1,\"tid\":%" PRIu32
        ",\"args\":{\"seq\":%" PRIu64 ",\"trace_id\":%" PRIu64
        ",\"span_id\":%" PRIu64 ",\"parent_span_id\":%" PRIu64
        ",\"a\":%" PRIu64 ",\"b\":%" PRIu64 "%s%s%s}}",
        ToString(e.kind), static_cast<double>(e.start_ns) / 1e3,
        static_cast<double>(e.duration_ns) / 1e3, e.tid, e.seq, e.trace_id,
        e.span_id, e.parent_span_id, e.a, e.b,
        e.detail != nullptr ? ",\"detail\":\"" : "",
        e.detail != nullptr ? e.detail : "", e.detail != nullptr ? "\"" : ""));
  }

  // Flow arrows for every parent→child edge that crosses threads. The
  // arrow is keyed by the child's span id; the start point is clamped into
  // the parent slice so chrome://tracing binds it.
  std::map<uint64_t, const TraceEvent*> by_span;
  for (const TraceEvent& e : events) by_span[e.span_id] = &e;
  for (const TraceEvent& e : events) {
    if (e.parent_span_id == 0) continue;
    auto it = by_span.find(e.parent_span_id);
    if (it == by_span.end()) continue;
    const TraceEvent& parent = *it->second;
    if (parent.tid == e.tid) continue;
    const uint64_t parent_end = parent.start_ns + parent.duration_ns;
    const uint64_t s_ns = std::min(parent_end, e.start_ns);
    append(std::snprintf(buf, sizeof buf,
                         "{\"name\":\"handoff\",\"cat\":\"flow\",\"ph\":\"s\","
                         "\"id\":%" PRIu64 ",\"ts\":%.3f,\"pid\":1,"
                         "\"tid\":%" PRIu32 "}",
                         e.span_id, static_cast<double>(s_ns) / 1e3,
                         parent.tid));
    append(std::snprintf(buf, sizeof buf,
                         "{\"name\":\"handoff\",\"cat\":\"flow\",\"ph\":\"f\","
                         "\"bp\":\"e\",\"id\":%" PRIu64 ",\"ts\":%.3f,"
                         "\"pid\":1,\"tid\":%" PRIu32 "}",
                         e.span_id, static_cast<double>(e.start_ns) / 1e3,
                         e.tid));
  }

  out += "]}";
  return out;
}

std::atomic<uint64_t>* MetricsRegistry::Counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::make_unique<std::atomic<uint64_t>>(0))
             .first;
  }
  return it->second.get();
}

std::atomic<int64_t>* MetricsRegistry::Gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      std::make_unique<std::atomic<int64_t>>(0))
             .first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

const Histogram* MetricsRegistry::FindHistogram(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  return it != histograms_.end() ? it->second.get() : nullptr;
}

std::string MetricsRegistry::ExportText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  char buf[160];
  for (const auto& [name, value] : counters_) {
    std::snprintf(buf, sizeof buf, "%s %" PRIu64 "\n", name.c_str(),
                  value->load(std::memory_order_relaxed));
    out += buf;
  }
  for (const auto& [name, value] : gauges_) {
    std::snprintf(buf, sizeof buf, "%s %" PRId64 "\n", name.c_str(),
                  value->load(std::memory_order_relaxed));
    out += buf;
  }
  for (const auto& [name, hist] : histograms_) {
    const HistogramSnapshot s = hist->Snapshot();
    std::snprintf(buf, sizeof buf,
                  "%s.count %" PRIu64 "\n%s.p50 %.0f\n%s.p95 %.0f\n"
                  "%s.p99 %.0f\n%s.max %" PRIu64 "\n%s.sum %" PRIu64 "\n",
                  name.c_str(), s.count, name.c_str(), s.p50, name.c_str(),
                  s.p95, name.c_str(), s.p99, name.c_str(), s.max,
                  name.c_str(), s.sum);
    out += buf;
  }
  return out;
}

std::string MetricsRegistry::ExportJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"counters\":{";
  char buf[200];
  bool first = true;
  for (const auto& [name, value] : counters_) {
    std::snprintf(buf, sizeof buf, "%s\"%s\":%" PRIu64, first ? "" : ",",
                  name.c_str(), value->load(std::memory_order_relaxed));
    out += buf;
    first = false;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges_) {
    std::snprintf(buf, sizeof buf, "%s\"%s\":%" PRId64, first ? "" : ",",
                  name.c_str(), value->load(std::memory_order_relaxed));
    out += buf;
    first = false;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    const HistogramSnapshot s = hist->Snapshot();
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\":{\"count\":%" PRIu64 ",\"sum\":%" PRIu64
                  ",\"min\":%" PRIu64 ",\"max\":%" PRIu64
                  ",\"p50\":%.1f,\"p95\":%.1f,\"p99\":%.1f}",
                  first ? "" : ",", name.c_str(), s.count, s.sum, s.min, s.max,
                  s.p50, s.p95, s.p99);
    out += buf;
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace xupd
