// Engine-wide observability primitives: a monotonic clock, log-bucketed
// latency histograms, a registry of named counters/gauges/histograms, and a
// fixed-size ring buffer of structured trace events.
//
// The paper's argument is experimental — figs. 6-11 attribute update cost
// to strategy choices — so the engine must be able to say *where time went*,
// not just how often things happened (that is rdb/stats.h's job). Everything
// here is built to be always-on: recording a histogram sample is one clock
// read plus one bucket increment, and recording a trace event is a struct
// copy into a preallocated ring. Nothing allocates on the hot path.
//
// Thread safety: the multi-threaded engine (epoch-snapshot readers, the
// group-commit flusher, the background checkpointer) records into these
// primitives from several threads at once. Histogram::Record and registry
// counters/gauges are relaxed atomics — concurrent Record() calls never
// tear, though a reader taking a snapshot mid-burst may observe a count
// that is ahead of the matching bucket (monotonic, eventually consistent).
// EventLog is mutex-guarded (Record is rare enough that a lock beats the
// complexity of a lock-free ring). MetricsRegistry's get-or-create maps are
// mutex-guarded; the returned pointers stay valid for the registry's
// lifetime and are themselves atomic, so hot paths still touch plain
// memory after a one-time lookup.
#ifndef XUPD_COMMON_METRICS_H_
#define XUPD_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace xupd {

/// Nanoseconds on the monotonic clock. All histogram samples and event
/// timestamps use this time base; it is not wall time.
inline uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Point-in-time summary of a Histogram. Percentiles are interpolated
/// within the matching bucket and clamped to the observed [min, max].
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

/// Log-linear latency histogram (HdrHistogram-style): values below 16 get
/// exact unit buckets; above that, each power-of-two octave is split into
/// 16 linear sub-buckets, so relative error is bounded at ~6% across the
/// full uint64 range. Record() is one std::bit_width plus one relaxed
/// atomic increment, safe to call from any thread. Readers (Percentile,
/// Snapshot, Merge, copy) take a racy-but-untorn view: each word is loaded
/// atomically, so concurrent recording can skew a snapshot by at most the
/// in-flight samples.
///
/// Samples are dimensionless; engine call sites record nanoseconds.
class Histogram {
 public:
  static constexpr int kSubBits = 4;                       // 16 sub-buckets
  static constexpr int kSubCount = 1 << kSubBits;          // per octave
  static constexpr int kFirstOctave = kSubBits;            // values >= 16
  static constexpr int kLastOctave = 63;
  static constexpr int kBucketCount =
      kSubCount + (kLastOctave - kFirstOctave + 1) * kSubCount;

  Histogram() = default;
  Histogram(const Histogram& other) { CopyFrom(other); }
  Histogram& operator=(const Histogram& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }

  /// Bucket index for a value. Deterministic and exposed for tests:
  /// BucketIndex(v) == v for v < 16; BucketIndex(32) starts a new octave.
  static int BucketIndex(uint64_t value) {
    if (value < kSubCount) return static_cast<int>(value);
    const int octave = std::bit_width(value) - 1;  // >= kFirstOctave
    const int shift = octave - kSubBits;
    const int sub = static_cast<int>((value >> shift) - kSubCount);
    return kSubCount + (octave - kFirstOctave) * kSubCount + sub;
  }

  /// Smallest value mapping to bucket `index`.
  static uint64_t BucketLowerBound(int index) {
    if (index < kSubCount) return static_cast<uint64_t>(index);
    const int rel = index - kSubCount;
    const int octave = rel / kSubCount + kFirstOctave;
    const int sub = rel % kSubCount;
    const int shift = octave - kSubBits;
    return static_cast<uint64_t>(kSubCount + sub) << shift;
  }

  /// Width of bucket `index` (1 for the exact range).
  static uint64_t BucketWidth(int index) {
    if (index < kSubCount) return 1;
    const int octave = (index - kSubCount) / kSubCount + kFirstOctave;
    return uint64_t{1} << (octave - kSubBits);
  }

  void Record(uint64_t value) {
    buckets_[static_cast<size_t>(BucketIndex(value))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t m = min_.load(std::memory_order_relaxed);
    while (value < m &&
           !min_.compare_exchange_weak(m, value, std::memory_order_relaxed)) {
    }
    m = max_.load(std::memory_order_relaxed);
    while (value > m &&
           !max_.compare_exchange_weak(m, value, std::memory_order_relaxed)) {
    }
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t min() const {
    const uint64_t m = min_.load(std::memory_order_relaxed);
    return m == kNoMin ? 0 : m;
  }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }

  /// Value at percentile `p` in [0, 100]: linear interpolation inside the
  /// bucket holding the p-th sample, clamped to [min, max] so single-sample
  /// and narrow distributions report exact observed values. Returns 0 when
  /// empty.
  double Percentile(double p) const;

  /// Adds every bucket (and count/sum/min/max) of `other` into this.
  void Merge(const Histogram& other);

  void Reset() { *this = Histogram{}; }

  HistogramSnapshot Snapshot() const {
    HistogramSnapshot s;
    s.count = count();
    s.sum = sum();
    s.min = min();
    s.max = max();
    s.p50 = Percentile(50);
    s.p95 = Percentile(95);
    s.p99 = Percentile(99);
    return s;
  }

 private:
  static constexpr uint64_t kNoMin = UINT64_MAX;  // min_ when empty.

  void CopyFrom(const Histogram& other) {
    for (int i = 0; i < kBucketCount; ++i) {
      buckets_[static_cast<size_t>(i)].store(
          other.buckets_[static_cast<size_t>(i)].load(
              std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    count_.store(other.count_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    sum_.store(other.sum_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
    min_.store(other.min_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
    max_.store(other.max_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  }

  std::array<std::atomic<uint64_t>, kBucketCount> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{kNoMin};
  std::atomic<uint64_t> max_{0};
};

/// One structured trace event: a timestamped span with two numeric payload
/// slots whose meaning depends on the kind (see the kind comments).
/// `detail` must point at a string literal or other static storage — the
/// ring never copies it, which keeps Record() allocation-free.
///
/// Causal identity (PR 9): every recorded event carries the recording
/// thread's id, a process-order sequence number, and a
/// (trace_id, span_id, parent_span_id) triple. Call sites normally leave
/// the causal fields zero — EventLog::Record fills them from the calling
/// thread's trace::Context — and set them explicitly only when a span was
/// handed off from another thread (group-commit fsync, background
/// checkpoint).
struct TraceEvent {
  enum class Kind : uint8_t {
    kStatement,   ///< one SQL statement; a = sql::Statement::Kind.
    kTxn,         ///< outermost BEGIN..COMMIT/ROLLBACK; a = 1 if committed.
    kWalUnit,     ///< one WAL commit unit; a = records, b = bytes.
    kFsync,       ///< one WAL fsync; a = commit units batched into it.
    kCheckpoint,  ///< one checkpoint's snapshot write (snapshot.write
                  ///< histogram holds the write alone). a = 0 blocking
                  ///< (inline write + WAL reset), 1 background snapshot
                  ///< write, 2 background schedule (writer side).
    kRecovery,    ///< startup replay; a = records replayed.
    kScrub,       ///< integrity scrub; a = violations found.
    kEngineOp,    ///< one engine/store.cc operation; a = SQL exec ns,
                  ///< b = trigger-cascade ns; detail = op name.
    kGovernance,  ///< resource-governance event (heal backoff, watchdog
                  ///< stall); detail names it, a/b are event-specific.
  };
  Kind kind = Kind::kStatement;
  uint64_t start_ns = 0;     ///< MonotonicNanos() at span start.
  uint64_t duration_ns = 0;  ///< span length.
  uint64_t a = 0;            ///< kind-specific payload.
  uint64_t b = 0;            ///< kind-specific payload.
  const char* detail = nullptr;  ///< static string or nullptr.
  uint32_t tid = 0;              ///< trace::CurrentTid() of the recorder.
  uint64_t seq = 0;              ///< stamped atomically by EventLog::Record.
  uint64_t trace_id = 0;         ///< causal root id (0 = stamp from context).
  uint64_t span_id = 0;          ///< this span's id (0 = allocate fresh).
  uint64_t parent_span_id = 0;   ///< causal parent (0 = current span).
};

const char* ToString(TraceEvent::Kind kind);

// --- trace context ----------------------------------------------------------
//
// Lightweight causal propagation: each thread carries a current
// (trace_id, span_id) in a thread_local trace::Context; SpanScope pushes a
// fresh span for the dynamic extent of a statement/engine op, and a Handoff
// token carries the pair by value across an explicit thread boundary (the
// writer stashes one for the group-commit flusher and the background
// checkpointer). Everything here is allocation-free: ids come from one
// relaxed atomic counter, thread names must be static strings.
namespace trace {

/// Small dense id (>= 1) of the calling thread, assigned on first use.
uint32_t CurrentTid();

/// Names the calling thread's track in DumpChromeTrace() output. `name`
/// must be a string literal or other static storage.
void SetCurrentThreadName(const char* name);

/// Registered name for `tid`, or nullptr when the thread never named
/// itself.
const char* ThreadName(uint32_t tid);

/// Process-unique nonzero span id.
uint64_t NextSpanId();

/// The calling thread's current causal position. Both ids are zero outside
/// any SpanScope.
struct Context {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
};
Context& CurrentContext();

/// A span's identity captured for another thread: record the remote event
/// with trace_id = token.trace_id and parent_span_id = token.parent_span_id
/// to keep the cross-thread edge in the trace.
struct Handoff {
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
};

/// Current position as a handoff token (zeros outside any scope).
inline Handoff CaptureHandoff() {
  const Context& c = CurrentContext();
  return Handoff{c.trace_id, c.span_id};
}

/// RAII: makes a fresh span the thread's current one for the scope's
/// lifetime. A scope opened with no active span and no handoff roots a new
/// trace (trace_id = its own span_id).
class SpanScope {
 public:
  SpanScope() : SpanScope(CaptureHandoff()) {}
  explicit SpanScope(const Handoff& from) {
    Context& cur = CurrentContext();
    prev_ = cur;
    parent_span_id_ = from.parent_span_id;
    cur.span_id = NextSpanId();
    cur.trace_id = from.trace_id != 0 ? from.trace_id : cur.span_id;
    ctx_ = cur;
  }
  ~SpanScope() { CurrentContext() = prev_; }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  uint64_t trace_id() const { return ctx_.trace_id; }
  uint64_t span_id() const { return ctx_.span_id; }
  uint64_t parent_span_id() const { return parent_span_id_; }
  Handoff handoff() const { return Handoff{ctx_.trace_id, ctx_.span_id}; }

  /// Stamps `e` with this scope's identity (the event IS this span).
  void Annotate(TraceEvent* e) const {
    e->trace_id = ctx_.trace_id;
    e->span_id = ctx_.span_id;
    e->parent_span_id = parent_span_id_;
  }

 private:
  Context prev_;
  Context ctx_;
  uint64_t parent_span_id_ = 0;
};

}  // namespace trace

/// Fixed-capacity ring of TraceEvents. When full, the oldest event is
/// overwritten and `dropped()` counts it; the engine can therefore trace
/// forever with bounded memory and no branch-heavy bookkeeping. A mutex
/// guards the ring — events are recorded at statement/fsync granularity
/// (thousands per second, not millions), so contention is negligible and
/// recording from the writer, flusher, and checkpoint threads is safe.
class EventLog {
 public:
  explicit EventLog(size_t capacity = 1024) : ring_(capacity) {}

  /// Copies `e` into the ring, stamping the causal fields first: `seq` is
  /// taken from an atomic counter (so dumps can be ordered even when
  /// concurrent threads race into slots), `tid` defaults to the calling
  /// thread, and zero span fields are filled from the thread's
  /// trace::Context (fresh span_id, parent = current span, trace inherited
  /// or self-rooted).
  void Record(const TraceEvent& e);

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_;
  }
  size_t capacity() const { return ring_.size(); }
  uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
  }
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    size_ = head_ = 0;
    dropped_ = 0;
  }

  /// Events in recording (sequence) order, oldest-first. Slot order can
  /// deviate from sequence order when threads race between the seq stamp
  /// and the ring insert, so this sorts by `seq`.
  std::vector<TraceEvent> Events() const;

  /// One JSON object per event, sequence order.
  std::vector<std::string> ToJsonLines() const;

  /// The whole ring as a JSON array, sequence order.
  std::string DumpJson() const;

  /// Chrome/Perfetto trace-event JSON: one "X" (complete duration) event
  /// per span on its thread's track (ts/dur in microseconds), "M" metadata
  /// naming every track (trace::ThreadName or "thread-<tid>"), and "s"/"f"
  /// flow arrows for every parent→child edge that crosses threads. Load
  /// the result in chrome://tracing or ui.perfetto.dev.
  std::string DumpChromeTrace() const { return ChromeTrace(Events()); }
  /// The same rendering of an Events() snapshot — lets a caller check the
  /// document against exactly the events it was rendered from.
  static std::string ChromeTrace(const std::vector<TraceEvent>& events);

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;  // capacity fixed after construction.
  size_t head_ = 0;
  size_t size_ = 0;
  uint64_t dropped_ = 0;
  std::atomic<uint64_t> next_seq_{1};
};

/// Named counters, gauges, and histograms. Counter()/Gauge()/GetHistogram()
/// are get-or-create and return pointers that stay valid for the registry's
/// lifetime, so call sites resolve names once and then touch plain memory.
/// Counters and gauges are atomics (updated via the returned pointer from
/// any thread); the name maps are mutex-guarded. Iteration and export are
/// name-sorted for deterministic output.
class MetricsRegistry {
 public:
  /// Monotonically increasing counter (caller increments through the
  /// returned pointer).
  std::atomic<uint64_t>* Counter(std::string_view name);

  /// Point-in-time gauge (caller assigns through the returned pointer).
  std::atomic<int64_t>* Gauge(std::string_view name);

  Histogram* GetHistogram(std::string_view name);

  /// Existing histogram or nullptr (does not create).
  const Histogram* FindHistogram(std::string_view name) const;

  template <typename Fn>  // fn(const std::string&, uint64_t)
  void ForEachCounter(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, value] : counters_) {
      fn(name, value->load(std::memory_order_relaxed));
    }
  }

  template <typename Fn>  // fn(const std::string&, int64_t)
  void ForEachGauge(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, value] : gauges_) {
      fn(name, value->load(std::memory_order_relaxed));
    }
  }

  template <typename Fn>  // fn(const std::string&, const Histogram&)
  void ForEachHistogram(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, hist] : histograms_) fn(name, *hist);
  }

  /// "name value" per line; histograms expand to name.count / name.p50 /
  /// name.p95 / name.p99 / name.max / name.sum.
  std::string ExportText() const;

  /// {"counters":{...},"gauges":{...},"histograms":{name:{snapshot...}}}.
  std::string ExportJson() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<std::atomic<uint64_t>>, std::less<>>
      counters_;
  std::map<std::string, std::unique_ptr<std::atomic<int64_t>>, std::less<>>
      gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace xupd

#endif  // XUPD_COMMON_METRICS_H_
