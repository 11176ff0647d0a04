// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded only from the benchmark's own code, around each call it
// makes into a layer's public function (engine, rdb, shred, xquery,
// workload). A span's name is "<layer>.<function>"; the layer is the part
// before the first dot. Each thread appends to its own buffer (no locking on
// the hot path); buffers are merged and written once, after the measured
// window, as a Chrome trace plus a per-layer self-time table.
#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

uint64_t NowNs();

struct SpanRecord {
  const char* name = nullptr;  ///< string literal "<layer>.<function>".
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t self_ns = 0;  ///< duration minus the direct children's durations.
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 for a root span.
  uint64_t op = 0;      ///< operation id shared by the spans of one op.
  uint32_t tid = 0;
};

/// Turns span recording on or off. Call only while no other benchmark
/// thread is running (the flag is read without synchronisation).
void SetTracing(bool on);
bool TracingOn();

/// Discards every recorded span.
void ClearSpans();

/// Every span recorded so far, in no particular order.
std::vector<SpanRecord> CollectSpans();

/// RAII span. A no-op when tracing is off. `name` must be a string literal.
class Span {
 public:
  Span(const char* name, uint64_t op);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
};

/// Writes `spans` as Chrome trace-event JSON ("X" slices, one track per
/// thread) to `path`. Returns false on an I/O error.
bool WriteChromeTrace(const std::vector<SpanRecord>& spans,
                      const std::string& path);

/// Renders the per-layer table: span count, total and self milliseconds per
/// layer and per span name.
std::string LayerTable(const std::vector<SpanRecord>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
