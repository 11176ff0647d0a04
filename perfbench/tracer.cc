#include "tracer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

struct Frame {
  size_t index;          ///< position of the open span in the buffer.
  uint64_t child_ns = 0;
};

struct ThreadBuffer {
  uint32_t tid = 0;
  uint64_t next_seq = 1;
  std::vector<SpanRecord> spans;
  std::vector<Frame> stack;
};

bool g_tracing = false;
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by mu.

ThreadBuffer* LocalBuffer() {
  thread_local ThreadBuffer* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    buf = g_buffers.back().get();
    buf->tid = static_cast<uint32_t>(g_buffers.size());
    buf->spans.reserve(1 << 16);
  }
  return buf;
}

const char* LayerOf(const char* name, std::string* out) {
  std::string s(name);
  *out = s.substr(0, s.find('.'));
  return out->c_str();
}

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SetTracing(bool on) { g_tracing = on; }
bool TracingOn() { return g_tracing; }

void ClearSpans() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (auto& b : g_buffers) {
    b->spans.clear();
    b->stack.clear();
  }
}

std::vector<SpanRecord> CollectSpans() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<SpanRecord> out;
  for (const auto& b : g_buffers) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

Span::Span(const char* name, uint64_t op) {
  if (!g_tracing) return;
  ThreadBuffer* buf = LocalBuffer();
  SpanRecord rec;
  rec.name = name;
  rec.op = op;
  rec.tid = buf->tid;
  rec.id = (static_cast<uint64_t>(buf->tid) << 40) | buf->next_seq++;
  rec.parent = buf->stack.empty() ? 0 : buf->spans[buf->stack.back().index].id;
  buf->stack.push_back(Frame{buf->spans.size()});
  buf->spans.push_back(rec);
  active_ = true;
  buf->spans.back().start_ns = NowNs();
}

Span::~Span() {
  if (!active_) return;
  const uint64_t end = NowNs();
  ThreadBuffer* buf = LocalBuffer();
  Frame frame = buf->stack.back();
  buf->stack.pop_back();
  SpanRecord& rec = buf->spans[frame.index];
  rec.end_ns = end;
  const uint64_t dur = end - rec.start_ns;
  rec.self_ns = dur > frame.child_ns ? dur - frame.child_ns : 0;
  if (!buf->stack.empty()) buf->stack.back().child_ns += dur;
}

bool WriteChromeTrace(const std::vector<SpanRecord>& spans,
                      const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t t0 = UINT64_MAX;
  for (const SpanRecord& s : spans) t0 = std::min(t0, s.start_ns);
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  std::string layer;
  for (const SpanRecord& s : spans) {
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                 "\"span\":%llu,\"parent\":%llu}}",
                 first ? "" : ",\n", s.name, LayerOf(s.name, &layer), s.tid,
                 (s.start_ns - t0) / 1e3, (s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.op),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

std::string LayerTable(const std::vector<SpanRecord>& spans) {
  struct Agg {
    uint64_t count = 0, total_ns = 0, self_ns = 0;
  };
  std::map<std::string, Agg> layers, names;
  std::string layer;
  for (const SpanRecord& s : spans) {
    for (Agg* a : {&layers[LayerOf(s.name, &layer)], &names[s.name]}) {
      ++a->count;
      a->total_ns += s.end_ns - s.start_ns;
      a->self_ns += s.self_ns;
    }
  }
  std::string out;
  char line[256];
  auto emit = [&](const char* kind, const std::map<std::string, Agg>& m) {
    std::snprintf(line, sizeof(line), "%-6s %-40s %10s %12s %12s\n", kind,
                  "name", "spans", "total_ms", "self_ms");
    out += line;
    for (const auto& [name, a] : m) {
      std::snprintf(line, sizeof(line), "%-6s %-40s %10llu %12.3f %12.3f\n",
                    kind, name.c_str(),
                    static_cast<unsigned long long>(a.count), a.total_ns / 1e6,
                    a.self_ns / 1e6);
      out += line;
    }
  };
  emit("layer", layers);
  emit("span", names);
  return out;
}

}  // namespace perfbench
