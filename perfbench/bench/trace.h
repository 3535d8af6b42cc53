// In-memory span log for the traced run. Spans are recorded from the
// benchmark's own code around calls into each layer (name, start, end, the
// span that caused it, and the trace it belongs to — one trace per page or
// request) and written out as JSON lines when the run ends.
#ifndef PERFBENCH_BENCH_TRACE_H_
#define PERFBENCH_BENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/result.h"

namespace perfbench {

struct Span {
  const char* name = "";  // Static string: "<module>.<function>".
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root.
  std::uint64_t trace = 0;   // Page or request the span belongs to.
};

class SpanLog {
 public:
  // Disabled logs record nothing and cost one branch per call site.
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  // The traced run measures an untraced half first, then switches on.
  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }

  std::uint64_t NewTrace() { return next_trace_.fetch_add(1, std::memory_order_relaxed); }
  // A span id handed out before the span ends, so spans it causes can name
  // it as their parent while it is still open.
  std::uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  // Records one finished span under `id` (0: a fresh one). Thread-safe;
  // does nothing when disabled.
  void Record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t trace = 0, std::uint64_t parent = 0, std::uint64_t id = 0);

  size_t size() const;

  // One JSON object per line, in recording order.
  weblint::Status WriteJsonLines(const std::string& path) const;

 private:
  std::atomic<bool> enabled_;
  std::atomic<std::uint64_t> next_trace_{1};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // Guarded by mu_.
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_TRACE_H_
