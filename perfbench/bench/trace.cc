#include "bench/trace.h"

#include <cstdio>
#include <memory>

namespace perfbench {

void SpanLog::Record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                     std::uint64_t trace, std::uint64_t parent, std::uint64_t id) {
  if (!enabled()) {
    return;
  }
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.id = id != 0 ? id : NewId();
  span.parent = parent;
  span.trace = trace;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

weblint::Status SpanLog::WriteJsonLines(const std::string& path) const {
  std::unique_ptr<FILE, int (*)(FILE*)> out(std::fopen(path.c_str(), "w"), &std::fclose);
  if (out == nullptr) {
    return weblint::Fail("cannot write " + path);
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& span : spans_) {
    std::fprintf(out.get(),
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"trace\":%llu,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 span.name, static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.trace),
                 static_cast<long long>(span.start_ns), static_cast<long long>(span.end_ns));
  }
  if (std::fflush(out.get()) != 0) {
    return weblint::Fail("short write to " + path);
  }
  return weblint::Status::Ok();
}

}  // namespace perfbench
