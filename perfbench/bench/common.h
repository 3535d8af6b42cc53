// Shared helpers for the benchmark: clocks, statistics, metric records and
// the allocation counter the operator new hook (alloc_hook.cc) maintains.
#ifndef PERFBENCH_BENCH_COMMON_H_
#define PERFBENCH_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

// Allocations made by the calling thread since it started (operator new
// calls of every form). Defined in alloc_hook.cc, linked only into the
// benchmark's own binaries.
std::uint64_t ThreadAllocCount();

// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
inline double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size());
  size_t index = rank <= 1 ? 0 : static_cast<size_t>(rank + 0.999999) - 1;
  index = std::min(index, values.size() - 1);
  return values[index];
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// An ostream that discards everything: emitters format into it so output
// formatting is paid for without terminal or disk I/O in the numbers.
class NullStream : public std::ostream {
 public:
  NullStream() : std::ostream(&buf_) {}

 private:
  struct NullBuf : std::streambuf {
    int overflow(int c) override { return traits_type::not_eof(c); }
    std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
  };
  NullBuf buf_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_COMMON_H_
