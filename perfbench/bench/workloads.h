// The three workloads. Each fixture sets up its inputs and servers once,
// then runs whole rounds of the same operations: one `weblint -R` sweep
// (site_lint), one cached re-crawl (crawl_recheck), or one window of gateway
// traffic (gateway_serve). RunWorkload times rounds for the requested
// seconds, checks every round against the generator's ground truth, and
// reports the end-to-end metrics, or with tracing the per-layer ones.
#ifndef PERFBENCH_BENCH_WORKLOADS_H_
#define PERFBENCH_BENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "bench/checks.h"
#include "bench/common.h"
#include "bench/inputs.h"
#include "bench/trace.h"
#include "core/site_checker.h"
#include "gateway/gateway.h"
#include "gateway/tenant.h"
#include "net/async_fetcher.h"
#include "net/http_server.h"
#include "robot/poacher.h"
#include "telemetry/metrics.h"
#include "telemetry/trace_context.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // Site files, caches and trace output go here.
  unsigned nproc = 1;
  bool small = false;         // Self-test size.
  std::int64_t start_ns = 0;  // Process start, for setup_s.
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  Failures failures;
  std::vector<std::pair<std::string, std::string>> info;
};

// Runs one workload end to end. A set-up failure leaves `failures`
// non-empty and `attempted` zero.
RunResult RunWorkload(const RunConfig& config);

// The consumer of reports a CLI user stands in for: formats every
// diagnostic as weblint's traditional output into a discarding stream and
// stamps when each document's report was delivered.
class DeliveryEmitter : public weblint::Emitter {
 public:
  struct Delivery {
    std::string name;
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;
  };

  DeliveryEmitter() : format_(sink_) {}
  void BeginDocument(std::string_view name) override;
  void EndDocument() override;
  void Emit(const weblint::Diagnostic& diagnostic) override { format_.Emit(diagnostic); }

  const std::vector<Delivery>& deliveries() const { return deliveries_; }
  // Threads alive when the first report arrived, while workers are busy.
  int threads() const { return threads_; }

 private:
  NullStream sink_;
  weblint::StreamEmitter format_;
  Delivery current_;
  std::vector<Delivery> deliveries_;
  int threads_ = 0;
};

// Per-round figures every workload reports.
struct RoundStats {
  std::uint64_t attempted = 0;  // Operations the round set out to do.
  std::uint64_t failed = 0;     // Of those, how many the checks failed.
  std::uint64_t documents = 0;  // Documents completed, for the rate.
  std::int64_t wall_ns = 0;
  std::vector<double> latencies_ms;
  int threads = 0;  // Peak thread count sampled during the round.
};

// ---------------------------------------------------------------- site_lint

class SiteLintFixture {
 public:
  SiteLintFixture(const RunConfig& config, SpanLog* spans);

  weblint::Status Setup();

  struct Round {
    weblint::SiteReport report;
    std::string error;  // CheckSite's failure, if any.
    RoundStats stats;
  };
  Round RunRound();
  // Returns the number of pages that failed.
  size_t Check(const Round& round, Failures* failures) const;
  // Wall time of one untimed sweep at `jobs` lint jobs: the serial
  // baseline of core.parallel_speedup.
  double SweepMs(unsigned jobs) const;

  const SiteLintInputs& inputs() const { return inputs_; }
  unsigned jobs() const { return jobs_; }

 private:
  RunConfig config_;
  SpanLog* spans_;
  unsigned jobs_;
  std::string root_;
  SiteLintInputs inputs_;
  weblint::Weblint lint_;
};

// ------------------------------------------------------------ crawl_recheck

// The in-process origin: serves one version of a generated site (pages,
// 302 redirects, 404s, robots.txt) over loopback HTTP and logs every
// request path.
class Origin {
 public:
  struct Entry {
    int status = 200;
    std::string content_type = "text/html";
    std::string body;
    std::string location;
  };
  using Site = std::map<std::string, Entry>;

  explicit Origin(SpanLog* spans);
  weblint::Status Start(unsigned workers);
  void Stop() { server_.Drain(); }
  std::uint16_t port() const { return server_.port(); }
  // Switches the served version; `site` must outlive the server.
  void Serve(const Site* site) { site_.store(site, std::memory_order_release); }

  // Request paths and total handler time since the last call.
  std::vector<std::string> TakeLog(std::int64_t* handler_ns);

 private:
  weblint::HttpResponse Handle(const weblint::HttpRequest& request);

  SpanLog* spans_;
  std::atomic<const Site*> site_{nullptr};
  std::mutex mu_;
  std::vector<std::string> log_;  // Guarded by mu_.
  std::int64_t handler_ns_ = 0;   // Guarded by mu_.
  weblint::HttpServer server_;    // Last: drained before the state above dies.
};

// The fetch-layer decorator handed to Poacher: forwards every page fetch
// (async) and HEAD/GET (blocking) to the real fetcher, stamping when each
// fetch was issued and how long it took.
class TimedFetcher : public weblint::UrlFetcher, public weblint::AsyncUrlFetcher {
 public:
  TimedFetcher(weblint::AsyncFetcher& inner, SpanLog* spans) : inner_(inner), spans_(spans) {}

  void FetchPageAsync(const weblint::Url& url,
                      std::function<void(weblint::FetchResult)> done) override;
  weblint::FetchStats SnapshotStats() const override { return inner_.SnapshotStats(); }
  weblint::HttpResponse Get(const weblint::Url& url) override;
  weblint::HttpResponse Head(const weblint::Url& url) override;

  struct Window {
    std::map<std::string, std::int64_t> issued;  // URL (also final URL) -> issue time.
    std::map<std::string, std::uint64_t> traces; // URL -> trace id.
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
    std::int64_t busy_ns = 0;  // Sum of fetch durations.
  };
  // Returns what was recorded since the last call and starts afresh;
  // fetches recorded from now on are children of span `parent`.
  Window Take(std::uint64_t parent = 0);

 private:
  void Finished(const std::string& url, const std::string& final_url, std::int64_t issued,
                std::uint64_t trace, const char* span_name);

  weblint::AsyncFetcher& inner_;
  SpanLog* spans_;
  std::mutex mu_;
  Window window_;            // Guarded by mu_.
  std::uint64_t parent_ = 0; // Guarded by mu_.
};

class CrawlFixture {
 public:
  CrawlFixture(const RunConfig& config, SpanLog* spans);
  ~CrawlFixture();

  weblint::Status Setup();

  struct Round {
    weblint::PoacherReport report;
    weblint::CacheStats cache;
    std::vector<std::string> requested_paths;
    RoundStats stats;
    std::uint64_t disk_bytes = 0;
    std::int64_t fetch_busy_ns = 0;
    std::int64_t origin_handler_ns = 0;
    std::int64_t robot_self_ns = 0;
  };
  // `before_crawl` (self-test only) may tamper with the warmed cache.
  Round RunRound(const std::function<void(weblint::Weblint&)>& before_crawl = {});
  // Returns the number of pages that failed.
  size_t Check(const Round& round, Failures* failures) const;
  // Stops the origin and the fetcher; no round may run after.
  void Stop();

  const CrawlInputs& inputs() const { return inputs_; }
  std::string UrlFor(const std::string& path) const { return inputs_.site.UrlFor(path); }

 private:
  struct FileState {
    std::uintmax_t size = 0;
    std::filesystem::file_time_type mtime;
  };
  static std::map<std::string, FileState> ListFiles(const std::string& dir);
  void RestoreRoundDir();
  weblint::PoacherOptions Options() const;

  RunConfig config_;
  SpanLog* spans_;
  std::string warm_dir_;
  std::string round_dir_;
  std::map<std::string, FileState> warm_files_;  // round_dir_ in its warm state.
  std::vector<int> allowed_cpus_;  // This thread's CPUs before Setup pinned it.
  CrawlInputs inputs_;
  Origin::Site old_site_;
  Origin::Site new_site_;
  Origin origin_;
  std::unique_ptr<weblint::AsyncFetcher> fetcher_;
  std::unique_ptr<TimedFetcher> timed_;
};

// ------------------------------------------------------------ gateway_serve

class GatewayFixture {
 public:
  GatewayFixture(const RunConfig& config, SpanLog* spans);
  ~GatewayFixture();

  weblint::Status Setup();

  struct Response {
    size_t paste = 0;
    int status = 0;
    std::string body;
    double latency_ms = 0;
    std::int64_t handler_ns = 0;
    bool first_sight = false;  // The paste's first request this round.
  };
  struct Round {
    std::vector<Response> responses;
    RoundStats stats;
    weblint::CacheStats cache;
    std::string transport_error;  // Empty unless the client loop failed.
  };
  Round RunRound();
  // Returns the number of requests that failed. Also remembers each
  // paste's first response, for byte-identity.
  size_t Check(const Round& round, Failures* failures);
  // Stops the server; no round may run after.
  void Stop();

  const GatewayInputs& inputs() const { return inputs_; }
  unsigned workers() const { return workers_; }
  size_t connections() const { return connections_; }

 private:
  // The --serve wiring for one round: a Weblint with a fresh memory cache,
  // its Gateway and the tenant/admission front end.
  struct Stack {
    Stack(weblint::MetricsRegistry* registry, weblint::AdmissionController* admission);
    weblint::Weblint lint;
    weblint::Gateway gateway;
    weblint::TenantService service;
  };

  weblint::HttpResponse Handle(const weblint::HttpRequest& request);
  int Connect() const;

  RunConfig config_;
  SpanLog* spans_;
  unsigned workers_;
  size_t connections_;
  GatewayInputs inputs_;
  std::vector<std::string> bodies_;  // Form-encoded request body per paste.
  std::vector<std::optional<std::string>> first_;

  weblint::MetricsRegistry registry_;
  weblint::TraceRecorder recorder_;
  std::unique_ptr<weblint::AdmissionController> admission_;
  std::unique_ptr<Stack> stack_;
  std::atomic<const weblint::TenantService*> service_{nullptr};
  std::mutex mu_;
  std::vector<std::int64_t> handler_ns_;  // By request id; guarded by mu_.
  std::unique_ptr<weblint::HttpServer> server_;
  std::vector<int> allowed_cpus_;  // This thread's CPUs before Setup pinned it.
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_WORKLOADS_H_
