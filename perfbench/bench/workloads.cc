#include "bench/workloads.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <thread>

#include "cache/lint_cache.h"
#include "html/tokenizer.h"
#include "net/http_wire.h"
#include "net/net_util.h"
#include "telemetry/build_info.h"
#include "util/file_io.h"
#include "util/strings.h"
#include "util/url.h"

namespace perfbench {

namespace fs = std::filesystem;
using weblint::Fail;
using weblint::Status;
using weblint::StrFormat;

namespace {

// Page fetches the crawl keeps in flight (poacher --prefetch).
constexpr size_t kPrefetch = 16;
// Latency samples a run must collect, so at least ten lie beyond its p99.
constexpr size_t kMinLatencySamples = 1000;
// Hard stop for one phase, far inside the benchmark's 180 s limit.
constexpr std::int64_t kPhaseCapNs = 60'000'000'000;
// Untimed rounds before the timed ones: a run's first seconds were slower
// than the rest (cold caches, the kernel's socket tables filling).
constexpr double kWarmUpSeconds = 3;

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int CountThreads() {
  std::error_code ec;
  int n = 0;
  for (fs::directory_iterator it("/proc/self/task", ec), end; !ec && it != end;
       it.increment(ec)) {
    ++n;
  }
  return n;
}

// The CPUs the calling thread may run on, in order.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

// Gives every thread of this process a CPU of its own from `cpus`, in the
// order the threads were started (round again when there are more threads
// than CPUs), so no two of them share a run queue and none migrates.
void PinEachThread(const std::vector<int>& cpus) {
  std::vector<pid_t> tids;
  std::error_code ec;
  for (fs::directory_iterator it("/proc/self/task", ec), end; !ec && it != end;
       it.increment(ec)) {
    tids.push_back(static_cast<pid_t>(std::stol(it->path().filename().string())));
  }
  std::sort(tids.begin(), tids.end());
  for (size_t i = 0; i < tids.size() && !cpus.empty(); ++i) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus[i % cpus.size()], &set);
    sched_setaffinity(tids[i], sizeof(set), &set);
  }
}

// Lets the calling thread run on all of `cpus` again.
void UnpinCallingThread(const std::vector<int>& cpus) {
  if (cpus.empty()) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) {
    CPU_SET(cpu, &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

std::uint64_t DirectoryBytes(const std::string& dir) {
  std::error_code ec;
  std::uint64_t bytes = 0;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end; it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      bytes += it->file_size(ec);
    }
  }
  return bytes;
}

// Total length of the union of [start, end) intervals.
std::int64_t UnionNs(std::vector<std::pair<std::int64_t, std::int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t total = 0;
  std::int64_t open = 0;
  std::int64_t close = 0;
  bool any = false;
  for (const auto& [start, end] : intervals) {
    if (!any || start > close) {
      if (any) {
        total += close - open;
      }
      open = start;
      close = end;
      any = true;
    } else {
      close = std::max(close, end);
    }
  }
  return any ? total + close - open : 0;
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

// Runs `fn` on a thread of its own and waits for it. The probe and the
// serial sweep lint there, on the same kind of thread as the workloads'
// lint jobs and server workers, so their figures compare with the rounds'.
template <typename Fn>
void OnWorkerThread(Fn&& fn) {
  std::thread worker(std::forward<Fn>(fn));
  worker.join();
}

// --------------------------------------------------------------- the probe

// Calls each compute layer's public function once per document of the
// workload, timing every call: what a document costs in the tokenizer, the
// engine with default and with no messages, the emitter, and the cache.
struct ProbeDoc {
  std::string name;
  const std::string* html = nullptr;
  double weight = 1;  // Occurrences of the document in one round.
};

struct Probe {
  double tokenize_ms_per_mb = 0;
  double tokens_per_page = 0;
  double check_ms_per_page = 0;
  double silent_check_ms_per_page = 0;
  double allocs_per_page = 0;
  double diagnostics_per_page = 0;
  double emit_us_per_diagnostic = 0;
  double digest_us_per_page = 0;
  double lookup_us = 0;
  double store_us = 0;
  double serial_check_ms_per_round = 0;  // Sum of weight x check time.
  std::vector<double> check_ms;          // Per document, in probe order.
};

Probe RunProbe(const std::vector<ProbeDoc>& docs, const std::string& disk_cache_dir,
               SpanLog* spans, Failures* failures) {
  Probe probe;
  weblint::Weblint lint;
  weblint::Weblint silent;
  silent.config().warnings = weblint::WarningSet::NoneEnabled();
  const std::uint64_t fingerprint = lint.config().Fingerprint();
  const std::string spec_id = lint.config().spec_id;
  weblint::LintResultCache::Options cache_options;
  cache_options.directory = disk_cache_dir;
  weblint::LintResultCache cache(cache_options);

  std::int64_t tokenize_ns = 0;
  std::int64_t check_ns = 0;
  std::int64_t silent_ns = 0;
  std::int64_t digest_ns = 0;
  std::int64_t store_ns = 0;
  std::uint64_t bytes = 0;
  std::uint64_t tokens = 0;
  std::uint64_t allocs = 0;
  std::vector<weblint::Diagnostic> diagnostics;
  std::vector<std::pair<weblint::CacheKey, std::uint64_t>> keys;  // Key, trace.
  for (const ProbeDoc& doc : docs) {
    const std::uint64_t trace = spans->NewTrace();
    const std::string& html = *doc.html;
    bytes += html.size();

    std::int64_t t0 = NowNs();
    weblint::Tokenizer tokenizer(html);
    weblint::Token token;
    while (tokenizer.Next(&token)) {
      ++tokens;
    }
    std::int64_t t1 = NowNs();
    tokenize_ns += t1 - t0;
    spans->Record("html.Tokenizer.Next", t0, t1, trace);

    const std::uint64_t allocs_before = ThreadAllocCount();
    t0 = NowNs();
    weblint::LintReport report = lint.CheckString(doc.name, html);
    t1 = NowNs();
    allocs += ThreadAllocCount() - allocs_before;
    check_ns += t1 - t0;
    probe.check_ms.push_back(NsToMs(t1 - t0));
    probe.serial_check_ms_per_round += doc.weight * NsToMs(t1 - t0);
    spans->Record("core.Weblint.CheckString", t0, t1, trace);

    t0 = NowNs();
    const weblint::LintReport quiet = silent.CheckString(doc.name, html);
    t1 = NowNs();
    silent_ns += t1 - t0;
    spans->Record("core.Weblint.CheckString.silent", t0, t1, trace);
    if (!quiet.diagnostics.empty()) {
      failures->push_back(doc.name + ": diagnostics with every message disabled");
    }

    t0 = NowNs();
    const weblint::CacheKey key = weblint::MakeLintCacheKey(doc.name, html, fingerprint, spec_id);
    t1 = NowNs();
    digest_ns += t1 - t0;
    spans->Record("cache.MakeLintCacheKey", t0, t1, trace);

    t0 = NowNs();
    cache.Store(key, report);
    t1 = NowNs();
    store_ns += t1 - t0;
    spans->Record("cache.LintResultCache.Store", t0, t1, trace);
    keys.emplace_back(key, trace);
    diagnostics.insert(diagnostics.end(), report.diagnostics.begin(), report.diagnostics.end());
  }

  // Lookups hit the tier the workload reads: a fresh instance over the
  // directory for the disk tier (as a re-crawl starts), else memory.
  std::unique_ptr<weblint::LintResultCache> reopened;
  weblint::LintResultCache* lookup_cache = &cache;
  if (!disk_cache_dir.empty()) {
    reopened = std::make_unique<weblint::LintResultCache>(cache_options);
    lookup_cache = reopened.get();
  }
  std::int64_t lookup_ns = 0;
  for (const auto& [key, trace] : keys) {
    const std::int64_t t0 = NowNs();
    const bool hit = lookup_cache->Lookup(key) != nullptr;
    const std::int64_t t1 = NowNs();
    lookup_ns += t1 - t0;
    spans->Record("cache.LintResultCache.Lookup", t0, t1, trace);
    if (!hit) {
      failures->push_back("probe: a stored cache entry did not hit");
    }
  }

  // Formatting is cheap per diagnostic: repeat passes for a steady figure.
  NullStream sink;
  weblint::StreamEmitter emitter(sink);
  std::int64_t emit_ns = 0;
  std::uint64_t emitted = 0;
  for (int pass = 0; pass < 64 && emitted < 20000 && !diagnostics.empty(); ++pass) {
    const std::int64_t t0 = NowNs();
    for (const weblint::Diagnostic& d : diagnostics) {
      emitter.Emit(d);
    }
    const std::int64_t t1 = NowNs();
    emit_ns += t1 - t0;
    emitted += diagnostics.size();
    spans->Record("warnings.StreamEmitter.Emit", t0, t1);
  }

  const double n = docs.empty() ? 1.0 : static_cast<double>(docs.size());
  probe.tokenize_ms_per_mb =
      bytes == 0 ? 0 : NsToMs(tokenize_ns) / (static_cast<double>(bytes) / (1 << 20));
  probe.tokens_per_page = static_cast<double>(tokens) / n;
  probe.check_ms_per_page = NsToMs(check_ns) / n;
  probe.silent_check_ms_per_page = NsToMs(silent_ns) / n;
  probe.allocs_per_page = static_cast<double>(allocs) / n;
  probe.diagnostics_per_page = static_cast<double>(diagnostics.size()) / n;
  probe.emit_us_per_diagnostic =
      emitted == 0 ? 0 : static_cast<double>(emit_ns) / 1e3 / static_cast<double>(emitted);
  probe.digest_us_per_page = static_cast<double>(digest_ns) / 1e3 / n;
  probe.store_us = static_cast<double>(store_ns) / 1e3 / n;
  probe.lookup_us = static_cast<double>(lookup_ns) / 1e3 / n;
  return probe;
}

// Per-layer figures of a traced run. A layer the workload does not use
// reads 0 (see README.md for which layer each workload exercises).
struct LayerFigures {
  Probe probe;
  double parallel_speedup = 0;
  double hit_ratio = 0;
  double disk_bytes = 0;
  double fetch_ms_per_page = 0;
  double fetch_attempts_per_page = 0;
  double fetch_bytes = 0;
  double server_overhead_ms = 0;
  double robot_self_ms_per_page = 0;
  double gateway_handle_ms = 0;
  double gateway_render_ms = 0;
  double trace_overhead_ratio = 0;
};

std::vector<Metric> LayerMetrics(const LayerFigures& f) {
  const Probe& p = f.probe;
  return {
      {"html.tokenize_ms_per_mb", p.tokenize_ms_per_mb, "ms/MB"},
      {"html.tokens_per_page", p.tokens_per_page, "count"},
      {"core.check_ms_per_page", p.check_ms_per_page, "ms"},
      {"core.silent_check_ms_per_page", p.silent_check_ms_per_page, "ms"},
      {"core.allocs_per_page", p.allocs_per_page, "count"},
      {"core.parallel_speedup", f.parallel_speedup, "x"},
      {"warnings.diagnostics_per_page", p.diagnostics_per_page, "count"},
      {"warnings.emit_us_per_diagnostic", p.emit_us_per_diagnostic, "us"},
      {"cache.digest_us_per_page", p.digest_us_per_page, "us"},
      {"cache.lookup_us", p.lookup_us, "us"},
      {"cache.store_us", p.store_us, "us"},
      {"cache.hit_ratio", f.hit_ratio, "ratio"},
      {"cache.disk_bytes", f.disk_bytes, "bytes"},
      {"net.fetch_ms_per_page", f.fetch_ms_per_page, "ms"},
      {"net.fetch_attempts_per_page", f.fetch_attempts_per_page, "count"},
      {"net.fetch_bytes", f.fetch_bytes, "bytes"},
      {"net.server_overhead_ms", f.server_overhead_ms, "ms"},
      {"robot.self_ms_per_page", f.robot_self_ms_per_page, "ms"},
      {"gateway.handle_ms", f.gateway_handle_ms, "ms"},
      {"gateway.render_ms", f.gateway_render_ms, "ms"},
      {"trace.overhead_ratio", f.trace_overhead_ratio, "ratio"},
  };
}

// Rounds of one phase, accumulated.
struct Phase {
  std::uint64_t rounds = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t documents = 0;
  std::int64_t wall_ns = 0;
  std::vector<double> round_ms;
  int max_threads = 0;
  // Latency percentiles per window of consecutive rounds holding at least
  // kMinLatencySamples documents (so ten or more lie beyond each p99); the
  // run reports the median window. A stall on the host then moves the
  // figure by one window's rank instead of owning the run's tail.
  std::vector<double> window_p50_ms;
  std::vector<double> window_p99_ms;
  std::vector<double> open_window;  // Samples of the window being filled.
  std::uint64_t latency_samples = 0;

  void AddLatencies(const std::vector<double>& samples, size_t window) {
    latency_samples += samples.size();
    open_window.insert(open_window.end(), samples.begin(), samples.end());
    if (open_window.size() >= window) {
      CloseWindow();
    }
  }
  void CloseWindow() {
    window_p50_ms.push_back(Quantile(open_window, 0.5));
    window_p99_ms.push_back(Quantile(open_window, 0.99));
    open_window.clear();
  }
  double LatencyP50() const { return Median(window_p50_ms); }
  double LatencyP99() const { return Median(window_p99_ms); }

  std::vector<double> round_rates;  // Documents per second of each round.

  // The median round's rate: steadier than the pooled mean on a host whose
  // CPU share varies, since a stalled round moves it by one rank.
  double PagesPerSecond() const { return Median(round_rates); }
};

// Runs rounds until `seconds` of round time and one full latency window
// are in; `min_samples` is the window size (0 for the self-test).
template <typename RoundFn>
Phase RunPhase(double seconds, size_t min_samples, RoundFn&& round_fn) {
  Phase phase;
  const std::int64_t target_ns = static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t began = NowNs();
  do {
    const RoundStats stats = round_fn();
    ++phase.rounds;
    phase.attempted += stats.attempted;
    phase.failed += stats.failed;
    phase.documents += stats.documents;
    phase.wall_ns += stats.wall_ns;
    phase.round_ms.push_back(NsToMs(stats.wall_ns));
    phase.round_rates.push_back(stats.wall_ns == 0 ? 0
                                                   : static_cast<double>(stats.documents) * 1e9 /
                                                         static_cast<double>(stats.wall_ns));
    phase.AddLatencies(stats.latencies_ms, min_samples);
    phase.max_threads = std::max({phase.max_threads, stats.threads, CountThreads()});
  } while ((phase.wall_ns < target_ns || phase.window_p50_ms.empty()) &&
           NowNs() - began < kPhaseCapNs);
  // A partial window counts only when it is the only one (the self-test).
  if (phase.window_p50_ms.empty() && !phase.open_window.empty()) {
    phase.CloseWindow();
  }
  return phase;
}

}  // namespace

// ---------------------------------------------------------- DeliveryEmitter

void DeliveryEmitter::BeginDocument(std::string_view name) {
  current_.name = std::string(name);
  current_.begin_ns = NowNs();
}

void DeliveryEmitter::EndDocument() {
  current_.end_ns = NowNs();
  if (deliveries_.empty()) {
    threads_ = CountThreads();
  }
  deliveries_.push_back(current_);
}

// ---------------------------------------------------------------- site_lint

SiteLintFixture::SiteLintFixture(const RunConfig& config, SpanLog* spans)
    : config_(config),
      spans_(spans),
      jobs_(std::max(1u, config.nproc - 1)),  // The caller's thread only waits.
      root_(config.work_dir + "/site") {}

Status SiteLintFixture::Setup() {
  inputs_ = MakeSiteLintInputs(config_.seed, config_.small);
  std::error_code ec;
  fs::remove_all(root_, ec);
  for (const Document& page : inputs_.pages) {
    const std::string path = root_ + page.name;
    fs::create_directories(fs::path(path).parent_path(), ec);
    if (ec) {
      return Fail("cannot create " + path + ": " + ec.message());
    }
    if (Status s = weblint::WriteFile(path, page.html); !s.ok()) {
      return s;
    }
  }
  // weblint -R --no-cache -j <jobs>.
  lint_.config().recurse = true;
  lint_.config().jobs = jobs_;
  return Status::Ok();
}

SiteLintFixture::Round SiteLintFixture::RunRound() {
  Round round;
  DeliveryEmitter emitter;
  const std::int64_t t0 = NowNs();
  auto report = weblint::SiteChecker(lint_).CheckSite(root_, &emitter);
  const std::int64_t t1 = NowNs();
  spans_->Record("core.SiteChecker.CheckSite", t0, t1, spans_->NewTrace());
  if (report.ok()) {
    round.report = std::move(report).value();
  } else {
    round.error = report.error();
  }
  round.stats.documents = round.report.pages.size();
  round.stats.wall_ns = t1 - t0;
  round.stats.threads = emitter.threads();
  // All pages are submitted when the sweep starts, so a page's latency is
  // the time until its report reaches the output.
  for (const DeliveryEmitter::Delivery& d : emitter.deliveries()) {
    round.stats.latencies_ms.push_back(NsToMs(d.end_ns - t0));
  }
  return round;
}

double SiteLintFixture::SweepMs(unsigned jobs) const {
  weblint::Weblint lint(lint_.config());
  lint.config().jobs = jobs;
  const std::int64_t t0 = NowNs();
  const auto report = weblint::SiteChecker(lint).CheckSite(root_);
  return NsToMs(NowNs() - t0);
}

size_t SiteLintFixture::Check(const Round& round, Failures* failures) const {
  if (!round.error.empty()) {
    failures->push_back("site_lint: " + round.error);
    return inputs_.pages.size();
  }
  return CheckSiteLint(inputs_, root_, round.report, failures);
}

// ------------------------------------------------------------------ Origin

Origin::Origin(SpanLog* spans)
    : spans_(spans),
      server_([this](const weblint::HttpRequest& request) { return Handle(request); }) {}

Status Origin::Start(unsigned workers) {
  if (Status s = server_.Listen(0); !s.ok()) {
    return s;
  }
  weblint::HttpServerOptions options;
  options.event_driven = true;
  options.threads = workers;
  options.max_queue = 1024;
  return server_.Start(options);
}

weblint::HttpResponse Origin::Handle(const weblint::HttpRequest& request) {
  const std::int64_t t0 = NowNs();
  weblint::HttpResponse response;
  const Site* site = site_.load(std::memory_order_acquire);
  const std::string path(request.Path());
  const auto it = site->find(path);
  if (it == site->end()) {
    response.status = 404;
    response.headers["content-type"] = "text/plain";
    response.body = "not found\n";
  } else {
    response.status = it->second.status;
    response.headers["content-type"] = it->second.content_type;
    response.body = it->second.body;
    if (!it->second.location.empty()) {
      response.headers["location"] = it->second.location;
    }
  }
  response.reason = std::string(weblint::ReasonPhrase(response.status));
  const std::int64_t t1 = NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    log_.push_back(path);
    handler_ns_ += t1 - t0;
  }
  spans_->Record("net.origin.Handle", t0, t1);
  return response;
}

std::vector<std::string> Origin::TakeLog(std::int64_t* handler_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  *handler_ns = handler_ns_;
  handler_ns_ = 0;
  return std::exchange(log_, {});
}

// ------------------------------------------------------------- TimedFetcher

void TimedFetcher::FetchPageAsync(const weblint::Url& url,
                                  std::function<void(weblint::FetchResult)> done) {
  std::string key = url.Serialize();
  const std::uint64_t trace = spans_->NewTrace();
  const std::int64_t issued = NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    window_.issued.emplace(key, issued);
    window_.traces.emplace(key, trace);
  }
  inner_.FetchPageAsync(url, [this, key = std::move(key), issued, trace,
                              done = std::move(done)](weblint::FetchResult result) {
    Finished(key, result.final_url.Serialize(), issued, trace, "net.UrlFetcher.FetchPageAsync");
    done(std::move(result));
  });
}

weblint::HttpResponse TimedFetcher::Get(const weblint::Url& url) {
  const std::string key = url.Serialize();
  const std::uint64_t trace = spans_->NewTrace();
  const std::int64_t issued = NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    window_.issued.emplace(key, issued);
  }
  weblint::HttpResponse response = inner_.Get(url);
  Finished(key, key, issued, trace, "net.UrlFetcher.Get");
  return response;
}

weblint::HttpResponse TimedFetcher::Head(const weblint::Url& url) {
  const std::string key = url.Serialize();
  const std::uint64_t trace = spans_->NewTrace();
  const std::int64_t issued = NowNs();
  weblint::HttpResponse response = inner_.Head(url);
  Finished(key, key, issued, trace, "net.UrlFetcher.Head");
  return response;
}

void TimedFetcher::Finished(const std::string& url, const std::string& final_url,
                            std::int64_t issued, std::uint64_t trace, const char* span_name) {
  const std::int64_t end = NowNs();
  std::uint64_t parent = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    parent = parent_;
    window_.busy_ns += end - issued;
    window_.intervals.emplace_back(issued, end);
    if (final_url != url) {
      window_.issued.emplace(final_url, issued);
      window_.traces.emplace(final_url, trace);
    }
  }
  spans_->Record(span_name, issued, end, trace, parent);
}

TimedFetcher::Window TimedFetcher::Take(std::uint64_t parent) {
  std::lock_guard<std::mutex> lock(mu_);
  parent_ = parent;
  return std::exchange(window_, {});
}

// ------------------------------------------------------------ crawl_recheck

CrawlFixture::CrawlFixture(const RunConfig& config, SpanLog* spans)
    : config_(config),
      spans_(spans),
      warm_dir_(config.work_dir + "/cache-warm"),
      round_dir_(config.work_dir + "/cache-round"),
      origin_(spans) {}

CrawlFixture::~CrawlFixture() {
  Stop();
  UnpinCallingThread(allowed_cpus_);
}

void CrawlFixture::Stop() {
  timed_.reset();
  fetcher_.reset();
  origin_.Stop();
}

weblint::PoacherOptions CrawlFixture::Options() const {
  weblint::PoacherOptions options;
  options.crawl.prefetch = kPrefetch;
  options.validate_links = true;
  return options;
}

Status CrawlFixture::Setup() {
  if (Status s = origin_.Start(1); !s.ok()) {
    return s;
  }
  inputs_ = MakeCrawlInputs(config_.seed, StrFormat("127.0.0.1:%d", origin_.port()),
                            config_.small);
  const weblint::GeneratedSite& site = inputs_.site;
  for (const weblint::GeneratedSite::Page& page : site.pages) {
    old_site_[page.path] = Origin::Entry{200, "text/html", page.html, ""};
  }
  for (const auto& [from, to] : site.redirects) {
    old_site_[from] = Origin::Entry{302, "text/html", "", to};
  }
  if (!site.robots_txt.empty()) {
    old_site_["/robots.txt"] = Origin::Entry{200, "text/plain", site.robots_txt, ""};
  }
  new_site_ = old_site_;
  for (const auto& [path, doc] : inputs_.changed) {
    new_site_[path].body = doc.html;
  }

  weblint::AsyncFetcher::Options fetch_options;
  fetch_options.policy = Options().crawl.fetch_policy;
  fetch_options.max_inflight = kPrefetch;
  fetcher_ = std::make_unique<weblint::AsyncFetcher>(fetch_options);
  timed_ = std::make_unique<TimedFetcher>(*fetcher_, spans_);
  // Four threads, a CPU each: the crawler (this thread), the origin's
  // reactor and worker, and the fetcher's loop. Every page passes between
  // them; sharing CPUs, the crawl's rate flipped between levels as the
  // scheduler placed them (see README.md).
  allowed_cpus_ = AllowedCpus();
  PinEachThread(allowed_cpus_);

  // The earlier crawl that warmed the on-disk cache, against the old site.
  std::error_code ec;
  fs::remove_all(warm_dir_, ec);
  origin_.Serve(&old_site_);
  {
    weblint::Weblint lint;
    lint.config().jobs = 1;
    lint.config().cache_dir = warm_dir_;
    lint.EnableCache();
    weblint::Poacher poacher(lint, *timed_, Options());
    const weblint::PoacherReport report = poacher.Run(UrlFor("/index.html"));
    if (report.pages.size() != inputs_.reachable.size() ||
        lint.cache()->stats().disk_stores != inputs_.reachable.size()) {
      return Fail(StrFormat("warm crawl linted %d pages and stored %d, site has %d reachable",
                            report.pages.size(), lint.cache()->stats().disk_stores,
                            inputs_.reachable.size()));
    }
  }
  timed_->Take();
  std::int64_t ignored = 0;
  origin_.TakeLog(&ignored);
  origin_.Serve(&new_site_);

  // The rounds' cache directory: one copy of the warm cache, which
  // RestoreRoundDir brings back to this state after every round.
  fs::remove_all(round_dir_, ec);
  fs::copy(warm_dir_, round_dir_, fs::copy_options::recursive, ec);
  if (ec) {
    return Fail("cannot copy the warm cache: " + ec.message());
  }
  warm_files_ = ListFiles(round_dir_);
  return Status::Ok();
}

std::map<std::string, CrawlFixture::FileState> CrawlFixture::ListFiles(const std::string& dir) {
  std::map<std::string, FileState> files;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end; it.increment(ec)) {
    std::error_code stat_ec;
    files[it->path().filename().string()] = {it->file_size(stat_ec),
                                             it->last_write_time(stat_ec)};
  }
  return files;
}

// A round adds an entry for each changed page and leaves the others as
// they were, so undoing it touches a few files instead of copying the
// whole cache: copying it every round churned the file system enough to
// slow the timed rounds of this and later runs.
void CrawlFixture::RestoreRoundDir() {
  std::error_code ec;
  for (const auto& [name, state] : ListFiles(round_dir_)) {
    const auto warm = warm_files_.find(name);
    if (warm == warm_files_.end()) {
      fs::remove(fs::path(round_dir_) / name, ec);
    } else if (warm->second.size != state.size || warm->second.mtime != state.mtime) {
      fs::copy_file(fs::path(warm_dir_) / name, fs::path(round_dir_) / name,
                    fs::copy_options::overwrite_existing, ec);
    }
  }
  if (ListFiles(round_dir_).size() != warm_files_.size()) {
    fs::remove_all(round_dir_, ec);
    fs::copy(warm_dir_, round_dir_, fs::copy_options::recursive, ec);
  }
  warm_files_ = ListFiles(round_dir_);
}

CrawlFixture::Round CrawlFixture::RunRound(
    const std::function<void(weblint::Weblint&)>& before_crawl) {
  Round round;
  // Every round starts from the warm cache (see RestoreRoundDir).
  const std::uint64_t run_span = spans_->NewId();
  timed_->Take(run_span);

  DeliveryEmitter emitter;
  const std::uint64_t trace = spans_->NewTrace();
  const std::int64_t t0 = NowNs();
  std::int64_t t1 = 0;
  {
    weblint::Weblint lint;
    lint.config().jobs = 1;  // Lint inline on the crawl thread.
    lint.config().cache_dir = round_dir_;
    lint.EnableCache();
    if (before_crawl) {
      before_crawl(lint);
    }
    weblint::Poacher poacher(lint, *timed_, Options());
    round.report = poacher.Run(UrlFor("/index.html"), &emitter);
    t1 = NowNs();
    round.cache = lint.cache()->stats();
  }
  spans_->Record("robot.Poacher.Run", t0, t1, trace, 0, run_span);

  TimedFetcher::Window window = timed_->Take();
  round.requested_paths = origin_.TakeLog(&round.origin_handler_ns);
  round.disk_bytes = DirectoryBytes(round_dir_);
  RestoreRoundDir();

  round.stats.documents = round.report.pages.size();
  round.stats.wall_ns = t1 - t0;
  round.stats.threads = emitter.threads();
  round.fetch_busy_ns = window.busy_ns;
  std::vector<std::pair<std::int64_t, std::int64_t>> busy = window.intervals;
  for (const DeliveryEmitter::Delivery& d : emitter.deliveries()) {
    busy.emplace_back(d.begin_ns, d.end_ns);
    const auto issued = window.issued.find(d.name);
    if (issued == window.issued.end()) {
      round.stats.latencies_ms.push_back(-1);  // Flagged by Check.
      continue;
    }
    round.stats.latencies_ms.push_back(NsToMs(d.end_ns - issued->second));
    const auto page_trace = window.traces.find(d.name);
    spans_->Record("core.Weblint.report", d.begin_ns, d.end_ns,
                   page_trace == window.traces.end() ? 0 : page_trace->second, run_span);
  }
  round.robot_self_ns = (t1 - t0) - UnionNs(std::move(busy));
  return round;
}

size_t CrawlFixture::Check(const Round& round, Failures* failures) const {
  const size_t failed =
      CheckCrawl(inputs_, round.report, round.cache, round.requested_paths, failures);
  for (double latency : round.stats.latencies_ms) {
    if (latency < 0) {
      failures->push_back("crawl: a report was delivered for a page that was never fetched");
      return inputs_.reachable.size();
    }
  }
  return failed;
}

// ------------------------------------------------------------ gateway_serve

GatewayFixture::Stack::Stack(weblint::MetricsRegistry* registry,
                             weblint::AdmissionController* admission)
    : gateway(lint, nullptr), service(&gateway, nullptr, admission, nullptr) {
  lint.EnableMetrics(registry);
  lint.EnableCache();  // Memory tier only.
}

GatewayFixture::GatewayFixture(const RunConfig& config, SpanLog* spans)
    : config_(config),
      spans_(spans),
      // The client loop runs on the main thread and the server has one
      // reactor thread; the rest of nproc are the server's workers.
      workers_(config.nproc > 2 ? config.nproc - 2 : 1),
      connections_(std::min<size_t>(4, std::max(1u, config.nproc))) {}

GatewayFixture::~GatewayFixture() {
  Stop();
  server_.reset();
  weblint::TraceRecorder::Install(nullptr);
  UnpinCallingThread(allowed_cpus_);
}

void GatewayFixture::Stop() {
  if (server_ != nullptr) {
    server_->Drain();
  }
}

Status GatewayFixture::Setup() {
  inputs_ = MakeGatewayInputs(config_.seed, config_.small);
  for (const Document& paste : inputs_.pool) {
    bodies_.push_back("format=short&html=" + weblint::UrlEncode(paste.html));
  }
  first_.assign(inputs_.pool.size(), std::nullopt);

  // The gateway's --serve wiring: build info, metrics, the trace recorder,
  // admission control (no SLO) and the tenant front end, on the
  // event-driven server.
  weblint::RegisterBuildInfo(&registry_);
  weblint::TraceRecorder::Install(&recorder_);
  admission_ = std::make_unique<weblint::AdmissionController>(
      registry_.GetHistogram("weblint_http_request_micros"), 0, &registry_);
  stack_ = std::make_unique<Stack>(&registry_, admission_.get());
  service_.store(&stack_->service, std::memory_order_release);
  server_ = std::make_unique<weblint::HttpServer>(
      [this](const weblint::HttpRequest& request) { return Handle(request); });
  server_->EnableMetrics(&registry_);
  weblint::HttpServerIntrospection introspection;
  introspection.metrics = &registry_;
  introspection.traces = &recorder_;
  introspection.config_fingerprint = stack_->lint.config().Fingerprint();
  server_->EnableIntrospection(introspection);
  if (Status s = server_->Listen(0); !s.ok()) {
    return s;
  }
  weblint::HttpServerOptions options;
  options.threads = workers_;
  options.event_driven = true;
  if (Status s = server_->Start(options); !s.ok()) {
    return s;
  }
  // A CPU per thread, as in crawl_recheck: the client loop (this thread),
  // the reactor and the workers.
  allowed_cpus_ = AllowedCpus();
  PinEachThread(allowed_cpus_);
  return Status::Ok();
}

weblint::HttpResponse GatewayFixture::Handle(const weblint::HttpRequest& request) {
  const weblint::TenantService* service = service_.load(std::memory_order_acquire);
  const std::int64_t t0 = NowNs();
  weblint::HttpResponse response = service->Handle(request);
  const std::int64_t t1 = NowNs();
  std::uint32_t id = 0;
  std::uint32_t trace = 0;
  std::uint32_t parent = 0;
  if (weblint::ParseUint(request.Header("x-bench-id"), &id) &&
      weblint::ParseUint(request.Header("x-bench-trace"), &trace) &&
      weblint::ParseUint(request.Header("x-bench-span"), &parent)) {
    std::lock_guard<std::mutex> lock(mu_);
    if (id < handler_ns_.size()) {
      handler_ns_[id] = t1 - t0;
    }
  }
  spans_->Record("gateway.Gateway.HandleHttp", t0, t1, trace, parent);
  return response;
}

int GatewayFixture::Connect() const {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  weblint::SetNonBlocking(fd, true);
  return fd;
}

GatewayFixture::Round GatewayFixture::RunRound() {
  Round round;
  const size_t total = inputs_.round.size();
  // A fresh stack per round: every paste's first request misses the
  // memory cache and its repeats hit, the same share in every round.
  auto stack = std::make_unique<Stack>(&registry_, admission_.get());
  service_.store(&stack->service, std::memory_order_release);
  stack_ = std::move(stack);  // The previous round has no request in flight.
  // The cache counts into the shared registry: take this round's share.
  const weblint::CacheStats before = stack_->lint.cache()->stats();
  {
    std::lock_guard<std::mutex> lock(mu_);
    handler_ns_.assign(total, 0);
  }
  round.responses.resize(total);
  std::vector<bool> seen(inputs_.pool.size(), false);
  std::vector<std::uint64_t> traces(total);
  std::vector<std::uint64_t> request_spans(total);
  for (size_t i = 0; i < total; ++i) {
    request_spans[i] = spans_->NewId();
    round.responses[i].paste = inputs_.round[i];
    round.responses[i].first_sight = !seen[inputs_.round[i]];
    seen[inputs_.round[i]] = true;
    traces[i] = spans_->NewTrace();
  }

  // A closed loop: each connection sends its next request only once the
  // previous response has fully arrived.
  struct Conn {
    int fd = -1;
    std::string out;
    size_t sent = 0;
    std::string in;
    size_t request = SIZE_MAX;
    std::int64_t sent_ns = 0;
  };
  std::vector<Conn> conns(connections_);
  size_t next = 0;
  size_t done = 0;
  const auto assign = [&](Conn& c) {
    c.request = SIZE_MAX;
    if (next >= total) {
      return;
    }
    c.request = next++;
    const std::string& body = bodies_[inputs_.round[c.request]];
    c.out = StrFormat(
        "POST / HTTP/1.1\r\nhost: 127.0.0.1\r\nconnection: keep-alive\r\n"
        "content-type: application/x-www-form-urlencoded\r\nx-bench-id: %d\r\n"
        "x-bench-trace: %d\r\nx-bench-span: %d\r\ncontent-length: %d\r\n\r\n",
        c.request, traces[c.request], request_spans[c.request], body.size());
    c.out += body;
    c.sent = 0;
    c.sent_ns = NowNs();
  };
  const auto fail = [&](const std::string& why) {
    if (round.transport_error.empty()) {
      round.transport_error = why;
    }
  };

  const std::int64_t t0 = NowNs();
  for (Conn& c : conns) {
    c.fd = Connect();
    if (c.fd < 0) {
      fail("cannot connect to the gateway");
    }
    assign(c);
  }
  std::vector<pollfd> fds(conns.size());
  char buffer[64 * 1024];
  while (done < total && round.transport_error.empty()) {
    for (size_t i = 0; i < conns.size(); ++i) {
      fds[i].fd = conns[i].fd;
      fds[i].events = static_cast<short>(
          POLLIN | (conns[i].sent < conns[i].out.size() ? POLLOUT : 0));
      fds[i].revents = 0;
    }
    if (::poll(fds.data(), fds.size(), 30'000) <= 0) {
      fail("gateway did not answer within 30 s");
      break;
    }
    for (size_t i = 0; i < conns.size(); ++i) {
      Conn& c = conns[i];
      if ((fds[i].revents & POLLOUT) != 0 && c.sent < c.out.size()) {
        const ssize_t n =
            ::send(c.fd, c.out.data() + c.sent, c.out.size() - c.sent, MSG_NOSIGNAL);
        if (n > 0) {
          c.sent += static_cast<size_t>(n);
        } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
          fail("send failed");
        }
      }
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      bool closed = false;
      for (;;) {
        const ssize_t n = ::recv(c.fd, buffer, sizeof(buffer), 0);
        if (n > 0) {
          c.in.append(buffer, static_cast<size_t>(n));
          continue;
        }
        if (n == 0) {
          closed = true;
        } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
          closed = true;
        }
        break;
      }
      bool reconnect = closed;
      while (c.request != SIZE_MAX) {
        const size_t length = weblint::HttpMessageLength(c.in);
        if (length == std::string::npos) {
          break;
        }
        const std::int64_t now = NowNs();
        auto parsed = weblint::ParseHttpResponse(std::string_view(c.in).substr(0, length));
        Response& r = round.responses[c.request];
        r.latency_ms = NsToMs(now - c.sent_ns);
        spans_->Record("client.request", c.sent_ns, now, traces[c.request], 0,
                       request_spans[c.request]);
        if (parsed.ok()) {
          r.status = parsed->status;
          r.body = std::move(parsed->body);
          if (weblint::IEquals(parsed->Header("connection"), "close")) {
            reconnect = true;
          }
        }
        c.in.erase(0, length);
        ++done;
        round.stats.latencies_ms.push_back(r.latency_ms);
        if (reconnect) {
          c.request = SIZE_MAX;
          break;
        }
        assign(c);
      }
      if (reconnect) {
        if (c.request != SIZE_MAX) {
          fail("gateway closed a connection with a request outstanding");
          break;
        }
        ::close(c.fd);
        c.in.clear();
        c.fd = Connect();
        if (c.fd < 0) {
          fail("cannot reconnect to the gateway");
          break;
        }
        assign(c);
      }
    }
  }
  const std::int64_t t1 = NowNs();
  for (Conn& c : conns) {
    if (c.fd >= 0) {
      ::close(c.fd);
    }
  }
  round.stats.documents = done;
  round.stats.wall_ns = t1 - t0;
  const weblint::CacheStats after = stack_->lint.cache()->stats();
  round.cache.hits = after.hits - before.hits;
  round.cache.misses = after.misses - before.misses;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < total; ++i) {
    round.responses[i].handler_ns = handler_ns_[i];
  }
  return round;
}

size_t GatewayFixture::Check(const Round& round, Failures* failures) {
  if (!round.transport_error.empty()) {
    failures->push_back("gateway: " + round.transport_error);
  }
  size_t failed = 0;
  for (const Response& r : round.responses) {
    const Document& paste = inputs_.pool[r.paste];
    const std::optional<std::string>& first = first_[r.paste];
    if (!CheckGatewayResponse(paste, r.status, r.body, first ? &*first : nullptr, failures)) {
      ++failed;
    } else if (!first) {
      first_[r.paste] = r.body;
    }
  }
  // Every paste misses once. A repeat that arrives while its first request
  // is still being linted on another connection misses too (the cache does
  // not coalesce concurrent misses), so hits are at most the repeats.
  if (round.cache.hits + round.cache.misses != inputs_.round.size() ||
      round.cache.misses < inputs_.pool.size()) {
    failures->push_back(StrFormat("gateway: cache hits %d / misses %d for %d requests of %d pastes",
                                  round.cache.hits, round.cache.misses, inputs_.round.size(),
                                  inputs_.pool.size()));
    return round.responses.size();
  }
  return failed;
}

// -------------------------------------------------------------- RunWorkload

namespace {

// What every workload reports. A traced run halves its time: an untraced
// half and a traced half, whose ratio is the tracing overhead.
struct Driver {
  const RunConfig& config;
  SpanLog* spans;
  RunResult* result;
  Phase untraced;
  Phase traced;
  double setup_s = 0;

  template <typename RoundFn>
  void Run(RoundFn&& round_fn) {
    const size_t min_samples = config.small ? 0 : kMinLatencySamples;
    Phase warm_up;
    if (!config.small) {
      warm_up = RunPhase(kWarmUpSeconds, 0, round_fn);
    }
    if (!config.trace) {
      untraced = RunPhase(config.seconds, min_samples, round_fn);
    } else {
      untraced = RunPhase(config.seconds / 2, min_samples, round_fn);
      spans->set_enabled(true);
      traced = RunPhase(config.seconds / 2, min_samples, round_fn);
    }
    result->attempted = warm_up.attempted + untraced.attempted + traced.attempted;
    result->failed = warm_up.failed + untraced.failed + traced.failed;
    result->info.emplace_back("threads", std::to_string(std::max(untraced.max_threads,
                                                                 traced.max_threads)));
    result->info.emplace_back("rounds", std::to_string(untraced.rounds + traced.rounds));
    result->info.emplace_back(
        "latency_samples_windows",
        StrFormat("%d %d", untraced.latency_samples, untraced.window_p50_ms.size()));
    // Median round rate in each tenth of the run, in order: shows whether
    // a run slows down as it goes or only the host's speed wanders.
    std::string tenths;
    const std::vector<double>& rates = untraced.round_rates;
    for (size_t k = 0; k < 10 && rates.size() >= 10; ++k) {
      tenths += StrFormat("%s%d", k == 0 ? "" : " ",
                          static_cast<int>(Median({rates.begin() + k * rates.size() / 10,
                                                   rates.begin() + (k + 1) * rates.size() / 10})));
    }
    result->info.emplace_back("round_rate_by_tenth", tenths);
    std::vector<double> round_ms = untraced.round_ms;
    const double p50 = Quantile(round_ms, 0.5);
    result->info.emplace_back("round_ms_p50_max",
                              StrFormat("%s %s", std::to_string(p50),
                                        std::to_string(round_ms.back())));
  }

  void Finish(LayerFigures figures) {
    if (!config.trace) {
      result->metrics = {
          {"pages_per_s", untraced.PagesPerSecond(), "pages/s"},
          {"latency_p50_ms", untraced.LatencyP50(), "ms"},
          {"latency_p99_ms", untraced.LatencyP99(), "ms"},
          {"peak_rss_mb", PeakRssMb(), "MB"},
          {"setup_s", setup_s, "s"},
      };
      return;
    }
    figures.trace_overhead_ratio = traced.PagesPerSecond() == 0
                                       ? 0
                                       : untraced.PagesPerSecond() / traced.PagesPerSecond();
    result->metrics = LayerMetrics(figures);
    const std::string path =
        StrFormat("%s/trace-%s-seed%d.jsonl", fs::path(config.work_dir).parent_path().string(),
                  config.workload, config.seed);
    if (Status s = spans->WriteJsonLines(path); !s.ok()) {
      result->failures.push_back(s.message());
    }
    result->info.emplace_back("trace_file", path);
    result->info.emplace_back("spans", std::to_string(spans->size()));
  }
};

void RunSiteLint(Driver& driver) {
  SiteLintFixture fixture(driver.config, driver.spans);
  if (Status s = fixture.Setup(); !s.ok()) {
    driver.result->failures.push_back("set-up: " + s.message());
    return;
  }
  driver.setup_s = static_cast<double>(NowNs() - driver.config.start_ns) / 1e9;
  driver.result->info.emplace_back("jobs", std::to_string(fixture.jobs()));
  driver.result->info.emplace_back("site_bytes", std::to_string(fixture.inputs().bytes));
  driver.Run([&] {
    SiteLintFixture::Round round = fixture.RunRound();
    round.stats.attempted = fixture.inputs().pages.size();
    round.stats.failed = fixture.Check(round, &driver.result->failures);
    return round.stats;
  });
  LayerFigures figures;
  if (driver.config.trace) {
    std::vector<ProbeDoc> docs;
    for (const Document& page : fixture.inputs().pages) {
      docs.push_back({page.name, &page.html, 1});
    }
    std::vector<double> serial;
    OnWorkerThread([&] {
      figures.probe = RunProbe(docs, "", driver.spans, &driver.result->failures);
      for (int i = 0; i < 3; ++i) {
        serial.push_back(fixture.SweepMs(1));
      }
    });
    figures.parallel_speedup = Median(serial) / Median(driver.traced.round_ms);
  }
  driver.Finish(figures);
}

void RunCrawlRecheck(Driver& driver) {
  CrawlFixture fixture(driver.config, driver.spans);
  if (Status s = fixture.Setup(); !s.ok()) {
    driver.result->failures.push_back("set-up: " + s.message());
    return;
  }
  driver.setup_s = static_cast<double>(NowNs() - driver.config.start_ns) / 1e9;
  driver.result->info.emplace_back("pages", std::to_string(fixture.inputs().reachable.size()));
  driver.result->info.emplace_back("changed", std::to_string(fixture.inputs().changed.size()));
  double disk_bytes = 0;
  double attempts = 0;
  double fetch_bytes = 0;
  double robot_self_ms = 0;
  std::uint64_t traced_pages = 0;
  std::uint64_t traced_rounds = 0;
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t requests = 0;
  std::int64_t fetch_ns = 0;
  std::int64_t handler_ns = 0;
  driver.Run([&] {
    CrawlFixture::Round round = fixture.RunRound();
    round.stats.attempted = fixture.inputs().reachable.size();
    round.stats.failed = fixture.Check(round, &driver.result->failures);
    if (driver.spans->enabled()) {
      ++traced_rounds;
      traced_pages += round.stats.documents;
      hits += round.cache.hits;
      lookups += round.cache.hits + round.cache.misses;
      disk_bytes += static_cast<double>(round.disk_bytes);
      attempts += static_cast<double>(round.report.stats.fetch.attempts);
      fetch_bytes += static_cast<double>(round.report.stats.fetch.bytes_fetched);
      robot_self_ms += NsToMs(round.robot_self_ns);
      fetch_ns += round.fetch_busy_ns;
      handler_ns += round.origin_handler_ns;
      requests += round.requested_paths.size();
    }
    return round.stats;
  });
  LayerFigures figures;
  if (driver.config.trace && traced_rounds > 0) {
    std::vector<ProbeDoc> docs;
    std::map<std::string, const std::string*> html;
    for (const weblint::GeneratedSite::Page& page : fixture.inputs().site.pages) {
      html[page.path] = &page.html;
    }
    for (const auto& [path, doc] : fixture.inputs().changed) {
      html[path] = &doc.html;
    }
    for (const std::string& path : fixture.inputs().reachable) {
      // Only the changed pages are linted in a round; the rest replay.
      docs.push_back({fixture.UrlFor(path), html[path],
                      fixture.inputs().changed.contains(path) ? 1.0 : 0.0});
    }
    const std::string probe_dir = driver.config.work_dir + "/cache-probe";
    fixture.Stop();  // Keeps the probe's thread within nproc.
    OnWorkerThread([&] {
      figures.probe = RunProbe(docs, probe_dir, driver.spans, &driver.result->failures);
    });
    const double rounds = static_cast<double>(traced_rounds);
    const double pages = static_cast<double>(traced_pages);
    figures.parallel_speedup =
        figures.probe.serial_check_ms_per_round / Median(driver.traced.round_ms);
    figures.hit_ratio = lookups == 0 ? 0 : static_cast<double>(hits) / static_cast<double>(lookups);
    figures.disk_bytes = disk_bytes / rounds;
    figures.fetch_ms_per_page = NsToMs(fetch_ns) / pages;
    figures.fetch_attempts_per_page = attempts / pages;
    figures.fetch_bytes = fetch_bytes / rounds;
    figures.server_overhead_ms =
        requests == 0 ? 0 : NsToMs(fetch_ns - handler_ns) / static_cast<double>(requests);
    figures.robot_self_ms_per_page = robot_self_ms / pages;
  }
  driver.Finish(figures);
}

void RunGatewayServe(Driver& driver) {
  GatewayFixture fixture(driver.config, driver.spans);
  if (Status s = fixture.Setup(); !s.ok()) {
    driver.result->failures.push_back("set-up: " + s.message());
    return;
  }
  driver.setup_s = static_cast<double>(NowNs() - driver.config.start_ns) / 1e9;
  driver.result->info.emplace_back("workers", std::to_string(fixture.workers()));
  driver.result->info.emplace_back("connections", std::to_string(fixture.connections()));
  driver.result->info.emplace_back("pool", std::to_string(fixture.inputs().pool.size()));
  std::uint64_t hits = 0;
  std::uint64_t lookups = 0;
  double overhead_ms = 0;
  std::vector<std::tuple<size_t, std::int64_t, bool>> handled;  // Paste, handler, miss.
  driver.Run([&] {
    GatewayFixture::Round round = fixture.RunRound();
    round.stats.attempted = round.responses.size();
    round.stats.failed = fixture.Check(round, &driver.result->failures);
    if (driver.spans->enabled()) {
      hits += round.cache.hits;
      lookups += round.cache.hits + round.cache.misses;
      for (const GatewayFixture::Response& r : round.responses) {
        overhead_ms += r.latency_ms - NsToMs(r.handler_ns);
        handled.emplace_back(r.paste, r.handler_ns, r.first_sight);
      }
    }
    return round.stats;
  });
  LayerFigures figures;
  if (driver.config.trace && !handled.empty()) {
    const GatewayInputs& inputs = fixture.inputs();
    std::vector<double> weight(inputs.pool.size(), 0);
    for (size_t paste : inputs.round) {
      weight[paste] += 1;
    }
    std::vector<ProbeDoc> docs;
    for (size_t i = 0; i < inputs.pool.size(); ++i) {
      // Pastes are linted under the gateway's display name.
      docs.push_back({"pasted HTML", &inputs.pool[i].html, weight[i]});
    }
    fixture.Stop();  // Keeps the probe's thread within nproc.
    OnWorkerThread([&] {
      figures.probe = RunProbe(docs, "", driver.spans, &driver.result->failures);
    });
    const std::vector<double>& check_ms = figures.probe.check_ms;
    double handle_ms = 0;
    double render_ms = 0;
    for (const auto& [paste, ns, miss] : handled) {
      handle_ms += NsToMs(ns);
      render_ms += NsToMs(ns) - (miss ? check_ms[paste] : 0);
    }
    const double n = static_cast<double>(handled.size());
    figures.parallel_speedup =
        figures.probe.serial_check_ms_per_round / Median(driver.traced.round_ms);
    figures.hit_ratio = lookups == 0 ? 0 : static_cast<double>(hits) / static_cast<double>(lookups);
    figures.server_overhead_ms = overhead_ms / n;
    figures.gateway_handle_ms = handle_ms / n;
    figures.gateway_render_ms = render_ms / n;
  }
  driver.Finish(figures);
}

}  // namespace

RunResult RunWorkload(const RunConfig& config) {
  RunResult result;
  SpanLog spans(false);
  Driver driver{config, &spans, &result, {}, {}, 0};
  std::error_code ec;
  fs::create_directories(config.work_dir, ec);
  if (config.workload == "site_lint") {
    RunSiteLint(driver);
  } else if (config.workload == "crawl_recheck") {
    RunCrawlRecheck(driver);
  } else if (config.workload == "gateway_serve") {
    RunGatewayServe(driver);
  } else {
    result.failures.push_back("unknown workload " + config.workload);
  }
  fs::remove_all(config.work_dir, ec);
  result.correct = result.failures.empty();
  return result;
}

}  // namespace perfbench
