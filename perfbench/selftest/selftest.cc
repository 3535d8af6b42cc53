// Self-test of the benchmark's checks. Runs each workload once at a small
// size, shows that its ground-truth check accepts the program's real
// output, then tampers with that output and shows the check rejects it:
// a diagnostic dropped, a finding added to a clean page, an orphan or a
// broken link dropped, a stale cached report served to the re-crawl, a
// repeated gateway report that differs from its first, and a gateway
// request left unanswered. Each check must also count the failed
// operations it rejects, and none on the real output.
//
//   perfbench_selftest [--work-dir DIR]     (or: python3 perfbench/run.py --self-test)
//
// Exits 0 when every case behaves as expected.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/workloads.h"
#include "cache/lint_cache.h"

namespace {

using perfbench::Failures;

int g_bad = 0;
std::vector<std::string> g_dirs;  // Work directories to remove at exit.

// `want_pass`: the check must accept (true) or reject (false) the output,
// and count failed operations exactly when it rejects.
void Expect(const std::string& name, const Failures& failures, size_t failed, bool want_pass) {
  const bool passed = failures.empty();
  const bool ok = passed == want_pass && (failed == 0) == passed;
  if (!ok) {
    ++g_bad;
  }
  std::printf("%s  %-56s check %s, %zu failed%s\n", ok ? "ok  " : "BAD ", name.c_str(),
              passed ? "accepted" : "rejected", failed,
              passed ? "" : (": " + failures.front()).c_str());
}

perfbench::RunConfig SmallConfig(const std::string& work_dir, const std::string& workload) {
  perfbench::RunConfig config;
  config.workload = workload;
  config.seed = 7;
  config.seconds = 0.001;
  config.small = true;
  config.nproc = 2;
  config.work_dir = work_dir + "/selftest-" + workload + "-" + std::to_string(getpid());
  g_dirs.push_back(config.work_dir);
  return config;
}

void SiteLint(const std::string& work_dir) {
  perfbench::SpanLog spans(false);
  perfbench::SiteLintFixture fixture(SmallConfig(work_dir, "site_lint"), &spans);
  if (weblint::Status s = fixture.Setup(); !s.ok()) {
    Expect("site_lint set-up: " + s.message(), {"set-up failed"}, 0, true);
    return;
  }
  const perfbench::SiteLintFixture::Round round = fixture.RunRound();
  Failures failures;
  size_t failed = fixture.Check(round, &failures);
  Expect("site_lint: real output", failures, failed, true);

  auto tampered = round;
  for (weblint::LintReport& page : tampered.report.pages) {
    if (!page.diagnostics.empty()) {
      page.diagnostics.pop_back();
      break;
    }
  }
  failures.clear();
  failed = fixture.Check(tampered, &failures);
  Expect("site_lint: one diagnostic dropped", failures, failed, false);

  tampered = round;
  for (weblint::LintReport& page : tampered.report.pages) {
    if (page.diagnostics.empty()) {
      weblint::Diagnostic d;
      d.message_id = "unknown-element";
      page.diagnostics.push_back(d);
      break;
    }
  }
  failures.clear();
  failed = fixture.Check(tampered, &failures);
  Expect("site_lint: finding added to a clean page", failures, failed, false);

  tampered = round;
  if (!tampered.report.site_diagnostics.empty()) {
    tampered.report.site_diagnostics.pop_back();
  }
  failures.clear();
  failed = fixture.Check(tampered, &failures);
  Expect("site_lint: one orphan page dropped", failures, failed, false);
}

void CrawlRecheck(const std::string& work_dir) {
  perfbench::SpanLog spans(false);
  perfbench::CrawlFixture fixture(SmallConfig(work_dir, "crawl_recheck"), &spans);
  if (weblint::Status s = fixture.Setup(); !s.ok()) {
    Expect("crawl_recheck set-up: " + s.message(), {"set-up failed"}, 0, true);
    return;
  }
  const perfbench::CrawlFixture::Round round = fixture.RunRound();
  Failures failures;
  size_t failed = fixture.Check(round, &failures);
  Expect("crawl_recheck: real output", failures, failed, true);

  auto tampered = round;
  if (!tampered.report.broken_links.empty()) {
    tampered.report.broken_links.pop_back();
  }
  failures.clear();
  failed = fixture.Check(tampered, &failures);
  Expect("crawl_recheck: one broken link dropped", failures, failed, false);

  tampered = round;
  if (!tampered.report.redirected_links.empty()) {
    tampered.report.redirected_links.front().fixed += "x";
  }
  failures.clear();
  failed = fixture.Check(tampered, &failures);
  Expect("crawl_recheck: a redirect's target altered", failures, failed, false);

  tampered = round;
  tampered.requested_paths.push_back("/private/secret0.html");
  failures.clear();
  failed = fixture.Check(tampered, &failures);
  Expect("crawl_recheck: a disallowed path requested", failures, failed, false);

  // A stale entry: the changed page's new bytes keyed to its old report,
  // as a cache that missed the change would serve it.
  const perfbench::CrawlInputs& inputs = fixture.inputs();
  const auto& [path, changed] = *inputs.changed.begin();
  std::string old_html;
  for (const weblint::GeneratedSite::Page& page : inputs.site.pages) {
    if (page.path == path) {
      old_html = page.html;
    }
  }
  const std::string url = fixture.UrlFor(path);
  const perfbench::CrawlFixture::Round stale = fixture.RunRound([&](weblint::Weblint& lint) {
    const weblint::CacheKey key = weblint::MakeLintCacheKey(
        url, changed.html, lint.config().Fingerprint(), lint.config().spec_id);
    lint.cache()->Store(key, lint.CheckString(url, old_html));
  });
  failures.clear();
  failed = fixture.Check(stale, &failures);
  Expect("crawl_recheck: stale cached report served", failures, failed, false);
}

void GatewayServe(const std::string& work_dir) {
  perfbench::SpanLog spans(false);
  perfbench::GatewayFixture fixture(SmallConfig(work_dir, "gateway_serve"), &spans);
  if (weblint::Status s = fixture.Setup(); !s.ok()) {
    Expect("gateway_serve set-up: " + s.message(), {"set-up failed"}, 0, true);
    return;
  }
  const perfbench::GatewayFixture::Round round = fixture.RunRound();

  // Check remembers each paste's first response, so the tampered first
  // round goes to this fixture and the remaining cases to a fresh one.
  auto tampered = round;
  for (perfbench::GatewayFixture::Response& r : tampered.responses) {
    const size_t item = r.body.find("<LI><STRONG>");
    if (r.first_sight && item != std::string::npos) {
      r.body.erase(item, r.body.find("</LI>\n", item) + 6 - item);
      break;
    }
  }
  Failures failures;
  size_t failed = fixture.Check(tampered, &failures);
  Expect("gateway_serve: one diagnostic dropped", failures, failed, false);

  perfbench::GatewayFixture fresh(SmallConfig(work_dir, "gateway_serve2"), &spans);
  if (weblint::Status s = fresh.Setup(); !s.ok()) {
    Expect("gateway_serve set-up: " + s.message(), {"set-up failed"}, 0, true);
    return;
  }
  const perfbench::GatewayFixture::Round real = fresh.RunRound();
  failures.clear();
  failed = fresh.Check(real, &failures);
  Expect("gateway_serve: real output", failures, failed, true);

  tampered = fresh.RunRound();
  for (perfbench::GatewayFixture::Response& r : tampered.responses) {
    if (!r.first_sight) {
      r.body += " ";
      break;
    }
  }
  failures.clear();
  failed = fresh.Check(tampered, &failures);
  Expect("gateway_serve: a repeated report differs from its first", failures, failed, false);

  tampered = fresh.RunRound();
  tampered.responses.front().status = 503;
  failures.clear();
  failed = fresh.Check(tampered, &failures);
  Expect("gateway_serve: a response other than 200", failures, failed, false);

  // A request the client loop gave up on keeps status 0 and no body.
  tampered = fresh.RunRound();
  tampered.responses.back().status = 0;
  tampered.responses.back().body.clear();
  failures.clear();
  failed = fresh.Check(tampered, &failures);
  Expect("gateway_serve: a request left unanswered", failures, failed, false);
}

}  // namespace

int main(int argc, char** argv) {
  std::string work_dir = ".bench_out";
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::string(argv[i]) == "--work-dir") {
      work_dir = argv[i + 1];
    }
  }
  SiteLint(work_dir);
  CrawlRecheck(work_dir);
  GatewayServe(work_dir);
  for (const std::string& dir : g_dirs) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  std::printf("%s\n", g_bad == 0 ? "self-test passed" : "self-test FAILED");
  return g_bad == 0 ? 0 : 1;
}
