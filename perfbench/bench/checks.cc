#include "bench/checks.h"

#include <algorithm>
#include <map>
#include <set>

#include "util/strings.h"
#include "util/url.h"

namespace perfbench {

using weblint::StrFormat;

namespace {

// A run stops collecting after this many lines; one is enough to fail it.
constexpr size_t kMaxFailures = 20;

void Add(Failures* failures, std::string line) {
  if (failures->size() < kMaxFailures) {
    failures->push_back(std::move(line));
  }
}

// Every expected id must be present (as many times as it is expected);
// additional findings on a defective document are allowed, since one
// seeded defect may legitimately raise more than one message.
bool CheckFindings(const std::string& name, const std::vector<std::string>& expected,
                   const std::vector<std::string>& found, Failures* failures) {
  if (expected.empty()) {
    if (!found.empty()) {
      Add(failures, StrFormat("%s: clean document raised %d finding(s), first %s", name,
                              found.size(), found.front()));
      return false;
    }
    return true;
  }
  std::map<std::string, size_t> have;
  for (const std::string& id : found) {
    ++have[id];
  }
  std::map<std::string, size_t> want;
  for (const std::string& id : expected) {
    ++want[id];
  }
  bool ok = true;
  for (const auto& [id, count] : want) {
    if (have[id] < count) {
      Add(failures, StrFormat("%s: seeded defect's message %s raised %d time(s), expected %d",
                              name, id, have[id], count));
      ok = false;
    }
  }
  return ok;
}

std::vector<std::string> Ids(const std::vector<weblint::Diagnostic>& diagnostics) {
  std::vector<std::string> ids;
  for (const weblint::Diagnostic& d : diagnostics) {
    ids.push_back(d.message_id);
  }
  return ids;
}

std::string PathOf(const std::string& url) {
  const weblint::Url parsed = weblint::ParseUrl(url);
  return parsed.path;
}

}  // namespace

bool CheckDocument(const Document& doc, const std::vector<weblint::Diagnostic>& diagnostics,
                   Failures* failures) {
  return CheckFindings(doc.name, doc.expected, Ids(diagnostics), failures);
}

size_t CheckSiteLint(const SiteLintInputs& inputs, const std::string& root,
                     const weblint::SiteReport& report, Failures* failures) {
  std::map<std::string, const Document*> by_file;
  for (const Document& doc : inputs.pages) {
    by_file[root + doc.name] = &doc;
  }
  size_t failed = 0;
  bool site_ok = true;
  std::set<std::string> seen;
  for (const weblint::LintReport& page : report.pages) {
    const auto it = by_file.find(page.name);
    if (it == by_file.end()) {
      Add(failures, StrFormat("site_lint: report for unknown file %s", page.name));
      site_ok = false;
      continue;
    }
    if (!seen.insert(page.name).second) {
      Add(failures, StrFormat("site_lint: %s reported twice", page.name));
      ++failed;
    } else if (!CheckDocument(*it->second, page.diagnostics, failures)) {
      ++failed;
    }
  }
  if (seen.size() != by_file.size()) {
    Add(failures, StrFormat("site_lint: %d of %d pages reported", seen.size(), by_file.size()));
    failed += by_file.size() - seen.size();
  }

  std::set<std::string> orphans;
  for (const weblint::Diagnostic& d : report.site_diagnostics) {
    if (d.message_id != "orphan-page") {
      Add(failures, StrFormat("site_lint: unexpected site finding %s on %s", d.message_id, d.file));
      site_ok = false;
      continue;
    }
    orphans.insert(d.file);
  }
  std::set<std::string> expected_orphans;
  for (const std::string& path : inputs.orphan_paths) {
    expected_orphans.insert(root + path);
  }
  if (orphans != expected_orphans) {
    Add(failures, StrFormat("site_lint: %d orphan page(s) reported, generator has %d (%s)",
                            orphans.size(), expected_orphans.size(),
                            weblint::Join(std::vector<std::string>(orphans.begin(), orphans.end()),
                                          ",")));
    site_ok = false;
  }
  return site_ok ? std::min(failed, by_file.size()) : by_file.size();
}

size_t CheckCrawl(const CrawlInputs& inputs, const weblint::PoacherReport& report,
                  const weblint::CacheStats& cache,
                  const std::vector<std::string>& requested_paths, Failures* failures) {
  const weblint::GeneratedSite& site = inputs.site;
  std::map<std::string, std::string> page_html;
  for (const weblint::GeneratedSite::Page& page : site.pages) {
    page_html[page.path] = page.html;
  }

  // Reachable pages, each linted exactly once, against their truth.
  std::set<std::string> expected_urls;
  for (const std::string& path : inputs.reachable) {
    expected_urls.insert(site.UrlFor(path));
  }
  size_t failed = 0;
  bool site_ok = true;
  std::set<std::string> linted;
  for (const weblint::LintReport& page : report.pages) {
    if (!expected_urls.contains(page.name)) {
      Add(failures, StrFormat("crawl: linted %s, which is not a reachable page", page.name));
      site_ok = false;
      continue;
    }
    if (!linted.insert(page.name).second) {
      Add(failures, StrFormat("crawl: %s linted twice", page.name));
      ++failed;
      continue;
    }
    const std::string path = PathOf(page.name);
    const auto changed = inputs.changed.find(path);
    const Document& truth = changed != inputs.changed.end()
                                ? changed->second
                                : Document{path, page_html[path], {}};
    if (!CheckDocument(truth, page.diagnostics, failures)) {
      ++failed;
    }
  }
  for (const std::string& url : expected_urls) {
    if (!linted.contains(url)) {
      Add(failures, StrFormat("crawl: reachable page %s never linted", url));
      ++failed;
    }
  }

  // robots.txt: nothing under a disallowed path was requested at all.
  for (const std::string& path : requested_paths) {
    if (site.private_paths.contains(path) || path.rfind("/private/", 0) == 0) {
      Add(failures, StrFormat("crawl: robots.txt disallows %s, but it was requested", path));
      site_ok = false;
    }
  }

  // Broken links: exactly the generator's missing targets.
  std::set<std::string> broken;
  for (const weblint::LinkProblem& problem : report.broken_links) {
    broken.insert(PathOf(problem.target));
  }
  if (report.broken_links.size() != site.broken_link_count || broken != site.broken_targets) {
    Add(failures, StrFormat("crawl: broken links differ from the generator's (%d reported, "
                            "%d seeded)",
                            report.broken_links.size(), site.broken_link_count));
    site_ok = false;
  }

  // Redirects: each generated hop, with the URL the link should point to.
  std::set<std::pair<std::string, std::string>> redirects;
  for (const weblint::LinkProblem& problem : report.redirected_links) {
    redirects.emplace(PathOf(problem.target), problem.fixed);
  }
  const std::set<std::pair<std::string, std::string>> expected_redirects(site.redirects.begin(),
                                                                         site.redirects.end());
  if (report.redirected_links.size() != site.redirects.size() ||
      redirects != expected_redirects) {
    Add(failures, StrFormat("crawl: redirects differ from the generator's (%d reported, "
                            "%d made)",
                            report.redirected_links.size(), site.redirects.size()));
    site_ok = false;
  }

  // The warm cache holds every page as it was; only the changed ones miss.
  const size_t unchanged = inputs.reachable.size() - inputs.changed.size();
  if (cache.hits != unchanged || cache.misses != inputs.changed.size()) {
    Add(failures, StrFormat("crawl: cache hits %d / misses %d, expected %d / %d", cache.hits,
                            cache.misses, unchanged, inputs.changed.size()));
    site_ok = false;
  }
  if (report.stats.pages_degraded != 0) {
    Add(failures, StrFormat("crawl: %d page fetch(es) degraded", report.stats.pages_degraded));
    site_ok = false;
  }
  return site_ok ? std::min(failed, expected_urls.size()) : expected_urls.size();
}

std::vector<std::string> GatewayFindings(const std::string& body) {
  std::vector<std::string> ids;
  const std::string item = "<LI><STRONG>";
  const std::string open = "<SMALL>[";
  const std::string close = "]</SMALL>";
  size_t pos = body.find(item);
  while (pos != std::string::npos) {
    const size_t id_begin = body.find(open, pos);
    const size_t id_end = id_begin == std::string::npos ? id_begin : body.find(close, id_begin);
    if (id_end == std::string::npos) {
      ids.emplace_back("?");
      break;
    }
    ids.push_back(body.substr(id_begin + open.size(), id_end - id_begin - open.size()));
    pos = body.find(item, id_end);
  }
  return ids;
}

bool CheckGatewayResponse(const Document& paste, int status, const std::string& body,
                          const std::string* first, Failures* failures) {
  if (status == 0) {
    Add(failures, StrFormat("gateway: a request for %s got no valid answer", paste.name));
    return false;
  }
  if (status != 200) {
    Add(failures, StrFormat("gateway: %s answered %d", paste.name, status));
    return false;
  }
  if (first != nullptr) {
    if (body != *first) {
      Add(failures, StrFormat("gateway: repeated %s differs from its first report", paste.name));
      return false;
    }
    return true;  // Byte-identical to a response that was checked in full.
  }
  return CheckFindings(paste.name, paste.expected, GatewayFindings(body), failures);
}

}  // namespace perfbench
