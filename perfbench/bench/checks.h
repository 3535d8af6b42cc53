// Ground-truth checks. Every expectation comes from the corpus generators
// (inputs.h), never from a stored copy of the program's output. Each check
// appends one line per violation; an empty list means the outputs are
// correct.
#ifndef PERFBENCH_BENCH_CHECKS_H_
#define PERFBENCH_BENCH_CHECKS_H_

#include <string>
#include <vector>

#include "bench/inputs.h"
#include "cache/lint_cache.h"
#include "core/site_checker.h"
#include "robot/poacher.h"

namespace perfbench {

using Failures = std::vector<std::string>;

// A clean document raises no diagnostic; a defective one raises every
// message its seeded defects expect. Returns whether the document passed.
bool CheckDocument(const Document& doc, const std::vector<weblint::Diagnostic>& diagnostics,
                   Failures* failures);

// The workload checks below return how many of the round's operations
// (pages or requests) failed: each one whose own output is wrong or
// missing. A round-level property that fails (orphans, robots.txt, broken
// links, redirects, cache counts) fails every operation of the round.

// site_lint: each page against its truth, and the orphan-page findings
// equal the generator's orphan set (no other site-level finding).
size_t CheckSiteLint(const SiteLintInputs& inputs, const std::string& root,
                     const weblint::SiteReport& report, Failures* failures);

// crawl_recheck: every reachable page linted exactly once and nothing
// robots.txt disallows requested (`requested_paths` is the origin's log);
// broken links and redirects equal the generator's; cache hits equal the
// unchanged pages and misses the changed ones; each changed page reports
// its new defect (so a stale cache entry fails) and every other page is
// clean.
size_t CheckCrawl(const CrawlInputs& inputs, const weblint::PoacherReport& report,
                  const weblint::CacheStats& cache,
                  const std::vector<std::string>& requested_paths, Failures* failures);

// gateway_serve: status 200 (0: no answer), the report page lists exactly
// the expected findings (none for a clean paste), and a repeated paste's
// response is byte-identical to its first (`first` null: this is the
// first). Returns whether the response passed.
bool CheckGatewayResponse(const Document& paste, int status, const std::string& body,
                          const std::string* first, Failures* failures);

// The message ids a gateway report page lists, in order.
std::vector<std::string> GatewayFindings(const std::string& body);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_CHECKS_H_
