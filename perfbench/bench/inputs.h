// Seeded inputs for the three workloads, built only from the corpus
// generators, together with the ground truth the generators know about
// them: which documents are clean, which message each seeded defect must
// raise, the site's orphans, broken links, redirects and robots.txt rules.
#ifndef PERFBENCH_BENCH_INPUTS_H_
#define PERFBENCH_BENCH_INPUTS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "corpus/site_generator.h"

namespace perfbench {

// One generated document and the message ids its seeded defects must
// raise under the default message set (empty: a clean document, which must
// raise nothing at all).
struct Document {
  std::string name;
  std::string html;
  std::vector<std::string> expected;
};

// `small` shrinks every workload for the self-test; the make-up is the same.
struct SiteLintInputs {
  std::vector<Document> pages;          // name = site path, "/page3.html".
  std::set<std::string> orphan_paths;   // Generator's orphan set.
  size_t bytes = 0;
};
SiteLintInputs MakeSiteLintInputs(std::uint64_t seed, bool small);

struct CrawlInputs {
  weblint::GeneratedSite site;              // The version the cache was warmed on.
  std::vector<std::string> reachable;       // Paths the crawl must lint.
  std::map<std::string, Document> changed;  // Path -> new version with one defect.
};
// `host` is the origin's authority ("127.0.0.1:port"): redirect targets
// are absolute URLs on it.
CrawlInputs MakeCrawlInputs(std::uint64_t seed, const std::string& host, bool small);

struct GatewayInputs {
  std::vector<Document> pool;  // Distinct pastes.
  // One round of requests: indices into `pool`, each paste four times, so
  // a round's first sights (cache misses) equal pool.size().
  std::vector<size_t> round;
};
GatewayInputs MakeGatewayInputs(std::uint64_t seed, bool small);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_INPUTS_H_
