#include "bench/inputs.h"

#include <algorithm>
#include <numeric>

#include "corpus/page_generator.h"
#include "corpus/rng.h"
#include "util/strings.h"

namespace perfbench {

using weblint::DefectKind;
using weblint::PageGenerator;
using weblint::SplitMix64;

namespace {

template <typename T>
void Shuffle(std::vector<T>* items, SplitMix64* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->Below(i)]);
  }
}

// The markup between <BODY> and </BODY> of a generated page, so pieces
// from several generators can be combined into one page.
std::string BodyOf(const std::string& html) {
  const std::string open = "<BODY>\n";
  const size_t begin = html.find(open);
  const size_t end = html.rfind("</BODY>");
  if (begin == std::string::npos || end == std::string::npos || end < begin) {
    return {};
  }
  return html.substr(begin + open.size(), end - begin - open.size());
}

void InsertBeforeBodyEnd(std::string* html, const std::string& chunk) {
  const size_t end = html->rfind("</BODY>");
  html->insert(end == std::string::npos ? html->size() : end, chunk);
}

std::vector<std::string> ExpectedMessages(const std::vector<DefectKind>& kinds) {
  std::vector<std::string> out;
  for (DefectKind kind : kinds) {
    out.emplace_back(weblint::DefectExpectedMessage(kind));
  }
  return out;
}

// `count` consecutive kinds from the rotation starting at `first`.
std::vector<DefectKind> KindsFrom(const std::vector<DefectKind>& rotation, size_t first,
                                  size_t count) {
  std::vector<DefectKind> kinds;
  for (size_t i = 0; i < count; ++i) {
    kinds.push_back(rotation[(first + i) % rotation.size()]);
  }
  return kinds;
}

std::vector<DefectKind> AllKinds() {
  std::vector<DefectKind> kinds;
  for (size_t i = 0; i < weblint::kDefectKindCount; ++i) {
    kinds.push_back(static_cast<DefectKind>(i));
  }
  return kinds;
}

}  // namespace

SiteLintInputs MakeSiteLintInputs(std::uint64_t seed, bool small) {
  weblint::SiteSpec spec;
  spec.host = "site.example";
  spec.pages = small ? 9 : 95;
  spec.links_per_page = 4;
  spec.broken_links = 0;  // On disk a missing target is not a page fault.
  spec.orphan_pages = small ? 1 : 4;
  spec.redirects = 0;
  spec.paragraphs_per_page = 4;
  spec.robots_disallow_private = false;
  spec.private_pages = 0;
  spec.seed = seed;
  const weblint::GeneratedSite site = weblint::GenerateSite(spec);

  SplitMix64 rng(seed ^ 0x51e11a7ULL);
  const size_t n = site.pages.size();

  // Every page gets a shaped body: the five shapes crossed with five size
  // classes, dealt out evenly and shuffled, so the byte total and markup
  // mix are the same for every seed and only their placement varies.
  static constexpr size_t kSizeClassesKb[] = {2, 8, 24, 80, 240};
  std::vector<size_t> slots(n);
  std::iota(slots.begin(), slots.end(), 0);
  Shuffle(&slots, &rng);

  // A fixed fifth of the pages carries three seeded defects each; the
  // defect kinds rotate through all twelve.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  Shuffle(&order, &rng);
  const size_t defective = std::max<size_t>(1, n / 5);
  std::vector<int> defect_slot(n, -1);
  for (size_t i = 0; i < defective; ++i) {
    defect_slot[order[i]] = static_cast<int>(i);
  }
  const size_t kind_offset = rng.Below(weblint::kDefectKindCount);
  const std::vector<DefectKind> kinds = AllKinds();

  SiteLintInputs inputs;
  inputs.orphan_paths = site.orphan_paths;
  for (size_t i = 0; i < n; ++i) {
    const weblint::GeneratedSite::Page& page = site.pages[i];
    Document doc;
    doc.name = page.path;
    doc.html = page.html;

    const size_t combo = slots[i] % 25;
    const auto shape = static_cast<PageGenerator::Shape>(combo % 5);
    const size_t size_kb = small ? 1 + combo / 5 : kSizeClassesKb[combo / 5];
    const size_t target = size_kb * 1024 * rng.Between(90, 110) / 100;
    PageGenerator shaped(seed * 1000003ULL + i);
    InsertBeforeBodyEnd(&doc.html, BodyOf(shaped.GenerateShaped(shape, target)));

    if (defect_slot[i] >= 0) {
      const std::vector<DefectKind> page_kinds =
          KindsFrom(kinds, kind_offset + 3 * static_cast<size_t>(defect_slot[i]), 3);
      weblint::PageSpec defect_spec;
      defect_spec.paragraphs = 3;
      defect_spec.links = 2;
      defect_spec.images = 1;
      PageGenerator defects(seed * 7919ULL + i);
      InsertBeforeBodyEnd(&doc.html, BodyOf(defects.Generate(defect_spec, page_kinds).html));
      doc.expected = ExpectedMessages(page_kinds);
    }
    inputs.bytes += doc.html.size();
    inputs.pages.push_back(std::move(doc));
  }
  return inputs;
}

CrawlInputs MakeCrawlInputs(std::uint64_t seed, const std::string& host, bool small) {
  weblint::SiteSpec spec;
  spec.host = host;
  spec.pages = small ? 12 : 150;
  spec.links_per_page = 4;
  spec.broken_links = small ? 2 : 6;
  spec.orphan_pages = 3;
  spec.redirects = small ? 1 : 4;
  spec.paragraphs_per_page = 10;
  spec.robots_disallow_private = true;
  spec.private_pages = small ? 1 : 4;
  spec.seed = seed;

  CrawlInputs inputs;
  inputs.site = weblint::GenerateSite(spec);
  inputs.reachable.push_back("/index.html");
  for (size_t i = 0; i < spec.pages; ++i) {
    inputs.reachable.push_back(weblint::StrFormat("/page%d.html", i));
  }

  // A fixed tenth of the reachable pages changes at the origin, each change
  // adding one seeded defect. Kinds whose markup references another
  // document (an HREF, a FORM ACTION, an IMG SRC) are left out: they would
  // add links the generated topology does not have, and the crawl would
  // rightly report them as broken.
  const std::vector<DefectKind> kinds = {
      DefectKind::kUnclosedElement,  DefectKind::kHeadingMismatch,
      DefectKind::kOverlap,          DefectKind::kUnknownElement,
      DefectKind::kUnknownAttribute, DefectKind::kDeprecatedElement,
      DefectKind::kBadEntity,        DefectKind::kIllegalClosing,
  };
  SplitMix64 rng(seed ^ 0xc4a41ULL);
  std::vector<std::string> order = inputs.reachable;
  Shuffle(&order, &rng);
  const size_t changed = std::max<size_t>(1, inputs.reachable.size() / 10);
  const size_t kind_offset = rng.Below(kinds.size());
  std::map<std::string, const std::string*> html_by_path;
  for (const weblint::GeneratedSite::Page& page : inputs.site.pages) {
    html_by_path[page.path] = &page.html;
  }
  for (size_t i = 0; i < changed; ++i) {
    const std::string& path = order[i];
    const DefectKind kind = kinds[(kind_offset + i) % kinds.size()];
    weblint::PageSpec defect_spec;
    defect_spec.paragraphs = 1;
    defect_spec.links = 0;
    defect_spec.images = 0;
    PageGenerator defects(seed * 104729ULL + i);
    Document doc;
    doc.name = path;
    doc.html = *html_by_path.at(path);
    InsertBeforeBodyEnd(&doc.html, BodyOf(defects.Generate(defect_spec, {kind}).html));
    doc.expected = ExpectedMessages({kind});
    inputs.changed.emplace(path, std::move(doc));
  }
  return inputs;
}

GatewayInputs MakeGatewayInputs(std::uint64_t seed, bool small) {
  // Four size classes (about 1.5, 5, 17 and 50 KB of prose plus lists and
  // tables), equally represented; a third of the pool carries two seeded
  // defects each, rotating through all twelve kinds.
  static constexpr size_t kParagraphs[] = {6, 24, 80, 240};
  const size_t pool_size = small ? 8 : 48;
  SplitMix64 rng(seed ^ 0x6a7e3a1ULL);
  std::vector<size_t> order(pool_size);
  std::iota(order.begin(), order.end(), 0);
  Shuffle(&order, &rng);
  const size_t kind_offset = rng.Below(weblint::kDefectKindCount);
  const std::vector<DefectKind> kinds = AllKinds();

  GatewayInputs inputs;
  PageGenerator pages(seed ^ 0x9a7e0ULL);
  for (size_t i = 0; i < pool_size; ++i) {
    const size_t paragraphs = kParagraphs[order[i] % 4] / (small ? 4 : 1);
    weblint::PageSpec spec;
    spec.paragraphs = paragraphs;
    spec.links = 3;
    spec.images = 1;
    spec.list_items = paragraphs / 8;
    spec.table_rows = paragraphs / 8;
    std::vector<DefectKind> page_kinds;
    if (order[i] < pool_size / 3) {
      page_kinds = KindsFrom(kinds, kind_offset + 2 * order[i], 2);
    }
    Document doc;
    doc.name = weblint::StrFormat("paste%d", i);
    doc.html = pages.Generate(spec, page_kinds).html;
    doc.expected = ExpectedMessages(page_kinds);
    inputs.pool.push_back(std::move(doc));
  }

  // Every paste four times in a seeded order: its first request misses the
  // cache and the three repeats hit. Equal counts keep the size mix of a
  // round the same for every seed.
  for (size_t copy = 0; copy < 4; ++copy) {
    for (size_t i = 0; i < pool_size; ++i) {
      inputs.round.push_back(i);
    }
  }
  Shuffle(&inputs.round, &rng);
  return inputs;
}

}  // namespace perfbench
