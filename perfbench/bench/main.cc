// The benchmark binary. Usage:
//
//   perfbench --workload site_lint|crawl_recheck|gateway_serve --seed N
//             --seconds S --trace 0|1 [--work-dir DIR] [--git-sha SHA]
//
// Prints the run's identity as "# key: value" lines, then as its last line
// one JSON object: {"correct", "attempted", "failed", "metrics"}, and exits
// 1 when a check failed (correct is false). With --trace 0 the metrics are
// the end-to-end ones, with --trace 1 the per-layer ones (and the spans are
// written under DIR's parent).
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/workloads.h"
#include "telemetry/build_info.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

// Taken during static initialisation, before main: set-up time counts from
// the process's start.
const std::int64_t g_process_start_ns = perfbench::NowNs();

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--git-sha SHA]\n",
               why);
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  config.start_ns = g_process_start_ns;
  config.work_dir = ".bench_out";
  std::string git_sha = "unknown";
  bool have_workload = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      have_seconds = config.seconds > 0;
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload || !have_seconds) {
    return Usage("--workload and a positive --seconds are required");
  }
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  config.nproc = cpus > 0 ? static_cast<unsigned>(cpus) : 1;
  // One work directory per process, so concurrent runs never share files.
  config.work_dir += "/" + config.workload + "-" + std::to_string(config.seed) + "-" +
                     std::to_string(getpid());

  const weblint::BuildInfoFields& build = weblint::GetBuildInfo();
  std::printf("# workload: %s\n# seed: %llu\n# git_sha: %s\n# nproc: %u\n# compiler: %s\n"
              "# build_type: %s\n# simd: %s\n# weblint_version: %s\n",
              config.workload.c_str(), static_cast<unsigned long long>(config.seed),
              git_sha.c_str(), config.nproc, build.compiler.c_str(), PERFBENCH_BUILD_TYPE,
              build.simd.c_str(), build.version.c_str());

  const perfbench::RunResult result = perfbench::RunWorkload(config);
  for (const auto& [key, value] : result.info) {
    std::printf("# %s: %s\n", key.c_str(), value.c_str());
  }
  for (const std::string& failure : result.failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", failure.c_str());
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation ran\n");
    return 1;
  }

  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", m.value);
    json += (i == 0 ? "" : ", ") + JsonString(m.name) + ": {\"value\": " + value +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return result.correct ? 0 : 1;
}
