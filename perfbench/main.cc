// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload batch|daemon|fleet --seed N --seconds S --trace 0|1
//                    --work-dir DIR --out-dir DIR [--smoke] [--corrupt-report]
//   perfbench --list
//
// Standard output is a table of every metric measured, with its unit and
// sample count, then one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// whose metrics are the end-to-end ones (--trace 0) or the per-layer ones
// (--trace 1).  A per-layer metric of a layer the workload leaves idle
// reads 0.  The exit code is 0 when every report matched the reference,
// 1 when one did not, 2 on a usage or run error (nothing is printed then).
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>

#include "catalog.h"
#include "spans.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload batch|daemon|fleet --seed N --seconds S "
               "--trace 0|1\n"
               "                        --work-dir DIR --out-dir DIR [--smoke] "
               "[--corrupt-report]\n"
               "       perfbench --list\n");
  return 2;
}

const char* kind_name(MetricKind k) { return k == MetricKind::kEndToEnd ? "end_to_end" : "per_layer"; }

void print_list() {
  std::printf("workloads (closed loop, one process, at most 4 busy analysis threads):\n");
  for (const WorkloadDef& w : workloads()) std::printf("  %-7s %s\n", w.name, w.why);
  for (const MetricKind kind : {MetricKind::kEndToEnd, MetricKind::kPerLayer}) {
    std::printf("\n%s metrics (%s):\n", kind_name(kind),
                kind == MetricKind::kEndToEnd ? "--trace 0, untraced passes"
                                              : "--trace 1, traced passes");
    std::printf("  %-26s %-6s %-12s %-46s %s\n", "name", "unit", "layer", "should move",
                "source");
    for (const MetricDef& m : metrics()) {
      if (m.kind != kind) continue;
      std::printf("  %-26s %-6s %-12s %-46s %s\n", m.name, m.unit, m.layer, m.moves, m.source);
    }
  }
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  now_s();  // start the clock setup_s is measured on
  Options opts;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    std::uint64_t v = 0;
    if (arg == "--list") {
      print_list();
      return 0;
    } else if (arg == "--workload" && has_value) {
      opts.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value && parse_u64(argv[i + 1], v)) {
      ++i;
      opts.seed = v;
      have_seed = true;
    } else if (arg == "--seconds" && has_value && parse_u64(argv[i + 1], v) && v >= 1) {
      ++i;
      opts.seconds = static_cast<double>(v);
      have_seconds = true;
    } else if (arg == "--trace" && has_value && parse_u64(argv[i + 1], v) && v <= 1) {
      ++i;
      opts.trace = v == 1;
      have_trace = true;
    } else if (arg == "--work-dir" && has_value) {
      opts.work_dir = argv[++i];
    } else if (arg == "--out-dir" && has_value) {
      opts.out_dir = argv[++i];
    } else if (arg == "--smoke") {
      opts.smoke = true;
    } else if (arg == "--corrupt-report") {
      opts.corrupt_report = true;
    } else {
      std::fprintf(stderr, "perfbench: bad argument '%s'\n", arg.c_str());
      return usage();
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace || opts.work_dir.empty() ||
      opts.out_dir.empty()) {
    return usage();
  }

  Result result;
  std::map<std::string, Metric> measured;
  try {
    std::filesystem::create_directories(opts.out_dir);
    std::filesystem::remove_all(opts.work_dir);
    std::filesystem::create_directories(opts.work_dir);
    result = run_workload(opts);
    std::filesystem::remove_all(opts.work_dir);
    for (const Metric& m : result.metrics) {
      metric(m.name);  // every figure must be in the catalog
      if (!std::isfinite(m.value)) throw std::runtime_error(m.name + " is not a finite number");
      measured[m.name] = m;
    }
    for (const MetricDef& d : metrics()) {
      if (d.kind == MetricKind::kEndToEnd && measured.count(d.name) == 0) {
        throw std::runtime_error(std::string(d.name) + " was not measured");
      }
    }
  } catch (const std::exception& e) {
    std::error_code ignored;
    std::filesystem::remove_all(opts.work_dir, ignored);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  const MetricKind shown = opts.trace ? MetricKind::kPerLayer : MetricKind::kEndToEnd;
  std::printf("perfbench %s seed %llu%s: %llu attempted, %llu failed\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.trace ? " (traced)" : "",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  std::printf("  %-26s %18s %-6s %8s %s\n", "metric", "value", "unit", "samples", "kind");
  for (const MetricDef& d : metrics()) {
    const auto it = measured.find(d.name);
    if (it == measured.end()) continue;
    std::printf("  %-26s %18.6f %-6s %8zu %s\n", d.name, it->second.value, d.unit,
                it->second.samples, kind_name(d.kind));
  }

  std::string json;
  for (const MetricDef& d : metrics()) {
    if (d.kind != shown) continue;
    const auto it = measured.find(d.name);
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", it != measured.end() ? it->second.value : 0.0);
    json += std::string(json.empty() ? "" : ", ") + "\"" + d.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + d.unit + "\"}";
  }
  const bool correct = result.failed == 0 && result.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
