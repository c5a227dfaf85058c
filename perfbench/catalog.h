// What the benchmark measures: its workloads, and every metric with its
// unit, its layer (a module under src/), where the figure comes from and
// which end-to-end number it should move.  `perfbench --list`
// prints this; BENCHMARK.json names the same metrics (selftest.py checks
// that the two agree).
#pragma once

#include <string_view>
#include <vector>

namespace perfbench {

struct WorkloadDef {
  const char* name;
  const char* why;
};

enum class MetricKind { kEndToEnd, kPerLayer };

struct MetricDef {
  const char* name;
  const char* unit;
  MetricKind kind;
  const char* layer;   // src/ module, or "bench" for the harness itself
  const char* source;  // how the figure is obtained
  const char* moves;   // the end-to-end numbers it should move
};

const std::vector<WorkloadDef>& workloads();
const std::vector<MetricDef>& metrics();

// Throws std::out_of_range for a name the catalog does not hold.
const MetricDef& metric(std::string_view name);

}  // namespace perfbench
