#include "orchestrate/coverage.h"

#include <algorithm>
#include <cstdio>

#include "util/table.h"

namespace entrace::orchestrate {

std::string CoverageManifest::missing_ranges() const {
  if (missing.empty()) return "none";
  std::string out;
  std::size_t i = 0;
  while (i < missing.size()) {
    std::size_t j = i;
    while (j + 1 < missing.size() && missing[j + 1] == missing[j] + 1) ++j;
    if (!out.empty()) out += ", ";
    out += std::to_string(missing[i]);
    if (j > i) out.append("-").append(std::to_string(missing[j]));
    i = j + 1;
  }
  return out;
}

std::string CoverageManifest::render() const {
  TextTable t("Coverage manifest");
  t.set_header({"field", "value"});
  char scale_buf[48];
  std::snprintf(scale_buf, sizeof(scale_buf), "%g", scale);
  t.add_row({"dataset", dataset});
  t.add_row({"scale", scale_buf});
  t.add_row({"traces total", std::to_string(trace_count)});
  t.add_row({"traces covered", std::to_string(covered())});
  t.add_row({"traces missing", std::to_string(missing.size())});
  t.add_row({"missing indices", missing_ranges()});
  return t.render();
}

CoverageManifest manifest_for(const snapshot::SnapshotMeta& meta,
                              const std::vector<std::uint32_t>& present) {
  CoverageManifest m;
  m.dataset = meta.dataset;
  m.scale = meta.scale;
  m.trace_count = meta.trace_count;
  std::vector<bool> have(meta.trace_count, false);
  for (const std::uint32_t t : present) {
    if (t < meta.trace_count) have[t] = true;
  }
  for (std::uint32_t t = 0; t < meta.trace_count; ++t) {
    if (!have[t]) m.missing.push_back(t);
  }
  return m;
}

std::string partial_banner(const CoverageManifest& manifest) {
  char line[160];
  std::snprintf(line, sizeof(line),
                "!! PARTIAL RESULTS: %zu of %u traces missing (%s) — every number below "
                "covers only the %zu traces analyzed !!",
                manifest.missing.size(), manifest.trace_count,
                manifest.missing_ranges().c_str(), manifest.covered());
  const std::string text(line);
  const std::string rule(std::min<std::size_t>(text.size(), 78), '!');
  return rule + "\n" + text + "\n" + rule + "\n\n";
}

}  // namespace entrace::orchestrate
