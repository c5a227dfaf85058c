// Golden report digests: the absolute oracle for the paper report.
//
// Every other equivalence test compares one route with another (streaming
// vs materialized, batch size A vs B, one process vs a fleet), so a change
// that shifts every route at once passes them all.  The table in golden.cc
// pins each section of report::full_report — CRC-32 plus byte length of one
// section function's output — for datasets D0-D4 at kScale, so such a shift
// fails here and names the table that drifted.
//
// Routes: "D0".."D4" are the synthetic datasets analyzed from packets with
// nanosecond-exact timestamps (streaming regeneration or a materialized
// TraceSet; both yield the same packets).  "D3/pcap" is D3 written to
// capture files and streamed back: pcap's microsecond timestamps quantize
// the packet clock, so that route renders a different report of its own.
//
// Regenerating: a mismatch prints the replacement row of every drifted
// section; paste those rows over the old ones in golden.cc and log the
// regeneration, with its reason, in CHANGES.md.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/analyzer.h"
#include "synth/dataset_spec.h"

namespace entrace::golden {

// Scale of every pinned dataset (small enough that all five generate and
// analyze in about a second and a half).
inline constexpr double kScale = 0.004;

struct Section {
  std::string name;  // the report:: function that rendered it
  std::string text;
};

// full_report's sections for one dataset, in report order;
// report_matches() checks that they join to full_report's text.
std::vector<Section> report_sections(const DatasetSpec& spec, const DatasetAnalysis& analysis);

// Checks `sections` against the pinned rows of `route`.  On failure the
// message names every drifted, missing or unexpected section and prints
// the replacement rows.
::testing::AssertionResult sections_match(const std::string& route,
                                          const std::vector<Section>& sections);

// report_sections + sections_match, plus a check that the sections join
// to exactly report::full_report's text.
::testing::AssertionResult report_matches(const std::string& route, const DatasetSpec& spec,
                                          const DatasetAnalysis& analysis);

}  // namespace entrace::golden
