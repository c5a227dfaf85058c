// Golden report digests (CTest label "golden"): every section of the full
// paper report for D0-D4 at golden::kScale must match the CRC-32 and byte
// length pinned in golden.cc, through both the streaming synthetic source
// and a materialized TraceSet, at 1 and 4 threads.  D3 is pinned a second
// time through capture files.  See golden.h for how to regenerate.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "golden.h"
#include "synth/generator.h"
#include "synth/synth_source.h"

namespace entrace {
namespace {

const EnterpriseModel& model() {
  static const EnterpriseModel m;
  return m;
}

AnalyzerConfig config(std::size_t threads) {
  AnalyzerConfig c = default_config_for_model(model().site());
  c.threads = threads;
  return c;
}

class GoldenTest : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenTest, StreamingAndMaterializedMatchPinnedDigests) {
  const std::string name = GetParam();
  const DatasetSpec spec = dataset_by_name(name, golden::kScale);
  const SyntheticTraceSourceSet streaming(spec, model());
  const TraceSet traces = generate_dataset(spec, model());
  const MemoryTraceSourceSet materialized(traces);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_TRUE(golden::report_matches(name, spec, analyze_dataset(streaming, config(threads))))
        << "streaming synthetic source";
    EXPECT_TRUE(
        golden::report_matches(name, spec, analyze_dataset(materialized, config(threads))))
        << "materialized trace set";
  }
}

INSTANTIATE_TEST_SUITE_P(Datasets, GoldenTest, ::testing::Values("D0", "D1", "D2", "D3", "D4"),
                         [](const auto& info) { return std::string(info.param); });

TEST(GoldenPcapTest, D3CaptureFilesMatchPinnedDigests) {
  const auto dir = std::filesystem::temp_directory_path() / "entrace_golden_pcaps";
  std::filesystem::create_directories(dir);
  const DatasetSpec spec = dataset_d3(golden::kScale);
  const std::vector<std::string> paths = generate_dataset_to_pcap(spec, model(), dir.string());
  const std::vector<TracePlan> plans = plan_dataset(spec);
  ASSERT_EQ(paths.size(), plans.size());
  std::vector<PcapTraceSpec> files;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    files.push_back({paths[i], plans[i].name, plans[i].subnet});
  }
  const PcapFileSourceSet sources(spec.name, std::move(files));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_TRUE(golden::report_matches("D3/pcap", spec, analyze_dataset(sources, config(threads))));
  }
  std::filesystem::remove_all(dir);
}

// The oracle's own sensitivity: a one-byte edit to any single section fails
// the check, and the failure names exactly that section.
TEST(GoldenDigestTest, OneByteEditNamesTheSection) {
  const DatasetSpec spec = dataset_d4(golden::kScale);
  const std::vector<golden::Section> clean =
      golden::report_sections(spec, analyze_dataset(SyntheticTraceSourceSet(spec, model()),
                                                    config(1)));
  ASSERT_TRUE(golden::sections_match("D4", clean));
  for (std::size_t i = 0; i < clean.size(); ++i) {
    SCOPED_TRACE("section " + clean[i].name);
    ASSERT_FALSE(clean[i].text.empty());
    std::vector<golden::Section> edited = clean;
    edited[i].text[edited[i].text.size() / 2] ^= 0x01;
    const ::testing::AssertionResult r = golden::sections_match("D4", edited);
    ASSERT_FALSE(r);
    const std::string msg = r.message();
    EXPECT_NE(msg.find("section " + clean[i].name + " of D4 drifted"), std::string::npos) << msg;
    for (std::size_t j = 0; j < clean.size(); ++j) {
      if (j == i) continue;
      EXPECT_EQ(msg.find(" " + clean[j].name + " of D4"), std::string::npos) << msg;
    }
  }
}

}  // namespace
}  // namespace entrace
