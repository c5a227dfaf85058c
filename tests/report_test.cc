// Tests for the core report layer: every table/figure renders sensibly on
// payload and header-only datasets, and analysis results are identical
// whether traces are analyzed in memory or round-tripped through pcap
// files on disk (the capture-file path a real deployment would use).
#include <gtest/gtest.h>

#include <filesystem>

#include "core/analyzer.h"
#include "core/report.h"
#include "synth/generator.h"

namespace entrace {
namespace {

class ReportTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    model_ = new EnterpriseModel();
    spec_ = new DatasetSpec(dataset_d4(0.01));
    spec_->monitored_subnets = {5, 8, 15, 16};
    const TraceSet traces = generate_dataset(*spec_, *model_);
    analysis_ = new DatasetAnalysis(
        analyze_dataset(traces, default_config_for_model(model_->site())));
    inputs_ = new std::vector<report::ReportInput>{{spec_, analysis_}};
  }
  static void TearDownTestSuite() {
    delete inputs_;
    delete analysis_;
    delete spec_;
    delete model_;
  }

  static EnterpriseModel* model_;
  static DatasetSpec* spec_;
  static DatasetAnalysis* analysis_;
  static std::vector<report::ReportInput>* inputs_;
};

EnterpriseModel* ReportTest::model_ = nullptr;
DatasetSpec* ReportTest::spec_ = nullptr;
DatasetAnalysis* ReportTest::analysis_ = nullptr;
std::vector<report::ReportInput>* ReportTest::inputs_ = nullptr;

TEST_F(ReportTest, EveryTableRendersNonEmpty) {
  using namespace report;
  const Inputs in(*inputs_);
  for (const SectionEntry& s : sections()) {
    EXPECT_GT(s.render(in).size(), 80u) << s.name;  // D4 carries payload: every scope is `in`
  }
  // Dataset-columned tables carry the dataset name (Table 15 aggregates
  // across datasets and is exempt).
  EXPECT_NE(report::table2_network_layer(in).find("D4"), std::string::npos);
  EXPECT_NE(report::table12_netfile_sizes(in).find("D4"), std::string::npos);
  EXPECT_GT(report::figure2_fan(inputs_->front()).size(), 100u);
  EXPECT_GT(report::figure9_utilization(inputs_->front()).size(), 100u);
}

TEST_F(ReportTest, TablesContainPercentCells) {
  const std::string t2 = report::table2_network_layer(*inputs_);
  EXPECT_NE(t2.find('%'), std::string::npos);
  const std::string t3 = report::table3_transport(*inputs_);
  EXPECT_NE(t3.find("Scanner conns removed"), std::string::npos);
}

TEST_F(ReportTest, MultiDatasetColumns) {
  // Rendering two inputs produces two data columns.
  std::vector<report::ReportInput> two = {inputs_->front(), inputs_->front()};
  const std::string text = report::table2_network_layer(two);
  const std::size_t first = text.find("D4");
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(text.find("D4", first + 1), std::string::npos);
}

TEST(PcapRoundTrip, AnalysisMatchesInMemoryAnalysis) {
  EnterpriseModel model;
  DatasetSpec spec = dataset_d0(0.005);
  spec.monitored_subnets = {2, 7};
  const TraceSet direct = generate_dataset(spec, model);

  // Write out as pcap files, read back, re-assemble the TraceSet.
  const auto dir = std::filesystem::temp_directory_path() / "entrace_report_rt";
  std::filesystem::create_directories(dir);
  TraceSet reloaded;
  reloaded.dataset_name = direct.dataset_name;
  for (const Trace& t : direct.traces) {
    const std::string path = (dir / (t.name + ".pcap")).string();
    t.save(path);
    reloaded.traces.push_back(Trace::load(path, t.name, t.subnet_id));
  }

  const AnalyzerConfig config = default_config_for_model(model.site());
  const DatasetAnalysis a = analyze_dataset(direct, config);
  const DatasetAnalysis b = analyze_dataset(reloaded, config);

  EXPECT_EQ(a.total_packets, b.total_packets);
  EXPECT_EQ(a.total_wire_bytes, b.total_wire_bytes);
  EXPECT_EQ(a.connections.size(), b.connections.size());
  EXPECT_EQ(a.scanners.size(), b.scanners.size());
  EXPECT_EQ(a.events.total(), b.events.total());
  EXPECT_EQ(a.payload_bytes(), b.payload_bytes());
  std::filesystem::remove_all(dir);
}

TEST(HeaderOnlyReport, PayloadTablesDegradeGracefully) {
  EnterpriseModel model;
  DatasetSpec spec = dataset_d2(0.004);
  spec.monitored_subnets = {3, 5};
  const TraceSet traces = generate_dataset(spec, model);
  const DatasetAnalysis analysis =
      analyze_dataset(traces, default_config_for_model(model.site()));
  const report::ReportInput input{&spec, &analysis};
  const std::vector<report::ReportInput> in{input};
  // Payload-dependent tables render (with zero totals) rather than crash.
  const std::string t13 = report::table13_nfs_requests(in);
  EXPECT_NE(t13.find("Total"), std::string::npos);
  const std::string t6 = report::table6_http_automation(in);
  EXPECT_NE(t6.find("scan1"), std::string::npos);
  // Transport-level tables are fully populated.
  const std::string t8 = report::table8_email_sizes(in);
  EXPECT_NE(t8.find("SIMAP"), std::string::npos);
}

}  // namespace
}  // namespace entrace
