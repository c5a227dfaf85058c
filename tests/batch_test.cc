// Batch-size equivalence suite (CTest label "batch", also run under
// sanitizers via `ctest --preset batch-asan` / `ctest --preset batch-tsan`).
//
// analyze_trace has one ingest loop; AnalyzerConfig::batch_size only
// regroups its work — next_batch + SoA decode + tally + flow stages must
// produce reports byte-identical for every batch size (1 included), every
// PacketSource kind, every thread count, and through the shard -> snapshot
// -> merge path.  Clean runs are checked against the pinned golden digests
// (golden.h), so agreement among batch sizes cannot hide a shared drift;
// corrupted runs, which have no pinned digest, are checked against each
// other down to the exact anomaly taxonomy.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/report.h"
#include "golden.h"
#include "snapshot/format.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"
#include "synth/corruptor.h"
#include "synth/generator.h"
#include "synth/synth_source.h"

namespace entrace {
namespace {

namespace snap = entrace::snapshot;

// Batch sizes under test: one packet per batch, a small odd size that never
// divides trace/slice lengths evenly (exercises ragged final batches and
// slice-boundary short batches), and the production default.
constexpr std::array<std::size_t, 3> kBatchSizes = {1, 7, 256};

class BatchTest : public ::testing::Test {
 protected:
  static const EnterpriseModel& model() {
    static const EnterpriseModel m;
    return m;
  }
  static DatasetSpec spec() { return dataset_d3(golden::kScale); }
  static const TraceSet& materialized() {
    static const TraceSet traces = generate_dataset(spec(), model());
    return traces;
  }
  static AnalyzerConfig config(std::size_t threads, std::size_t batch_size) {
    AnalyzerConfig c = default_config_for_model(model().site());
    c.threads = threads;
    c.batch_size = batch_size;
    return c;
  }
  static std::string report_of(const DatasetAnalysis& analysis) {
    const DatasetSpec s = spec();
    const report::ReportInput input{&s, &analysis};
    const std::vector<report::ReportInput> inputs{input};
    return report::full_report(inputs);
  }
};

// ---- source-kind coverage ---------------------------------------------------

TEST_F(BatchTest, MemorySourceBatchedReportsMatchScalar) {
  const MemoryTraceSourceSet sources(materialized());
  for (const std::size_t batch : kBatchSizes) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE("batch=" + std::to_string(batch) +
                   " threads=" + std::to_string(threads));
      const DatasetAnalysis a = analyze_dataset(sources, config(threads, batch));
      EXPECT_TRUE(golden::report_matches("D3", spec(), a));
    }
  }
}

TEST_F(BatchTest, SyntheticSourceBatchedReportsMatchScalar) {
  // slices=3 divides nothing evenly, so batches straddle slice refills; the
  // double_buffer toggle covers both the inline and the producer-thread
  // regeneration paths feeding pull_batch.
  for (const bool double_buffer : {false, true}) {
    const SyntheticTraceSourceSet sources(spec(), model(), {3, double_buffer});
    for (const std::size_t batch : kBatchSizes) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE("double_buffer=" + std::to_string(double_buffer) +
                     " batch=" + std::to_string(batch) +
                     " threads=" + std::to_string(threads));
        const DatasetAnalysis a = analyze_dataset(sources, config(threads, batch));
        EXPECT_TRUE(golden::report_matches("D3", spec(), a));
      }
    }
  }
}

TEST_F(BatchTest, PcapFileSourceBatchedReportsMatchScalar) {
  const auto dir = std::filesystem::temp_directory_path() / "entrace_batch_pcaps";
  std::filesystem::create_directories(dir);
  const std::vector<std::string> paths = generate_dataset_to_pcap(spec(), model(), dir.string());
  const std::vector<TracePlan> plans = plan_dataset(spec());
  ASSERT_EQ(paths.size(), plans.size());
  std::vector<PcapTraceSpec> files;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    files.push_back({paths[i], plans[i].name, plans[i].subnet});
  }
  const PcapFileSourceSet sources(spec().name, std::move(files));

  // Capture files have their own pinned route: usec timestamp quantization
  // gives them a different report than the nanosecond-exact packets.
  for (const std::size_t batch : kBatchSizes) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE("batch=" + std::to_string(batch) +
                   " threads=" + std::to_string(threads));
      const DatasetAnalysis a = analyze_dataset(sources, config(threads, batch));
      EXPECT_TRUE(golden::report_matches("D3/pcap", spec(), a));
    }
  }
  std::filesystem::remove_all(dir);
}

// ---- fuzzed input -----------------------------------------------------------

// The batched decode stage pre-validates capture bounds before its in-place
// field loads; corrupted captures are where that validation earns its keep.
// Across 8 corruption seeds every batch size must reproduce the one-packet
// batch's full report AND its exact anomaly taxonomy.
TEST_F(BatchTest, CorruptedTracesBatchedMatchScalarTaxonomy) {
  const std::array<std::uint64_t, 8> seeds = {1, 2, 3, 5, 8, 13, 21, 34};
  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    TraceSet corrupted = materialized();
    CorruptionConfig cc;
    cc.seed = seed;
    cc.rate = 0.1;
    corrupt_dataset(corrupted, cc);

    const DatasetAnalysis one = analyze_dataset(corrupted, config(1, 1));
    const std::string one_report = report_of(one);
    for (const std::size_t batch : {std::size_t{7}, std::size_t{256}}) {
      SCOPED_TRACE("batch=" + std::to_string(batch));
      const DatasetAnalysis batched = analyze_dataset(corrupted, config(1, batch));
      EXPECT_EQ(batched.quality.anomalies.as_map(), one.quality.anomalies.as_map());
      EXPECT_EQ(batched.quality, one.quality);
      EXPECT_EQ(report_of(batched), one_report);
    }
  }
}

// ---- shard -> snapshot -> merge ---------------------------------------------

// Shards computed by the batched pipeline, snapshotted to disk and merged
// back (entrace_shard / entrace_merge style) must fold to the pinned
// single-process report.
TEST_F(BatchTest, ShardSnapshotMergeBatchedMatchesScalar) {
  const SyntheticTraceSourceSet sources(spec(), model(), {3});
  const std::size_t n = sources.size();
  ASSERT_GE(n, 2u);
  const snap::SnapshotMeta meta{spec().name, golden::kScale, static_cast<std::uint32_t>(n)};

  // Two shard files, split mid-dataset, both analyzed with the batched loop.
  const std::size_t cut = n / 2;
  std::vector<std::string> paths;
  const auto write_range = [&](const std::string& name, std::size_t lo, std::size_t hi) {
    const std::string path = (std::filesystem::temp_directory_path() / name).string();
    std::vector<TraceShard> shards = analyze_trace_shards(sources, config(1, 256), lo, hi);
    snap::SnapshotWriter writer(path, meta);
    for (std::size_t i = 0; i < shards.size(); ++i) {
      writer.add_shard(static_cast<std::uint32_t>(lo + i), shards[i]);
    }
    writer.close();
    paths.push_back(path);
  };
  write_range("entrace_batch_lo.esnap", 0, cut);
  write_range("entrace_batch_hi.esnap", cut, n);

  std::vector<snap::SnapshotShard> all;
  for (const std::string& p : paths) {
    snap::Snapshot s = snap::read_snapshot(p);
    EXPECT_EQ(s.meta, meta) << p;
    for (auto& shard : s.shards) all.push_back(std::move(shard));
  }
  std::sort(all.begin(), all.end(),
            [](const snap::SnapshotShard& a, const snap::SnapshotShard& b) {
              return a.trace_index < b.trace_index;
            });
  std::vector<TraceShard> shards;
  shards.reserve(all.size());
  for (auto& s : all) shards.push_back(std::move(s.shard));
  const DatasetAnalysis merged =
      fold_shards(spec().name, std::move(shards), config(1, 256));

  EXPECT_TRUE(golden::report_matches("D3", spec(), merged));
  for (const std::string& p : paths) std::filesystem::remove(p);
}

}  // namespace
}  // namespace entrace
