// Streaming-pipeline equivalence suite (CTest label "streaming", also run
// under ASan+UBSan via `ctest --preset streaming-asan`).
//
// The refactor's contract: analyze_dataset over any PacketSource kind —
// in-memory trace, pcap file streamed off disk, or incremental synthetic
// regeneration — produces bit-identical DatasetAnalysis results (including
// capture-quality anomaly accounting) to the materialized path, at every
// thread count.  These tests pin that contract down source by source and
// end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/report.h"
#include "pcap/packet_source.h"
#include "synth/generator.h"
#include "synth/synth_source.h"

namespace entrace {
namespace {

// ---- packet-stream level ----------------------------------------------------

class StreamingTest : public ::testing::Test {
 protected:
  static const EnterpriseModel& model() {
    static const EnterpriseModel m;
    return m;
  }
  static DatasetSpec small_spec() {
    DatasetSpec spec = dataset_d3(0.004);
    spec.monitored_subnets = {4, 15, 20};
    return spec;
  }
  static const TraceSet& materialized() {
    static const TraceSet traces = generate_dataset(small_spec(), model());
    return traces;
  }
  static AnalyzerConfig config(std::size_t threads) {
    AnalyzerConfig c = default_config_for_model(model().site());
    c.threads = threads;
    return c;
  }
};

// Drains `source` through next_batch in batches of `batch`, copying each
// view; afterwards the source must stay drained.
std::vector<RawPacket> drain(PacketSource& source, std::size_t batch) {
  std::vector<PacketView> views(batch);
  std::vector<RawPacket> out;
  while (const std::size_t got = source.next_batch(views.data(), batch)) {
    for (std::size_t i = 0; i < got; ++i) {
      const PacketView& v = views[i];
      out.push_back({v.ts, v.wire_len, {v.data.begin(), v.data.end()}});
    }
  }
  EXPECT_EQ(source.next_batch(views.data(), batch), 0u) << "source must stay drained";
  return out;
}

TEST_F(StreamingTest, MemoryTraceSourceIsZeroCopy) {
  const Trace& trace = materialized().traces.front();
  MemoryTraceSource source(trace);
  EXPECT_EQ(source.meta().name, trace.name);
  EXPECT_EQ(source.meta().subnet_id, trace.subnet_id);
  EXPECT_EQ(source.meta().snaplen, trace.snaplen);
  // An odd batch size leaves a ragged final batch.
  std::vector<PacketView> views(7);
  std::size_t i = 0;
  while (const std::size_t got = source.next_batch(views.data(), views.size())) {
    for (std::size_t k = 0; k < got; ++k, ++i) {
      ASSERT_LT(i, trace.packets.size());
      // The view aliases the trace's own bytes.
      ASSERT_EQ(views[k].data.data(), trace.packets[i].data.data()) << "packet " << i;
      ASSERT_EQ(views[k].data.size(), trace.packets[i].data.size()) << "packet " << i;
      ASSERT_EQ(views[k].ts, trace.packets[i].ts) << "packet " << i;
      ASSERT_EQ(views[k].wire_len, trace.packets[i].wire_len) << "packet " << i;
    }
  }
  EXPECT_EQ(i, trace.packets.size());
  EXPECT_EQ(source.next_batch(views.data(), views.size()), 0u);
}

TEST_F(StreamingTest, SyntheticSourceReproducesMaterializedTraceExactly) {
  const DatasetSpec spec = small_spec();
  const std::vector<TracePlan> plans = plan_dataset(spec);
  ASSERT_EQ(plans.size(), materialized().traces.size());
  // Slice counts that divide the window unevenly must not matter.
  for (const int slices : {1, 3, 8}) {
    SCOPED_TRACE("slices=" + std::to_string(slices));
    for (std::size_t t = 0; t < plans.size(); ++t) {
      const Trace& want = materialized().traces[t];
      SyntheticTraceSource source(spec, model(), plans[t], {slices});
      EXPECT_EQ(source.meta().name, want.name);
      EXPECT_EQ(source.meta().subnet_id, want.subnet_id);
      const std::vector<RawPacket> got = drain(source, 64);
      ASSERT_EQ(got.size(), want.packets.size()) << "trace " << t;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_DOUBLE_EQ(got[i].ts, want.packets[i].ts) << "trace " << t << " packet " << i;
        ASSERT_EQ(got[i].wire_len, want.packets[i].wire_len) << "trace " << t << " packet " << i;
        ASSERT_EQ(got[i].data, want.packets[i].data) << "trace " << t << " packet " << i;
      }
    }
  }
}

TEST_F(StreamingTest, PcapFileSourceMatchesLoadedTrace) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "entrace_stream_eq.pcap").string();
  materialized().traces.front().save(path);

  std::string error;
  const auto loaded = Trace::try_load(path, "t", 4, &error);
  ASSERT_TRUE(loaded.has_value()) << error;

  PcapFileSource source(path, "t", 4);
  EXPECT_EQ(source.meta().snaplen, loaded->snaplen);
  const std::vector<RawPacket> got = drain(source, 64);
  ASSERT_EQ(got.size(), loaded->packets.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].ts, loaded->packets[i].ts) << "packet " << i;
    ASSERT_EQ(got[i].wire_len, loaded->packets[i].wire_len) << "packet " << i;
    ASSERT_EQ(got[i].data, loaded->packets[i].data) << "packet " << i;
  }
  EXPECT_EQ(source.anomalies(), loaded->file_anomalies);
  std::filesystem::remove(path);
}

TEST_F(StreamingTest, PcapFileSourceSalvagesTruncatedTailLikeTryLoad) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "entrace_stream_cut.pcap").string();
  materialized().traces.front().save(path);
  // Cut the file mid-record: global header + some whole records + half a
  // record body.  79 bytes in guarantees we land inside record territory.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 79);

  std::string error;
  const auto loaded = Trace::try_load(path, "cut", 4, &error);
  ASSERT_TRUE(loaded.has_value()) << error;

  PcapFileSource source(path, "cut", 4);
  EXPECT_EQ(drain(source, 64).size(), loaded->packets.size());
  EXPECT_EQ(source.anomalies(), loaded->file_anomalies);
  EXPECT_TRUE(source.anomalies().any());
  std::filesystem::remove(path);
}

// Sub-sources cut into 3 slices return short batches at every slice
// boundary, so the merge refills mid-stream; the merged sequence must still
// be the stable sort of all traces by (timestamp, source index).
TEST_F(StreamingTest, MergedSyntheticSourcesFollowTimestampThenSourceOrder) {
  struct Tagged {
    const RawPacket* pkt;
    std::uint32_t source;
  };
  std::vector<Tagged> want;
  const TraceSet& traces = materialized();
  for (std::size_t t = 0; t < traces.traces.size(); ++t) {
    for (const RawPacket& p : traces.traces[t].packets) {
      want.push_back({&p, static_cast<std::uint32_t>(t)});
    }
  }
  std::stable_sort(want.begin(), want.end(),
                   [](const Tagged& a, const Tagged& b) { return a.pkt->ts < b.pkt->ts; });

  const SyntheticTraceSourceSet sources(small_spec(), model(), {3});
  for (const std::size_t batch : {std::size_t{7}, std::size_t{256}}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    std::vector<std::unique_ptr<PacketSource>> opened;
    for (std::size_t i = 0; i < sources.size(); ++i) opened.push_back(sources.open(i));
    MergedPacketStream merged(std::move(opened));
    std::vector<PacketView> views(batch);
    std::size_t i = 0;
    while (const std::size_t got = merged.next_batch(views.data(), batch)) {
      for (std::size_t k = 0; k < got; ++k, ++i) {
        ASSERT_LT(i, want.size());
        const PacketView& v = views[k];
        ASSERT_EQ(v.ts, want[i].pkt->ts) << "packet " << i;
        ASSERT_EQ(v.source, want[i].source) << "packet " << i;
        ASSERT_EQ(v.wire_len, want[i].pkt->wire_len) << "packet " << i;
        ASSERT_TRUE(std::equal(v.data.begin(), v.data.end(), want[i].pkt->data.begin(),
                               want[i].pkt->data.end()))
            << "packet " << i;
      }
    }
    EXPECT_EQ(i, want.size());
    EXPECT_EQ(merged.next_batch(views.data(), batch), 0u);
  }
}

TEST_F(StreamingTest, PcapFileSourceThrowsOnUnopenableFile) {
  EXPECT_THROW(PcapFileSource("/nonexistent/entrace_nope.pcap"), std::runtime_error);
}

// ---- end-to-end equivalence -------------------------------------------------

void expect_identical_analyses(const DatasetAnalysis& a, const DatasetAnalysis& b) {
  // Headline tallies + the accounting rule of analyzer.h.
  EXPECT_EQ(a.total_packets, b.total_packets);
  EXPECT_EQ(a.total_wire_bytes, b.total_wire_bytes);
  EXPECT_EQ(a.total_packets, a.quality.packets_ok);
  EXPECT_EQ(a.l3.total, a.total_packets);
  EXPECT_EQ(a.l3.ip, b.l3.ip);
  EXPECT_EQ(a.l3.arp, b.l3.arp);
  EXPECT_EQ(a.l3.ipx, b.l3.ipx);
  EXPECT_EQ(a.l3.other, b.l3.other);
  EXPECT_EQ(a.ip_proto_packets.as_map(), b.ip_proto_packets.as_map());
  EXPECT_EQ(a.monitored_subnets, b.monitored_subnets);

  // Capture quality, including every anomaly counter.
  EXPECT_TRUE(a.quality.accounted());
  EXPECT_EQ(a.quality, b.quality);
  EXPECT_EQ(a.quality.anomalies.as_map(), b.quality.anomalies.as_map());

  // Host sets, scanners, connections.
  EXPECT_EQ(a.monitored_hosts, b.monitored_hosts);
  EXPECT_EQ(a.lbnl_hosts, b.lbnl_hosts);
  EXPECT_EQ(a.remote_hosts, b.remote_hosts);
  EXPECT_EQ(a.scanners, b.scanners);
  EXPECT_EQ(a.scanner_conns_removed, b.scanner_conns_removed);
  ASSERT_EQ(a.all_connections.size(), b.all_connections.size());
  ASSERT_EQ(a.connections.size(), b.connections.size());
  for (std::size_t i = 0; i < a.connections.size(); ++i) {
    ASSERT_EQ(a.connections[i]->key, b.connections[i]->key) << "connection " << i;
    ASSERT_EQ(a.connections[i]->total_bytes(), b.connections[i]->total_bytes())
        << "connection " << i;
    ASSERT_EQ(a.connections[i]->app_id, b.connections[i]->app_id) << "connection " << i;
  }

  // Application events and dynamic endpoints.
  EXPECT_EQ(a.events.total(), b.events.total());
  EXPECT_EQ(a.events.http.size(), b.events.http.size());
  EXPECT_EQ(a.events.dns.size(), b.events.dns.size());
  EXPECT_EQ(a.events.cifs.size(), b.events.cifs.size());
  EXPECT_EQ(a.events.nfs.size(), b.events.nfs.size());
  EXPECT_EQ(a.events.ncp.size(), b.events.ncp.size());
  EXPECT_EQ(a.registry.dynamic_endpoint_count(), b.registry.dynamic_endpoint_count());

  // Load series (§6), per trace in order.
  ASSERT_EQ(a.load_raw.size(), b.load_raw.size());
  for (std::size_t i = 0; i < a.load_raw.size(); ++i) {
    EXPECT_EQ(a.load_raw[i].trace_name, b.load_raw[i].trace_name);
    EXPECT_EQ(a.load_raw[i].ent_tcp_pkts, b.load_raw[i].ent_tcp_pkts);
    EXPECT_EQ(a.load_raw[i].ent_retx, b.load_raw[i].ent_retx);
    EXPECT_EQ(a.load_raw[i].wan_tcp_pkts, b.load_raw[i].wan_tcp_pkts);
    EXPECT_EQ(a.load_raw[i].wan_retx, b.load_raw[i].wan_retx);
    EXPECT_EQ(a.load_raw[i].bits_1s.values(), b.load_raw[i].bits_1s.values());
    EXPECT_EQ(a.load_raw[i].bits_60s.values(), b.load_raw[i].bits_60s.values());
  }
}

// Rendered report tables are the user-facing "bit-identical" check: any
// drift in any tally shows up as a text diff.
void expect_identical_reports(const DatasetSpec& spec, const DatasetAnalysis& a,
                              const DatasetAnalysis& b) {
  const report::ReportInput ia{&spec, &a};
  const report::ReportInput ib{&spec, &b};
  const std::vector<report::ReportInput> va{ia}, vb{ib};
  EXPECT_EQ(report::table2_network_layer(va), report::table2_network_layer(vb));
  EXPECT_EQ(report::table3_transport(va), report::table3_transport(vb));
  EXPECT_EQ(report::figure1_app_breakdown(va), report::figure1_app_breakdown(vb));
  EXPECT_EQ(report::capture_quality(va), report::capture_quality(vb));
}

TEST_F(StreamingTest, MemorySourceSetAnalysisEqualsMaterializedPath) {
  const MemoryTraceSourceSet sources(materialized());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const DatasetAnalysis streamed = analyze_dataset(sources, config(threads));
    const DatasetAnalysis direct = analyze_dataset(materialized(), config(1));
    expect_identical_analyses(streamed, direct);
    expect_identical_reports(small_spec(), streamed, direct);
  }
}

TEST_F(StreamingTest, SyntheticSourceSetAnalysisEqualsMaterializedPath) {
  const SyntheticTraceSourceSet sources(small_spec(), model(), {3});
  ASSERT_EQ(sources.size(), materialized().traces.size());
  const DatasetAnalysis direct = analyze_dataset(materialized(), config(1));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const DatasetAnalysis streamed = analyze_dataset(sources, config(threads));
    expect_identical_analyses(streamed, direct);
    expect_identical_reports(small_spec(), streamed, direct);
  }
}

TEST_F(StreamingTest, PcapFileSourceSetAnalysisEqualsLoadedTraces) {
  const auto dir = std::filesystem::temp_directory_path() / "entrace_streaming_pcaps";
  std::filesystem::create_directories(dir);
  const DatasetSpec spec = small_spec();
  const std::vector<std::string> paths =
      generate_dataset_to_pcap(spec, model(), dir.string());
  const std::vector<TracePlan> plans = plan_dataset(spec);
  ASSERT_EQ(paths.size(), plans.size());

  // The in-memory reference: the same files loaded whole (same usec
  // timestamp quantization, same recoverable reader).
  TraceSet loaded;
  loaded.dataset_name = spec.name;
  std::vector<PcapTraceSpec> files;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    std::string error;
    auto t = Trace::try_load(paths[i], plans[i].name, plans[i].subnet, &error);
    ASSERT_TRUE(t.has_value()) << error;
    loaded.traces.push_back(std::move(*t));
    files.push_back({paths[i], plans[i].name, plans[i].subnet});
  }

  const PcapFileSourceSet sources(spec.name, std::move(files));
  const DatasetAnalysis direct = analyze_dataset(loaded, config(1));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const DatasetAnalysis streamed = analyze_dataset(sources, config(threads));
    expect_identical_analyses(streamed, direct);
    expect_identical_reports(spec, streamed, direct);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace entrace
