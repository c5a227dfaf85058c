// The parallel per-trace pipeline's two guarantees:
//  1. ThreadPool semantics — completion, results, exception propagation,
//     and the 0/1-thread inline mode.
//  2. Determinism — analyze_dataset produces identical results for 1 and 4
//     worker threads (shards fold in trace-index order).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "core/analyzer.h"
#include "synth/generator.h"
#include "util/thread_pool.h"

namespace entrace {
namespace {

// ---- ThreadPool unit tests --------------------------------------------------

TEST(ThreadPool, CompletesAllTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&count] { ++count; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ReturnsValuesThroughFutures) {
  ThreadPool pool(3);
  auto f1 = pool.submit([] { return 41 + 1; });
  auto f2 = pool.submit([] { return std::string("shard"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "shard");
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ForEachIndexCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.for_each_index(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ForEachIndexRethrowsLowestIndexException) {
  ThreadPool pool(4);
  try {
    pool.for_each_index(16, [](std::size_t i) {
      if (i == 3 || i == 11) throw std::runtime_error("index " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 3");
  }
}

TEST(ThreadPool, ZeroAndOneThreadRunInline) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}}) {
    ThreadPool pool(n);
    EXPECT_EQ(pool.thread_count(), 1u);
    const std::thread::id caller = std::this_thread::get_id();
    auto f = pool.submit([caller] { return std::this_thread::get_id() == caller; });
    EXPECT_TRUE(f.get());  // ran on the submitting thread
    // Exceptions still arrive via the future, not at the submit site.
    auto g = pool.submit([] { throw std::runtime_error("inline"); });
    EXPECT_THROW(g.get(), std::runtime_error);
    int sum = 0;
    pool.for_each_index(5, [&sum](std::size_t i) { sum += static_cast<int>(i); });
    EXPECT_EQ(sum, 10);
  }
}

// stats() counts every task, a throwing one too, by the time
// for_each_index returns, so a caller that reads it right after the call
// sees all of them.
TEST(ThreadPool, StatsCountEveryTaskBeforeForEachIndexReturns) {
  ThreadPool pool(4);
  for (std::uint64_t k = 1; k <= 200; ++k) {
    pool.for_each_index(18, [](std::size_t) {});
    ASSERT_EQ(pool.stats().tasks, 18 * k) << "after call " << k;
  }
  EXPECT_THROW(pool.for_each_index(1, [](std::size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
  EXPECT_EQ(pool.stats().tasks, 18u * 200 + 1);
}

// Inline mode calls fn directly, yet keeps the queued path's contract:
// every index runs in order, each is counted, and the lowest failing
// index's exception is the one rethrown.
TEST(ThreadPool, InlineForEachIndexRunsAllAndRethrowsLowestIndex) {
  ThreadPool pool(1);
  std::vector<std::size_t> ran;
  try {
    pool.for_each_index(8, [&ran](std::size_t i) {
      ran.push_back(i);
      if (i == 2 || i == 5) throw std::runtime_error("index " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 2");
  }
  EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(pool.stats().tasks, 8u);
}

TEST(ThreadPool, ForEachIndexZeroIsNoop) {
  ThreadPool pool(2);
  pool.for_each_index(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, EnvThreadCountHonorsOverride) {
  ASSERT_EQ(setenv("ENTRACE_THREADS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::env_thread_count(), 3u);
  ASSERT_EQ(setenv("ENTRACE_THREADS", "garbage", 1), 0);
  EXPECT_GE(ThreadPool::env_thread_count(), 1u);  // falls back
  ASSERT_EQ(unsetenv("ENTRACE_THREADS"), 0);
  EXPECT_GE(ThreadPool::env_thread_count(), 1u);
}

// ---- merge primitives -------------------------------------------------------

TEST(MergePrimitives, ScannerDetectorShardedEqualsSerial) {
  // One source scanning 128.3.1.1..120 in ascending order, split across two
  // shards, must be flagged exactly as a serial detector flags it.
  const Ipv4Address scanner = Ipv4Address::parse("10.0.0.7");
  const Ipv4Address benign = Ipv4Address::parse("10.0.0.8");
  ScannerDetector serial, shard_a, shard_b;
  for (std::uint32_t i = 1; i <= 120; ++i) {
    const Ipv4Address dst(Ipv4Address::parse("128.3.1.0").value() + i);
    serial.observe(scanner, dst);
    (i <= 60 ? shard_a : shard_b).observe(scanner, dst);
    if (i <= 10) {
      serial.observe(benign, dst);
      shard_a.observe(benign, dst);
    }
  }
  ScannerDetector merged;
  merged.merge(shard_a);
  merged.merge(shard_b);
  EXPECT_EQ(merged.scanners(), serial.scanners());
  EXPECT_TRUE(merged.is_scanner(scanner));
  EXPECT_FALSE(merged.is_scanner(benign));
}

TEST(MergePrimitives, IntervalSeriesMergeSumsBins) {
  IntervalSeries a(1.0), b(1.0);
  a.add(0.5, 10.0);
  a.add(2.5, 20.0);
  b.add(1.5, 5.0);
  b.add(4.5, 1.0);
  a.merge(b);
  const std::vector<double> expected{10.0, 5.0, 20.0, 0.0, 1.0};
  EXPECT_EQ(a.values(), expected);
}

TEST(MergePrimitives, IpProtoCountsMapView) {
  IpProtoCounts counts;
  counts[6] += 3;
  counts[17] += 2;
  IpProtoCounts other;
  other[6] += 1;
  other[255] += 7;
  counts.merge(other);
  const auto map = counts.as_map();
  ASSERT_EQ(map.size(), 3u);
  EXPECT_EQ(map.at(6), 4u);
  EXPECT_EQ(map.at(17), 2u);
  EXPECT_EQ(map.at(255), 7u);
}

// ---- determinism across thread counts ---------------------------------------

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  static DatasetAnalysis run(std::size_t threads) {
    EnterpriseModel model;
    DatasetSpec spec = dataset_d3(0.008);
    spec.monitored_subnets = {4, 5, 15, 16, 20};
    const TraceSet traces = generate_dataset(spec, model);
    AnalyzerConfig config = default_config_for_model(model.site());
    config.threads = threads;
    return analyze_dataset(traces, config);
  }
};

TEST_F(ParallelDeterminismTest, OneAndFourThreadsProduceIdenticalResults) {
  const DatasetAnalysis a = run(1);
  const DatasetAnalysis b = run(4);

  // Packet tallies and breakdowns.
  ASSERT_GT(a.total_packets, 10000u);
  EXPECT_EQ(a.total_packets, b.total_packets);
  EXPECT_EQ(a.total_wire_bytes, b.total_wire_bytes);
  EXPECT_EQ(a.l3.total, b.l3.total);
  EXPECT_EQ(a.l3.ip, b.l3.ip);
  EXPECT_EQ(a.l3.arp, b.l3.arp);
  EXPECT_EQ(a.l3.ipx, b.l3.ipx);
  EXPECT_EQ(a.l3.other, b.l3.other);
  EXPECT_EQ(a.ip_proto_packets.as_map(), b.ip_proto_packets.as_map());
  EXPECT_EQ(a.monitored_subnets, b.monitored_subnets);

  // Host sets.
  EXPECT_EQ(a.monitored_hosts, b.monitored_hosts);
  EXPECT_EQ(a.lbnl_hosts, b.lbnl_hosts);
  EXPECT_EQ(a.remote_hosts, b.remote_hosts);

  // Scanner identification and removal.
  EXPECT_EQ(a.scanners, b.scanners);
  EXPECT_EQ(a.scanner_conns_removed, b.scanner_conns_removed);

  // Connection lists: same size, same order, same content.
  ASSERT_EQ(a.all_connections.size(), b.all_connections.size());
  ASSERT_EQ(a.connections.size(), b.connections.size());
  ASSERT_GT(a.connections.size(), 500u);
  for (std::size_t i = 0; i < a.connections.size(); ++i) {
    const Connection& ca = *a.connections[i];
    const Connection& cb = *b.connections[i];
    ASSERT_EQ(ca.key, cb.key) << "connection " << i;
    EXPECT_EQ(ca.total_bytes(), cb.total_bytes()) << "connection " << i;
    EXPECT_EQ(ca.app_id, cb.app_id) << "connection " << i;
  }

  // Application events: same counts per protocol, same order (spot-check
  // HTTP transactions field by field).
  EXPECT_EQ(a.events.total(), b.events.total());
  EXPECT_EQ(a.events.http.size(), b.events.http.size());
  EXPECT_EQ(a.events.smtp.size(), b.events.smtp.size());
  EXPECT_EQ(a.events.dns.size(), b.events.dns.size());
  EXPECT_EQ(a.events.nbns.size(), b.events.nbns.size());
  EXPECT_EQ(a.events.nbss.size(), b.events.nbss.size());
  EXPECT_EQ(a.events.cifs.size(), b.events.cifs.size());
  EXPECT_EQ(a.events.dcerpc.size(), b.events.dcerpc.size());
  EXPECT_EQ(a.events.epm.size(), b.events.epm.size());
  EXPECT_EQ(a.events.nfs.size(), b.events.nfs.size());
  EXPECT_EQ(a.events.ncp.size(), b.events.ncp.size());
  for (std::size_t i = 0; i < a.events.http.size(); ++i) {
    EXPECT_EQ(a.events.http[i].uri, b.events.http[i].uri);
    EXPECT_EQ(a.events.http[i].status, b.events.http[i].status);
    EXPECT_EQ(a.events.http[i].resp_body_len, b.events.http[i].resp_body_len);
  }

  // Dynamic DCE/RPC endpoints.
  EXPECT_EQ(a.registry.dynamic_endpoint_count(), b.registry.dynamic_endpoint_count());

  // Load shards (§6), per trace in order.
  ASSERT_EQ(a.load_raw.size(), b.load_raw.size());
  for (std::size_t i = 0; i < a.load_raw.size(); ++i) {
    EXPECT_EQ(a.load_raw[i].trace_name, b.load_raw[i].trace_name);
    EXPECT_EQ(a.load_raw[i].ent_tcp_pkts, b.load_raw[i].ent_tcp_pkts);
    EXPECT_EQ(a.load_raw[i].ent_retx, b.load_raw[i].ent_retx);
    EXPECT_EQ(a.load_raw[i].wan_tcp_pkts, b.load_raw[i].wan_tcp_pkts);
    EXPECT_EQ(a.load_raw[i].wan_retx, b.load_raw[i].wan_retx);
    EXPECT_EQ(a.load_raw[i].keepalive_excluded, b.load_raw[i].keepalive_excluded);
    EXPECT_EQ(a.load_raw[i].bits_1s.values(), b.load_raw[i].bits_1s.values());
    EXPECT_EQ(a.load_raw[i].bits_60s.values(), b.load_raw[i].bits_60s.values());
  }
}

TEST_F(ParallelDeterminismTest, EnvOverrideIsPickedUpByAutoConfig) {
  ASSERT_EQ(setenv("ENTRACE_THREADS", "2", 1), 0);
  const DatasetAnalysis a = run(0);  // auto: reads ENTRACE_THREADS=2
  ASSERT_EQ(unsetenv("ENTRACE_THREADS"), 0);
  const DatasetAnalysis b = run(1);
  EXPECT_EQ(a.total_packets, b.total_packets);
  EXPECT_EQ(a.connections.size(), b.connections.size());
  EXPECT_EQ(a.events.total(), b.events.total());
  EXPECT_EQ(a.scanners, b.scanners);
}

}  // namespace
}  // namespace entrace
