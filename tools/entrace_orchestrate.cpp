// entrace_orchestrate: fault-tolerant front end over the job scheduler
// (src/orchestrate/scheduler.h).
//
// Partitions a dataset's traces into jobs and dispatches them to
// entrace_shard subprocesses, or with --cluster / --cluster-workers to
// entrace_worker TCP endpoints.  Worker failures land in a retry loop with
// seeded-jitter backoff; for any fault schedule in which every job
// eventually succeeds, the report printed here is byte-identical to a
// direct single-process run.  A job that exhausts its attempt budget
// leaves a PARTIAL report with a coverage manifest (exit 1, or 0 with
// --allow-partial).  --inject drives the deterministic fault harness;
// naming a kind the chosen mode cannot perform (refuse/disconnect without
// --cluster, crash/truncate with it) exits 2:
//
//   $ entrace_orchestrate D0 0.01 --workers 4 --retries 3 ..
//       --inject crash=0.2,hang=0.05,truncate=0.1,corrupt=0.1 > report.txt
//
//   $ entrace_orchestrate D0 0.01 --cluster-workers 2 ..
//       --inject refuse=0.1,disconnect=0.1 > report.txt
//   $ entrace_orchestrate D0 0.01 --cluster 10.0.0.5:7461,10.0.0.6:7461
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/coordinator.h"
#include "obs/exposition.h"
#include "orchestrate/supervisor.h"
#include "util/cli.h"
#include "util/subprocess.h"

using namespace entrace;

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [D0|D1|D2|D3|D4] [scale]\n"
      "  [--jobs N]            trace-range partitions (default: one per worker)\n"
      "  [--workers N]         concurrent worker subprocesses (default 2)\n"
      "  [--shard-threads N]   --threads per worker (default 1)\n"
      "  [--retries K]         retries per job after the first attempt (default 2)\n"
      "  [--deadline S]        per-attempt wall-clock deadline, seconds (default 120)\n"
      "  [--backoff S]         base retry delay, seconds (default 0.05)\n"
      "  [--seed S]            fault-injection + backoff-jitter seed (default 1)\n"
      "  [--inject SPEC]       per-attempt fault probabilities, KIND=P,...: crash, hang,\n"
      "                        truncate, corrupt (subprocess); refuse, disconnect,\n"
      "                        corrupt, hang (cluster)\n"
      "  [--inject-attempts N] inject only into each job's first N attempts\n"
      "  [--allow-partial]     exit 0 with a PARTIAL report when jobs exhaust retries\n"
      "  [--work-dir DIR]      where per-job .esnap files live (default: ./orchestrate.work)\n"
      "  [--keep-files]        keep the per-job .esnap files after the fold\n"
      "  [--shard-bin PATH]    entrace_shard binary (default: next to this binary)\n"
      "  [--metrics-out FILE]  write orchestration metrics (.json or .prom)\n"
      "  [--verbose]           per-event progress on stderr\n"
      "cluster mode (network workers instead of subprocesses):\n"
      "  [--cluster H:P,...]     dispatch to these entrace_worker endpoints\n"
      "  [--cluster-workers N]   spawn N loopback workers and use them\n"
      "  [--worker-bin PATH]     entrace_worker binary (default: next to this binary)\n"
      "  [--hb-interval S]       worker heartbeat cadence, seconds (default 0.1)\n"
      "  [--hb-timeout S]        silence deadline before a worker is hung (default 5)\n",
      argv0);
  return 2;
}

// The worker binaries ship next to this one; fall back to argv[0]'s
// directory when /proc/self/exe is unavailable.
std::string sibling_binary(const char* argv0, const char* name) {
  std::error_code ec;
  std::filesystem::path self = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) self = std::filesystem::absolute(argv0, ec);
  return (self.parent_path() / name).string();
}

// Spawn N loopback entrace_worker processes, discover their
// kernel-assigned ports through --port-file, and append the endpoints.
// Throws on spawn or discovery failure; `spawned` always holds whatever
// was launched, and its destructors kill and reap the workers.
void spawn_loopback_workers(const std::string& worker_bin, const std::string& work_dir,
                            std::size_t count, bool verbose,
                            std::vector<util::Subprocess>& spawned,
                            std::vector<std::string>& endpoints) {
  std::filesystem::create_directories(work_dir);
  std::vector<std::string> port_files;
  for (std::size_t w = 0; w < count; ++w) {
    std::string name = "w";
    name += std::to_string(w);
    const std::string port_file =
        (std::filesystem::path(work_dir) / ("worker_" + std::to_string(w) + ".port")).string();
    std::error_code ec;
    std::filesystem::remove(port_file, ec);
    std::vector<std::string> argv = {worker_bin, "--port-file", port_file, "--name", name};
    if (verbose) argv.push_back("--verbose");
    spawned.push_back(util::Subprocess::spawn(argv));
    port_files.push_back(port_file);
  }

  for (std::size_t w = 0; w < count; ++w) {
    // The port file appears via rename, so a file that exists is complete.
    for (int tick = 0; !std::filesystem::exists(port_files[w]); ++tick) {
      if (!spawned[w].running() || tick >= 1000) {
        throw std::runtime_error("worker " + std::to_string(w) +
                                 (tick >= 1000 ? " never published its port"
                                               : " exited before binding"));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    unsigned port = 0;
    std::ifstream(port_files[w]) >> port;
    if (port == 0 || port > 65535) throw std::runtime_error("bad port file " + port_files[w]);
    endpoints.push_back("127.0.0.1:" + std::to_string(port));
  }
}

}  // namespace

int main(int argc, char** argv) {
  orchestrate::OrchestratorConfig config;
  config.retry.max_attempts = 3;  // --retries 2
  config.work_dir = "orchestrate.work";
  bool allow_partial = false;
  std::string metrics_out;
  std::uint64_t cluster_workers = 0;
  std::string worker_bin;
  cluster::ClusterConfig cluster_config;
  std::vector<const char*> positionals;
  bool parse_error = false;

  for (int i = 1; i < argc; ++i) {
    const auto flag_value = [&](const char* name) -> const char* {
      if (std::strcmp(argv[i], name) != 0) return nullptr;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", name);
        std::exit(usage(argv[0]));
      }
      return argv[++i];
    };
    // Strict flag-value parsing: std::atoi here would wrap "--workers -1"
    // to SIZE_MAX and read "--workers x" as 0 — both silently.
    const auto uint_value = [&](const char* v, std::uint64_t max) -> std::uint64_t {
      std::uint64_t out = 0;
      if (!cli::parse_uint(v, out) || out > max) {
        std::fprintf(stderr, "%s: '%s' is not an integer in [0, %llu]\n", argv[i - 1], v,
                     static_cast<unsigned long long>(max));
        parse_error = true;
      }
      return out;
    };
    const auto double_value = [&](const char* v) -> double {
      double out = 0.0;
      if (!cli::parse_nonneg_double(v, out)) {
        std::fprintf(stderr, "%s: '%s' is not a non-negative number\n", argv[i - 1], v);
        parse_error = true;
      }
      return out;
    };
    constexpr std::uint64_t kMaxCount = INT32_MAX - 1;
    if (const char* v = flag_value("--jobs")) {
      config.jobs = uint_value(v, kMaxCount);
    } else if (const char* v = flag_value("--workers")) {
      config.workers = uint_value(v, kMaxCount);
    } else if (const char* v = flag_value("--shard-threads")) {
      config.shard_threads = uint_value(v, kMaxCount);
    } else if (const char* v = flag_value("--retries")) {
      config.retry.max_attempts = static_cast<int>(uint_value(v, kMaxCount)) + 1;
    } else if (const char* v = flag_value("--deadline")) {
      config.attempt_deadline = double_value(v);
    } else if (const char* v = flag_value("--backoff")) {
      config.retry.base_delay = double_value(v);
    } else if (const char* v = flag_value("--seed")) {
      const std::uint64_t seed = uint_value(v, UINT64_MAX);
      config.inject.seed = seed;
      config.retry.seed = seed;
    } else if (const char* v = flag_value("--cluster")) {
      std::string error;
      if (!cluster::parse_endpoints(v, cluster_config.endpoints, &error)) {
        std::fprintf(stderr, "--cluster: %s\n", error.c_str());
        parse_error = true;
      }
    } else if (const char* v = flag_value("--cluster-workers")) {
      cluster_workers = uint_value(v, kMaxCount);
    } else if (const char* v = flag_value("--worker-bin")) {
      worker_bin = v;
    } else if (const char* v = flag_value("--hb-interval")) {
      cluster_config.heartbeat_interval = double_value(v);
    } else if (const char* v = flag_value("--hb-timeout")) {
      cluster_config.heartbeat_deadline = double_value(v);
    } else if (const char* v = flag_value("--inject")) {
      std::string error;
      if (!orchestrate::parse_inject_spec(v, config.inject, &error)) {
        std::fprintf(stderr, "--inject: %s\n", error.c_str());
        parse_error = true;
      }
    } else if (const char* v = flag_value("--inject-attempts")) {
      config.inject.attempt_limit = static_cast<int>(uint_value(v, kMaxCount));
    } else if (const char* v = flag_value("--work-dir")) {
      config.work_dir = v;
    } else if (const char* v = flag_value("--shard-bin")) {
      config.shard_binary = v;
    } else if (const char* v = flag_value("--metrics-out")) {
      metrics_out = v;
    } else if (std::strcmp(argv[i], "--allow-partial") == 0) {
      allow_partial = true;
    } else if (std::strcmp(argv[i], "--keep-files") == 0) {
      config.keep_files = true;
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      config.verbose = true;
    } else {
      positionals.push_back(argv[i]);
    }
  }
  if (parse_error) return usage(argv[0]);

  cli::DatasetArgs dataset{config.dataset, config.scale};
  std::string error;
  const int consumed = cli::parse_dataset_args(positionals, dataset, &error);
  if (consumed < 0 || static_cast<std::size_t>(consumed) != positionals.size()) {
    std::fprintf(stderr, "%s\n", error.empty() ? "unrecognized arguments" : error.c_str());
    return usage(argv[0]);
  }
  config.dataset = dataset.name;
  config.scale = dataset.scale;
  if (config.shard_binary.empty()) config.shard_binary = sibling_binary(argv[0], "entrace_shard");

  obs::Registry metrics;
  config.metrics = &metrics;

  const bool cluster_mode = !cluster_config.endpoints.empty() || cluster_workers > 0;
  const char* mode = cluster_mode ? "cluster" : "orchestrate";
  orchestrate::OrchestrateResult result;
  std::vector<util::Subprocess> spawned;
  try {
    if (cluster_mode) {
      static_cast<orchestrate::DispatchConfig&>(cluster_config) = config;
      if (cluster_workers > 0) {
        if (worker_bin.empty()) worker_bin = sibling_binary(argv[0], "entrace_worker");
        spawn_loopback_workers(worker_bin, config.work_dir, cluster_workers, config.verbose,
                               spawned, cluster_config.endpoints);
      }
      result = cluster::run_cluster(cluster_config);
    } else {
      result = orchestrate::orchestrate(config);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", mode, e.what());
    return 2;
  }

  std::fprintf(stderr,
               "%s: %zu jobs, %llu attempts (%llu retries), %llu faults; "
               "%zu of %u traces covered\n",
               mode, result.jobs.size(), static_cast<unsigned long long>(result.attempts),
               static_cast<unsigned long long>(result.retries),
               static_cast<unsigned long long>(result.fault_counts.total_faults()),
               result.manifest.covered(), result.manifest.trace_count);

  const std::string report = orchestrate::render_report(result);
  std::fputs(report.c_str(), stdout);

  if (!metrics_out.empty()) {
    try {
      obs::write_metrics_file(metrics, metrics_out);
      std::fprintf(stderr, "wrote metrics to %s\n", metrics_out.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "--metrics-out: %s\n", e.what());
      return 1;
    }
  }

  if (!result.complete && !allow_partial) {
    std::fprintf(stderr,
                 "%s: incomplete run (missing traces %s) and --allow-partial not set\n", mode,
                 result.manifest.missing_ranges().c_str());
    return 1;
  }
  return 0;
}
