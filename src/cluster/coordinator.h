// TCP dispatch: the job scheduler (orchestrate/scheduler.h) carrying each
// attempt to an entrace_worker endpoint over the cluster protocol
// (protocol.h) — host-level sharding under the same contract as the
// subprocess transport.
//
// Per attempt: connect, wait for HELLO, send JOB, then gather heartbeats,
// SNAPSHOT chunks and DONE.  Liveness is judged by the heartbeat deadline:
// ANY frame from the worker (heartbeat, chunk, DONE) refreshes it, so a
// worker mid-transfer is never "hung".  A worker's bytes are never
// trusted: DONE means nothing until the whole-stream CRC matches, after
// which the scheduler decodes the snapshot and checks its exact slice.
//
// Injected faults this transport performs: refuse is executed
// coordinator-side by dialing a port that is known dead; disconnect,
// corrupt and hang ride to the worker in JOB.injected_fault and are acted
// out there.  crash and truncate are subprocess faults and a configuration
// error here.
#pragma once

#include <string>
#include <vector>

#include "orchestrate/scheduler.h"

namespace entrace::cluster {

struct ClusterConfig : orchestrate::DispatchConfig {
  // Worker endpoints, "host:port".  At least one is required.
  std::vector<std::string> endpoints;
  // Seconds to establish a connection before the attempt counts as
  // connect-refused.
  double connect_timeout = 2.0;
  // Heartbeat cadence requested from workers, and how long the coordinator
  // waits without receiving ANY frame before declaring the worker hung.
  double heartbeat_interval = 0.1;
  double heartbeat_deadline = 5.0;
};

// Split "host:port,host:port,..." into an endpoint list.  False with
// *error set when an entry has no port or the port does not parse.
bool parse_endpoints(const std::string& spec, std::vector<std::string>& out, std::string* error);

// Run every job to completion over the endpoints.  Throws
// std::runtime_error only for configuration errors (no or malformed
// endpoints, empty dataset, a subprocess fault kind in `inject`); network
// and worker failures never throw — they end in the manifest.  The
// cluster.* metrics add connects and bytes/frames/heartbeats/chunks
// received.
orchestrate::OrchestrateResult run_cluster(const ClusterConfig& config);

}  // namespace entrace::cluster
