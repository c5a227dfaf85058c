// Network file systems (§5.2.2): NFS over both UDP and TCP with the
// paper's per-dataset request mixes and dual-mode message sizes, "heavy
// hitter" host pairs, sub-10ms request spacing, burst structure, and NCP
// with its keepalive-only connections and modal reply sizes.
#include <algorithm>

#include "proto/ncp.h"
#include "proto/nfs.h"
#include "proto/registry.h"
#include "synth/apps.h"

namespace entrace {
namespace {

std::uint32_t sample_nfs_proc(Rng& rng, const NetFileKnobs& k) {
  switch (rng.weighted({k.nfs_read, k.nfs_write, k.nfs_getattr, k.nfs_lookup, k.nfs_access,
                        0.02})) {
    case 0:
      return nfsproc::kRead;
    case 1:
      return nfsproc::kWrite;
    case 2:
      return nfsproc::kGetAttr;
    case 3:
      return nfsproc::kLookup;
    case 4:
      return nfsproc::kAccess;
    default:
      return 17;  // READDIRPLUS
  }
}

struct NfsSizes {
  std::size_t arg;
  std::size_t result;
};

NfsSizes nfs_sizes(Rng& rng, std::uint32_t proc, bool failed) {
  // Dual-mode distribution (Figure 8): ~100 bytes for everything except
  // write requests and read replies, which sit at the 8 KB transfer size.
  switch (proc) {
    case nfsproc::kRead:
      return {64 + rng.uniform_int(0, 32), failed ? 24u : 8192u};
    case nfsproc::kWrite:
      return {8192, failed ? 24u : 96u + static_cast<std::size_t>(rng.uniform_int(0, 32))};
    case nfsproc::kLookup:
      return {80 + rng.uniform_int(0, 60), failed ? 24u : 200u};
    default:
      return {60 + rng.uniform_int(0, 60),
              failed ? 24u : 100u + static_cast<std::size_t>(rng.uniform_int(0, 120))};
  }
}

// One NFS host pair's activity: bursts of back-to-back requests separated
// by idle gaps long enough to split UDP flows (multiple "connections" per
// pair, as in Table 12 vs Figure 7's pair counts).
void nfs_pair(GenContext& ctx, const HostRef& client, const HostRef& server, bool use_udp,
              double total_requests) {
  Rng& rng = ctx.rng();
  const NetFileKnobs& k = ctx.spec().netfile;
  // Bursts are spread across the capture window with idle gaps just past
  // the UDP flow timeout, so one pair yields several flows (Table 12's
  // conns vs Figure 7's pair counts).  Short windows (D0) fit fewer bursts.
  const int max_bursts = std::max(2, static_cast<int>(ctx.duration() / 90.0));
  const int bursts = std::min(max_bursts, 6 + static_cast<int>(rng.uniform(0, 20)));
  const double gap_mean = std::max(65.0, ctx.duration() / (bursts + 1.0));
  std::uint32_t xid = static_cast<std::uint32_t>(rng.next_u64());
  const std::uint16_t client_port = static_cast<std::uint16_t>(700 + rng.uniform_int(0, 300));

  double t = ctx.t0() + rng.uniform(0, gap_mean);
  for (int b = 0; b < bursts && t < ctx.t1(); ++b) {
    const auto burst_requests =
        static_cast<std::size_t>(std::max(1.0, total_requests / bursts * rng.uniform(0.4, 1.6)));
    if (use_udp) {
      for (std::size_t i = 0; i < burst_requests && t < ctx.t1(); ++i) {
        const std::uint32_t proc = sample_nfs_proc(rng, k);
        const bool failed = proc == nfsproc::kLookup ? rng.bernoulli(k.nfs_fail_rate * 4)
                                                     : rng.bernoulli(k.nfs_fail_rate / 4);
        const NfsSizes sz = nfs_sizes(rng, proc, failed);
        send_udp(ctx.sink(), client, server, client_port, ports::kNfs, t,
                 encode_rpc_call(++xid, kNfsProgram, kNfsVersion, proc, sz.arg));
        const double service = 0.0002 + rng.exponential(0.0006);
        send_udp(ctx.sink(), server, client, ports::kNfs, client_port, t + service,
                 encode_rpc_reply(xid, failed ? 2 : 0, sz.result));
        t += service + rng.exponential(0.004);  // <10ms between requests
      }
    } else {
      TcpFlowBuilder tcp(ctx.sink(), rng, client, server, ctx.ephemeral_port(), ports::kNfs, t,
                         ctx.lan_tcp());
      tcp.connect();
      for (std::size_t i = 0; i < burst_requests && tcp.now() < ctx.t1(); ++i) {
        const std::uint32_t proc = sample_nfs_proc(rng, k);
        const bool failed = proc == nfsproc::kLookup ? rng.bernoulli(k.nfs_fail_rate * 4)
                                                     : rng.bernoulli(k.nfs_fail_rate / 4);
        const NfsSizes sz = nfs_sizes(rng, proc, failed);
        tcp.client_message(
            rpc_record_mark(encode_rpc_call(++xid, kNfsProgram, kNfsVersion, proc, sz.arg)));
        tcp.server_message(rpc_record_mark(encode_rpc_reply(xid, failed ? 2 : 0, sz.result)));
        tcp.advance(rng.exponential(0.004));
      }
      tcp.close();
      t = tcp.now();
    }
    t += 65.0 + rng.exponential(gap_mean - 60.0);  // idle gap splits UDP flows
  }
}

NcpFunction to_enum(std::uint8_t fn) { return ncp_function_enum(fn); }

std::uint8_t sample_ncp_function(Rng& rng, const NetFileKnobs& k) {
  switch (rng.weighted({k.ncp_read, k.ncp_write, k.ncp_fdinfo, k.ncp_openclose, k.ncp_size,
                        k.ncp_search, k.ncp_nds, 0.02})) {
    case 0:
      return ncpfn::kRead;
    case 1:
      return ncpfn::kWrite;
    case 2:
      return ncpfn::kFileDirInfo;
    case 3:
      return rng.bernoulli(0.5) ? ncpfn::kOpen : ncpfn::kClose;
    case 4:
      return ncpfn::kGetFileSize;
    case 5:
      return ncpfn::kSearch;
    case 6:
      return ncpfn::kNds;
    default:
      return 20;  // get server time (misc)
  }
}

void ncp_session(GenContext& ctx, double start, const HostRef& client, const HostRef& server) {
  Rng& rng = ctx.rng();
  const NetFileKnobs& k = ctx.spec().netfile;
  TcpFlowBuilder tcp(ctx.sink(), rng, client, server, ctx.ephemeral_port(), ports::kNcp, start,
                     ctx.lan_tcp());
  if (rng.bernoulli(k.ncp_reject_rate)) {
    tcp.connect_rejected();
    return;
  }
  tcp.connect();

  if (rng.bernoulli(k.ncp_keepalive_only_frac)) {
    // The paper: 40-80% of NCP connections consist only of periodic
    // 1-byte keepalive retransmissions.
    const int probes =
        static_cast<int>(std::min(60.0, (ctx.t1() - start) / 45.0 * rng.uniform(0.5, 1.0)));
    tcp.keepalives(std::max(1, probes), 45.0);
    return;  // left open; trace ends around it
  }

  std::uint8_t seq = 0;
  const auto requests = static_cast<std::size_t>(
      std::max(2.0, rng.exponential(k.ncp_requests_mean)));
  for (std::size_t i = 0; i < requests && tcp.now() < ctx.t1(); ++i) {
    const std::uint8_t fn = sample_ncp_function(rng, k);
    const NcpFunction kind = to_enum(fn);
    // Request payloads: 14-byte read/control requests; writes carry data.
    std::size_t req_payload = 14;
    if (kind == NcpFunction::kWrite) req_payload = 4096 + rng.uniform_int(0, 4096);
    if (kind == NcpFunction::kFileSearch || kind == NcpFunction::kFileDirInfo)
      req_payload = 30 + rng.uniform_int(0, 40);
    tcp.client_message(encode_ncp_request(seq, fn, req_payload));

    const bool failed = kind == NcpFunction::kFileDirInfo
                            ? rng.bernoulli(k.ncp_fail_rate * 3)
                            : rng.bernoulli(k.ncp_fail_rate / 3);
    // Reply payloads reproduce the paper's modes: 2-byte completion-only,
    // 10-byte GetFileSize, 260-byte short reads, 8 KB data reads.
    std::size_t resp_payload = 2;
    if (!failed) {
      switch (kind) {
        case NcpFunction::kRead:
          resp_payload = rng.bernoulli(0.35) ? 260 : 4096 + rng.uniform_int(0, 4096);
          break;
        case NcpFunction::kFileSize:
          resp_payload = 10;
          break;
        case NcpFunction::kFileDirInfo:
          resp_payload = 60 + rng.uniform_int(0, 120);
          break;
        case NcpFunction::kFileSearch:
          resp_payload = 40 + rng.uniform_int(0, 200);
          break;
        case NcpFunction::kDirectoryService:
          resp_payload = 100 + rng.uniform_int(0, 500);
          break;
        default:
          resp_payload = 2;
          break;
      }
    }
    tcp.server_message(encode_ncp_reply(seq, failed ? 0x9C : 0, resp_payload));
    ++seq;
    tcp.advance(rng.exponential(0.005));
  }
  tcp.close();
}

}  // namespace

void gen_netfile(GenContext& ctx) {
  Rng& rng = ctx.rng();
  const NetFileKnobs& k = ctx.spec().netfile;
  const EnterpriseModel& m = ctx.model();

  // ---- NFS -------------------------------------------------------------------
  // Pair counts stay at paper magnitude (Figure 7's N); request volume per
  // pair is what scales.  Heavy-tailed per-pair volume makes the top-3
  // pairs dominate the bytes, as in §5.2.2.
  const auto pair_count = std::max<std::size_t>(
      1, static_cast<std::size_t>(k.nfs_pairs * rng.uniform(0.6, 1.4)));
  for (std::size_t p = 0; p < pair_count; ++p) {
    HostRef client = ctx.local_host();
    HostRef server = m.nfs_server(static_cast<int>(rng.uniform_int(0, 2)));
    if (m.subnet_of(server.ip) == ctx.subnet()) {
      // Server-side view: a remote client mounts the local server.
      client = ctx.other_internal();
    }
    double reqs = ctx.spec().scale * k.nfs_requests_mean * rng.pareto(0.7, 0.05, 80.0);
    // Occasionally one pair is a giant (a nightly dump over NFS): these
    // few pairs carry the lion's share of the dataset's NFS bytes
    // (§5.2.2: the top-3 pairs account for 89-94%).
    if (rng.bernoulli(0.12)) reqs *= 40.0;
    nfs_pair(ctx, client, server, rng.bernoulli(k.nfs_udp_frac), reqs);
  }

  // ---- NCP -------------------------------------------------------------------
  // Session counts scale with the rest of the traffic so Table 3's
  // connection mix stays honest; Table 12's absolute connection counts are
  // therefore scaled (noted in the bench output).
  for (double t : ctx.arrivals(k.ncp_sessions)) {
    const HostRef client = ctx.local_host();
    HostRef server = m.ncp_server(static_cast<int>(rng.uniform_int(0, 1)));
    if (m.subnet_of(server.ip) == ctx.subnet()) continue;
    ncp_session(ctx, t, client, server);
  }
  for (int i = 0; i < 2; ++i) {
    if (!ctx.monitoring(m.subnet_of(m.ncp_server(i).ip))) continue;
    for (double t : ctx.arrivals(k.ncp_sessions * 3.0)) {
      ncp_session(ctx, t, ctx.other_internal(), m.ncp_server(i));
    }
  }
}

}  // namespace entrace
