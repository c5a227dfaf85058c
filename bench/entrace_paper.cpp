// entrace_paper: reproduces the paper's tables and figures, each followed by
// the values Pang et al. published, for side-by-side comparison (recorded
// in EXPERIMENTS.md).
//
//   entrace_paper [--section NAME[,NAME...]]
//
// One kItems row per paper table or figure: the report sections it prints,
// the datasets it reads, the paper's values and, for three items, an
// ablation.  Every dataset the selected items need is generated and
// analyzed once, concurrently (ENTRACE_SCALE sizes them, default 0.02;
// ENTRACE_THREADS caps the threads); then each item prints in the order
// named.  Default: every item.  An unknown name exits 2 and lists them.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/breakdown.h"
#include "analysis/host_pair.h"
#include "analysis/load.h"
#include "core/analyzer.h"
#include "core/report.h"
#include "net/headers.h"
#include "proto/registry.h"
#include "synth/generator.h"
#include "synth/synth_source.h"
#include "util/cli.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace entrace {
namespace {

using report::Inputs;

// Ablation: what Table 3's connection mix would look like WITHOUT the
// scanner filtering the paper applies in §3.
void table3_ablation(Inputs in) {
  TextTable ablation("Ablation: connection fractions without scanner removal");
  ablation.set_header({"", "D0", "D1", "D2", "D3", "D4"});
  std::vector<std::string> tcp_row = {"TCP"}, udp_row = {"UDP"}, icmp_row = {"ICMP"};
  for (const auto& i : in) {
    const auto tb = TransportBreakdown::compute(i.analysis->all_connections);
    tcp_row.push_back(format_pct(tb.conn_fraction(ipproto::kTcp)));
    udp_row.push_back(format_pct(tb.conn_fraction(ipproto::kUdp)));
    icmp_row.push_back(format_pct(tb.conn_fraction(ipproto::kIcmp)));
  }
  ablation.add_row(tcp_row);
  ablation.add_row(udp_row);
  ablation.add_row(icmp_row);
  std::fputs(ablation.render().c_str(), stdout);
}

// Ablation: raw per-connection success rates (not by host pair), the
// counts the paper's host-pair methodology avoids (§5: automated retry
// storms mislead raw counts).
void table9_ablation(Inputs in) {
  TextTable ablation("Ablation: raw CIFS connection success (not host pairs)");
  ablation.set_header({"", "D0", "D3", "D4"});
  std::vector<std::string> row = {"CIFS(445) conns ok"};
  for (const auto& i : in) {
    std::uint64_t ok = 0, total = 0;
    for (const Connection* c : i.analysis->connections) {
      if (static_cast<AppProtocol>(c->app_id) != AppProtocol::kCifs) continue;
      if (!i.analysis->site.is_internal(c->key.src) ||
          !i.analysis->site.is_internal(c->key.dst))
        continue;
      ++total;
      if (c->successful()) ++ok;
    }
    row.push_back(total ? format_pct(static_cast<double>(ok) / static_cast<double>(total))
                        : "-");
  }
  ablation.add_row(row);
  std::fputs(ablation.render().c_str(), stdout);
}

// Ablation: §6 excludes 1-byte keepalive retransmissions before computing
// rates; show how much they would inflate the internal rate.
void figure10_ablation(Inputs in) {
  TextTable ablation("Ablation: internal retx rate if keepalives were counted");
  ablation.set_header({"dataset", "median (keepalives excluded)", "median (included)"});
  for (const auto& i : in) {
    LoadAnalysis base = LoadAnalysis::compute(i.analysis->load_raw);
    EmpiricalCdf with_ka;
    for (const auto& t : i.analysis->load_raw) {
      const std::uint64_t pkts = t.ent_tcp_pkts + t.keepalive_excluded;
      if (pkts < 1000) continue;
      with_ka.add(static_cast<double>(t.ent_retx + t.keepalive_excluded) /
                  static_cast<double>(pkts));
    }
    ablation.add_row({i.analysis->name, format_pct(base.retx_ent.median()),
                      format_pct(with_ka.median())});
  }
  std::fputs(ablation.render().c_str(), stdout);
}

const std::vector<std::string> kAllSets = {"D0", "D1", "D2", "D3", "D4"};
const std::vector<std::string> kPayloadSets = {"D0", "D3", "D4"};

struct Item {
  const char* name;
  std::vector<std::string_view> sections;  // report::sections() names, in print order
  std::vector<std::string> datasets;
  const char* reference;  // the paper's published values
  void (*ablation)(Inputs) = nullptr;
};

const std::vector<Item> kItems = {
    {"table1", {"table1_datasets"}, kAllSets,
     "             D0      D1      D2      D3      D4\n"
     "Duration     10 min  1 hr    1 hr    1 hr    1 hr\n"
     "Per Tap      1       2       1       1       1-2\n"
     "# Subnets    22      22      22      18      18\n"
     "# Packets    17.8M   64.7M   28.1M   21.6M   27.7M   (ours are scaled by ENTRACE_SCALE)\n"
     "Snaplen      1500    68      68      1500    1500\n"
     "Mon. Hosts   2,531   2,102   2,088   1,561   1,558\n"
     "LBNL Hosts   4,767   5,761   5,210   5,234   5,698\n"
     "Remote Hosts 4,342   10,478  7,138   16,404  23,267"},
    {"table2", {"table2_network_layer"}, kAllSets,
     "       D0    D1    D2    D3    D4\n"
     "IP     99%   97%   96%   98%   96%\n"
     "!IP    1%    3%    4%    2%    4%\n"
     "ARP    10%   6%    5%    27%   16%   (of non-IP)\n"
     "IPX    80%   77%   65%   57%   32%   (of non-IP)\n"
     "Other  10%   17%   29%   16%   52%   (of non-IP)"},
    {"table3", {"table3_transport"}, kAllSets,
     "        D0     D1     D2     D3     D4\n"
     "Bytes   13.12  31.88  13.20  8.98   11.75  GB (ours scaled)\n"
     "TCP     66%    95%    90%    77%    82%\n"
     "UDP     34%    5%     10%    23%    18%\n"
     "ICMP    0%     0%     0%     0%     0%\n"
     "Conns   0.16M  1.17M  0.54M  0.75M  1.15M  (ours scaled)\n"
     "TCP     26%    19%    23%    10%    8%\n"
     "UDP     68%    74%    70%    85%    87%\n"
     "ICMP    6%     6%     8%     5%     5%\n"
     "Scanner removal: 4-18% of connections across datasets",
     table3_ablation},
    {"table6", {"table6_http_automation", "http_findings"}, kPayloadSets,
     "Table 6 (share of internal HTTP requests / data bytes):\n"
     "          D0          D3          D4\n"
     "scan1     20% / 0.1%  45% / 0.9%  19% / 1%\n"
     "google1   23% / 45%   0%  / 0%    1%  / 0.1%\n"
     "google2   14% / 51%   8%  / 69%   4%  / 48%\n"
     "ifolder   1%  / 0.0%  0.2%/ 0.0%  10% / 9%\n"
     "All       58% / 96%   54% / 70%   34% / 59%\n"
     "\n"
     "Findings: internal success 72-92% vs WAN 95-99% (failures mostly server\n"
     "RSTs); conditional GETs 29-53% of internal requests vs 12-21% WAN, but\n"
     "only 1-9% / 1-7% of the data bytes; >90% of requests succeed (2xx/304)."},
    {"table7", {"table7_http_content_types"}, kPayloadSets,
     "             requests          data bytes\n"
     "             ent       wan     ent       wan\n"
     "text         18-30%    14-26%  7-28%     13-27%\n"
     "image        67-76%    44-68%  10-34%    16-27%\n"
     "application  3-7%      9-42%   57-73%    33-60%\n"
     "other        0-2%      0.3-1%  0-9%      11-13%\n"
     "(no significant internal-vs-WAN difference in type mix)"},
    {"table8", {"table8_email_sizes"}, kAllSets,
     "        D0      D1      D2      D3     D4\n"
     "SMTP    152MB   1658MB  393MB   20MB   59MB   (ours scaled)\n"
     "SIMAP   185MB   1855MB  612MB   236MB  258MB\n"
     "IMAP4   216MB   2MB     0.7MB   0.2MB  0.8MB  (policy change after D0)\n"
     "Other   9MB     68MB    21MB    12MB   21MB\n"
     "Key shape: IMAP4 -> IMAP/S transition between D0 and D1; D0-D2 monitor\n"
     "the mail-server subnets so their volumes dwarf D3-D4's."},
    {"table9", {"table9_windows_success"}, kPayloadSets,
     "Host pairs:      Netbios/SSN    CIFS        Endpoint Mapper\n"
     "Total            595-1464       373-732     119-497\n"
     "Successful       82-92%         46-68%      99-100%\n"
     "Rejected         0.2-0.8%       26-37%      0%\n"
     "Unanswered       8-19%          5-19%       0.2-0.8%\n"
     "NBSS handshake success: 89-99%.  CIFS failures stem from clients\n"
     "dialing 139 and 445 in parallel against servers that only listen on 139.",
     table9_ablation},
    {"table10", {"table10_cifs_commands"}, kPayloadSets,
     "                      requests              data bytes\n"
     "                      D0    D3    D4        D0    D3    D4\n"
     "Total                 49120 45954 123607    18MB  32MB  198MB (ours scaled)\n"
     "SMB Basic             36%   52%   24%       15%   12%   3%\n"
     "RPC Pipes             48%   33%   46%       32%   64%   77%\n"
     "Windows File Sharing  13%   11%   27%       43%   8%    17%\n"
     "LANMAN                1%    3%    1%        10%   15%   3%\n"
     "Other                 2%    0.6%  1.0%      0.2%  0.3%  0.8%\n"
     "Key finding: DCE/RPC pipes, not file sharing, are the most active\n"
     "component of CIFS traffic."},
    {"table11", {"table11_dcerpc_functions"}, kPayloadSets,
     "                      requests              data bytes\n"
     "                      D0    D3    D4        D0    D3    D4\n"
     "Total                 14191 13620 56912     4MB   19MB  146MB (ours scaled)\n"
     "NetLogon              42%   5%    0.5%      45%   0.9%  0.1%\n"
     "LsaRPC                26%   5%    0.6%      7%    0.3%  0.0%\n"
     "Spoolss/WritePrinter  0.0%  29%   81%       0.0%  80%   96%\n"
     "Spoolss/other         24%   34%   10%       42%   14%   3%\n"
     "Other                 8%    27%   8%        6%    4%    0.6%\n"
     "Vantage point effect: D0 monitors the auth server (NetLogon/LsaRPC\n"
     "dominate); D3-4 monitor the print server (Spoolss dominates)."},
    {"table12", {"table12_netfile_sizes"}, kAllSets,
     "          D0      D1      D2      D3      D4\n"
     "NFS conns 1067    5260    4144    3038    3347\n"
     "NFS bytes 6318MB  4094MB  3586MB  1030MB  1151MB  (ours scaled)\n"
     "NCP conns 2590    4436    2892    628     802\n"
     "NCP bytes 777MB   2574MB  2353MB  352MB   233MB   (ours scaled)\n"
     "Top-3 NFS host pairs carry 89-94% of NFS bytes; top-3 NCP pairs 35-62%.\n"
     "40-80% of NCP connections are keepalive-only (1-byte retransmissions).\n"
     "NFS-over-UDP byte share: 66% / 16% / 31% / 94% / 7% across D0-D4;\n"
     "90% of NFS host pairs use UDP, 21% TCP."},
    {"table13", {"table13_nfs_requests"}, kPayloadSets,
     "         requests                data\n"
     "         D0     D3     D4        D0     D3     D4\n"
     "Total    697512 303386 607108    5843MB 676MB  1064MB (ours scaled)\n"
     "Read     70%    25%    1%        64%    92%    6%\n"
     "Write    15%    1%     19%       35%    2%     83%\n"
     "GetAttr  9%     53%    50%       0.2%   4%     5%\n"
     "LookUp   4%     16%    23%       0.1%   2%     4%\n"
     "Access   0.5%   4%     5%        0.0%   0.4%   0.6%\n"
     "Other    2%     0.9%   2%        0.1%   0.2%   1%\n"
     "NFS requests succeed 84-95%; failures dominated by lookups of\n"
     "non-existent files."},
    {"table14", {"table14_ncp_requests"}, kPayloadSets,
     "                  requests              data\n"
     "                  D0     D3     D4      D0     D3     D4\n"
     "Total             869765 219819 267942  712MB  345MB  222MB (ours scaled)\n"
     "Read              42%    44%    41%     82%    70%    82%\n"
     "Write             1%     21%    2%      10%    28%    11%\n"
     "FileDirInfo       27%    16%    26%     5%     0.9%   3%\n"
     "File Open/Close   9%     2%     7%      0.9%   0.1%   0.5%\n"
     "File Size         9%     7%     5%      0.2%   0.1%   0.1%\n"
     "File Search       9%     7%     16%     1%     0.6%   4%\n"
     "Directory Service 2%     0.7%   1%      0.7%   0.1%   0.4%\n"
     "Other             3%     3%     2%      0.2%   0.1%   0.1%\n"
     "~95% of NCP requests succeed once connected (88-98% connect success);\n"
     "failures dominated by File/Dir Info requests."},
    {"table15", {"table15_backup"}, kAllSets,
     "                     Connections   Bytes\n"
     "VERITAS-BACKUP-CTRL  1271          0.1MB    (ours scaled)\n"
     "VERITAS-BACKUP-DATA  352           6781MB\n"
     "DANTZ                1013          10967MB\n"
     "CONNECTED-BACKUP     105           214MB\n"
     "Veritas data flows are strictly client->server; Dantz connections show\n"
     "significant bidirectionality (tens of MB both ways within single\n"
     "connections); Connected backs up to an external provider."},
    {"name_services", {"name_service_findings"}, kPayloadSets,
     "DNS: median latency ~0.4 ms internal vs ~20 ms external; request types\n"
     "A 50-66%, AAAA 17-25% (hosts resolve A+AAAA in parallel), PTR 10-18%,\n"
     "MX 4-7%; NOERROR 77-86%, NXDOMAIN 11-21%; a few clients (the two main\n"
     "SMTP servers) dominate the query load.\n"
     "Netbios/NS: queries 81-85%, refresh 12-15%; 63-71% of queried names are\n"
     "workstations/servers, 22-32% domain/browser; 36-50% of distinct queries\n"
     "fail (stale names), spread across clients (top-10 < 40% of requests)."},
    {"figure1", {"figure1_app_breakdown"}, kAllSets,
     "Figure 1 (read off the bars):\n"
     "- bytes: bulk + net-file + backup constitute a majority in every dataset;\n"
     "  web is the largest mostly-WAN category; windows/streaming/interactive\n"
     "  contribute 5-10% each in some datasets.\n"
     "- connections: name is 45-65% of connections in every dataset, yet <1% of\n"
     "  bytes; net-mgnt, misc and other-udp show the same pattern.\n"
     "- web and email contribute non-negligibly to BOTH bytes and connections.\n"
     "- most traffic is enterprise-internal; 3-4x more categories appear\n"
     "  internally than crossing the border.\n"
     "- multicast: streaming 5-10% of all bytes; SrvLoc (name) and SAP\n"
     "  (net-mgnt) each 5-10% of all connections."},
    {"figure2", {"origins_summary", "figure2_fan"}, {"D2", "D3"},  // the figure's datasets
     "Origins (all datasets): ent->ent 71-79%, ent->wan 2-3%, wan->ent 6-11%,\n"
     "multicast ent-sourced 5-10%, multicast wan-sourced 4-7%.\n"
     "Figure 2: hosts have more internal peers than WAN peers for both fan-in\n"
     "and fan-out; one-third to one-half of hosts have only-internal fan-in,\n"
     "more than half only-internal fan-out; >90% of hosts talk to at most a\n"
     "couple dozen peers; tails reach hundreds (servers, SrvLoc peers)."},
    {"figure3", {"figure3_http_fanout"}, kPayloadSets,
     "Clients visit roughly an order of magnitude more external HTTP servers\n"
     "than internal ones (ent N=127-302 clients, wan N=358-684; WAN curve\n"
     "shifted right of the enterprise curve across all datasets)."},
    {"figure4", {"figure4_http_reply_sizes"}, kPayloadSets,
     "No significant difference between internal and WAN reply sizes; bodies\n"
     "span 1 B to ~100 MB with medians in the few-KB range; about half of web\n"
     "sessions fetch a single object, 10-20% fetch 10+."},
    {"figure5", {"figure5_email_durations"}, kAllSets,
     "SMTP: internal durations ~0.2-0.4 s median vs WAN 1.5-6 s (an order of\n"
     "magnitude, tracking RTT).  IMAP/S: internal connections last 1-2 orders\n"
     "of magnitude LONGER than WAN ones (clients poll ~every 10 minutes;\n"
     "durations cap near 50 min in hour-long traces).\n"
     "Success: SMTP internal 95-98%; WAN 71-93% in D0-2 (busy MXs) vs\n"
     "99-100% in D3-4; IMAP/S 99-100% everywhere."},
    {"figure6", {"figure6_email_sizes"}, kAllSets,
     "Flow sizes show no significant internal/WAN difference; traffic is\n"
     "largely unidirectional (to SMTP servers, to IMAP/S clients); over 95%\n"
     "of flows stay below 1 MB with significant upper tails (to ~1 GB axis)."},
    {"figure7", {"figure7_requests_per_pair"}, kPayloadSets,
     "Requests per host pair span a handful to hundreds of thousands\n"
     "(N: NFS 104/48/57 pairs, NCP 441/168/188 pairs in D0/D3/D4); the\n"
     "inter-request interval within a client is generally <= 10 ms.\n"
     "(Our request counts scale with ENTRACE_SCALE; pair counts do not.)"},
    {"figure8", {"figure8_netfile_message_sizes"}, kPayloadSets,
     "NFS requests/replies are dual-mode: ~100 bytes for everything except\n"
     "write requests and read replies, which sit at the ~8 KB transfer size.\n"
     "NCP requests mode at 14 bytes (reads); reply sizes show vertical rises\n"
     "at 2 bytes (completion-only), 10 bytes (GetFileSize) and 260 bytes\n"
     "(a fraction of ReadFile replies)."},
    {"figure9", {"figure9_utilization"}, {"D4"},  // D4, as in the paper
     "Networks are under-utilized at every timescale: 1-second peaks can\n"
     "reach saturation (100 Mbps) but peak utilization falls as the interval\n"
     "widens; typical (median) 1-second utilization is 1-2 orders of\n"
     "magnitude below the peak and 2-3 orders below the 100 Mbps capacity.\n"
     "(At ENTRACE_SCALE the absolute Mbps shift down by the scale factor;\n"
     "the orders-of-magnitude gaps are what reproduce.)"},
    {"figure10", {"figure10_retransmissions"}, kAllSets,
     "Retransmission rate < 1% in the vast majority of traces for both\n"
     "internal and WAN traffic; internal < WAN as expected; internal rate\n"
     "sometimes eclipses 2%, peaking ~5% in one trace dominated by a single\n"
     "Veritas backup connection (congestion or flaky NIC downstream of the\n"
     "tap).  Spurious 1-byte keepalive retransmissions (NCP, SSH) are\n"
     "excluded before computing the rates.",
     figure10_ablation},
};

struct Dataset {
  DatasetSpec spec;
  std::unique_ptr<DatasetAnalysis> analysis;
};

// Streams each named dataset through incremental regeneration (memory stays
// bounded by one generation slice per analysis thread) and analyzes it; one
// job per dataset, ENTRACE_THREADS-capped.
std::vector<Dataset> analyze(const std::vector<std::string>& names, const EnterpriseModel& model) {
  const double scale = cli::env_scale();
  const AnalyzerConfig config = default_config_for_model(model.site());
  std::vector<Dataset> out(names.size());
  std::vector<double> elapsed(names.size(), 0.0);
  ThreadPool pool(std::min(names.size(), ThreadPool::env_thread_count()));
  pool.for_each_index(names.size(), [&](std::size_t i) {
    const auto start = std::chrono::steady_clock::now();
    out[i].spec = dataset_by_name(names[i], scale);
    const SyntheticTraceSourceSet sources(out[i].spec, model);
    out[i].analysis = std::make_unique<DatasetAnalysis>(analyze_dataset(sources, config));
    elapsed[i] = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  });
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::fprintf(stderr, "[bench] %s: %llu packets streamed+analyzed in %.2fs (scale %.3f)\n",
                 names[i].c_str(),
                 static_cast<unsigned long long>(out[i].analysis->quality.packets_seen),
                 elapsed[i], scale);
  }
  return out;
}

const report::SectionEntry& section(std::string_view name) {
  for (const report::SectionEntry& s : report::sections())
    if (s.name == name) return s;
  throw std::logic_error("no report section " + std::string(name));
}

void print(const Item& item, Inputs in) {
  const std::vector<report::ReportInput> payload = report::payload_inputs(in);
  for (const std::string_view name : item.sections) {
    section(name).for_each_rendering(
        in, payload, [](const std::string& text) { std::fputs(text.c_str(), stdout); });
  }
  if (item.ablation != nullptr) item.ablation(in);
  std::printf("\n---- Paper reference (Pang et al., IMC 2005) ----\n%s\n", item.reference);
}

int usage() {
  std::fprintf(stderr, "usage: entrace_paper [--section NAME[,NAME...]]\n"
                       "sections (default: all):\n");
  for (const Item& item : kItems) std::fprintf(stderr, "  %s\n", item.name);
  return 2;
}

int run(int argc, char** argv) {
  std::vector<const Item*> selected;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) != "--section" || i + 1 == argc) return usage();
    for (const std::string_view name : split(argv[++i], ',')) {
      const auto it = std::find_if(kItems.begin(), kItems.end(),
                                   [&](const Item& item) { return name == item.name; });
      if (it == kItems.end()) {
        std::fprintf(stderr, "unknown section '%.*s'\n", static_cast<int>(name.size()),
                     name.data());
        return usage();
      }
      if (std::find(selected.begin(), selected.end(), &*it) == selected.end()) {
        selected.push_back(&*it);
      }
    }
  }
  if (selected.empty()) {
    for (const Item& item : kItems) selected.push_back(&item);
  }

  std::vector<std::string> names;  // every dataset a selected item reads, D0..D4 order
  for (const std::string& name : kAllSets) {
    if (std::any_of(selected.begin(), selected.end(), [&](const Item* item) {
          return std::count(item->datasets.begin(), item->datasets.end(), name) > 0;
        }))
      names.push_back(name);
  }
  const EnterpriseModel model;
  const std::vector<Dataset> datasets = analyze(names, model);
  for (const Item* item : selected) {
    std::vector<report::ReportInput> in;
    for (const std::string& name : item->datasets) {
      const Dataset& d = datasets[std::find(names.begin(), names.end(), name) - names.begin()];
      in.push_back({&d.spec, d.analysis.get()});
    }
    print(*item, in);
  }
  return 0;
}

}  // namespace
}  // namespace entrace

int main(int argc, char** argv) { return entrace::run(argc, argv); }
