#include "core/report.h"

#include <array>
#include <set>

#include "analysis/backup_analysis.h"
#include "analysis/breakdown.h"
#include "analysis/email_analysis.h"
#include "analysis/http_analysis.h"
#include "analysis/load.h"
#include "analysis/locality.h"
#include "analysis/name_analysis.h"
#include "analysis/netfile_analysis.h"
#include "analysis/windows_analysis.h"
#include "net/headers.h"
#include "obs/exposition.h"
#include "util/cdf_plot.h"
#include "util/strings.h"
#include "util/table.h"

namespace entrace::report {
namespace {

std::string pct(double f) { return format_pct(f); }

std::vector<std::string> names_row(Inputs in, const std::string& head) {
  std::vector<std::string> row{head};
  for (const auto& i : in) row.push_back(i.analysis->name);
  return row;
}

// Adds the row: `label`, then get(x) for each x of `xs`.
template <typename Xs, typename Get>
void add_row(TextTable& t, const std::string& label, const Xs& xs, Get get) {
  std::vector<std::string> r{label};
  for (const auto& x : xs) r.push_back(get(x));
  t.add_row(std::move(r));
}

}  // namespace

std::string table1_datasets(Inputs in) {
  TextTable t("Table 1: Dataset characteristics (synthetic reproduction, scaled)");
  t.set_header(names_row(in, ""));
  auto row = [&](const std::string& label, auto getter) { add_row(t, label, in, getter); };
  row("Duration", [](const ReportInput& i) {
    if (!i.spec) return std::string("?");
    const double d = i.spec->trace_duration;
    return d >= 3600 ? format_double(d / 3600, 0) + " hr" : format_double(d / 60, 0) + " min";
  });
  row("Per Tap", [](const ReportInput& i) {
    return i.spec ? std::to_string(i.spec->traces_per_subnet) : "?";
  });
  row("# Subnets", [](const ReportInput& i) {
    return i.spec ? std::to_string(i.spec->num_subnets) : "?";
  });
  row("# Packets", [](const ReportInput& i) { return format_count(i.analysis->total_packets); });
  row("Snaplen", [](const ReportInput& i) {
    return i.spec ? std::to_string(i.spec->snaplen) : "?";
  });
  row("Mon. Hosts", [](const ReportInput& i) {
    return std::to_string(i.analysis->monitored_hosts.size());
  });
  row("LBNL Hosts", [](const ReportInput& i) {
    return std::to_string(i.analysis->lbnl_hosts.size());
  });
  row("Remote Hosts", [](const ReportInput& i) {
    return std::to_string(i.analysis->remote_hosts.size());
  });
  return t.render();
}

std::string capture_quality(Inputs in) {
  TextTable t("Capture quality: per-dataset packet accounting "
              "(seen == decoded + dropped) and anomaly kinds");
  t.set_header(names_row(in, ""));
  auto row = [&](const std::string& label, auto getter) {
    add_row(t, label, in, [&](const ReportInput& i) { return getter(i.analysis->quality); });
  };
  row("Seen", [](const CaptureQuality& q) { return format_count(q.packets_seen); });
  row("Decoded", [](const CaptureQuality& q) { return format_count(q.packets_ok); });
  row("Dropped", [](const CaptureQuality& q) { return format_count(q.packets_dropped); });
  t.add_rule();
  // One row per anomaly kind that is non-zero in at least one dataset.
  for (std::size_t k = 0; k < kAnomalyKindCount; ++k) {
    const AnomalyKind kind = static_cast<AnomalyKind>(k);
    bool any = false;
    for (const auto& i : in) any = any || i.analysis->quality.anomalies[kind] != 0;
    if (!any) continue;
    std::vector<std::string> r{to_string(kind)};
    for (const auto& i : in) r.push_back(format_count(i.analysis->quality.anomalies[kind]));
    t.add_row(std::move(r));
  }
  return t.render();
}

std::string table2_network_layer(Inputs in) {
  TextTable t("Table 2: Network-layer protocol mix (IP as % of all packets; "
              "ARP/IPX/Other as % of non-IP)");
  t.set_header(names_row(in, ""));
  auto row = [&](const std::string& label, auto getter) {
    add_row(t, label, in, [&](const ReportInput& i) { return getter(i.analysis->l3); });
  };
  row("IP", [](const NetworkLayerBreakdown& b) { return pct(b.ip_fraction()); });
  row("!IP", [](const NetworkLayerBreakdown& b) { return pct(b.non_ip_fraction()); });
  t.add_rule();
  row("ARP", [](const NetworkLayerBreakdown& b) { return pct(b.arp_of_non_ip()); });
  row("IPX", [](const NetworkLayerBreakdown& b) { return pct(b.ipx_of_non_ip()); });
  row("Other", [](const NetworkLayerBreakdown& b) { return pct(b.other_of_non_ip()); });
  return t.render();
}

std::string table3_transport(Inputs in) {
  TextTable t("Table 3: Transport breakdown (scanner traffic removed)");
  t.set_header(names_row(in, ""));
  std::vector<TransportBreakdown> tb;
  tb.reserve(in.size());
  for (const auto& i : in) tb.push_back(TransportBreakdown::compute(i.analysis->connections));

  auto row = [&](const std::string& label, auto getter) { add_row(t, label, tb, getter); };
  row("Bytes", [](const TransportBreakdown& b) { return format_bytes(b.bytes); });
  row("TCP", [](const TransportBreakdown& b) { return pct(b.byte_fraction(ipproto::kTcp)); });
  row("UDP", [](const TransportBreakdown& b) { return pct(b.byte_fraction(ipproto::kUdp)); });
  row("ICMP", [](const TransportBreakdown& b) { return pct(b.byte_fraction(ipproto::kIcmp)); });
  t.add_rule();
  row("Conns", [](const TransportBreakdown& b) { return format_count(b.conns); });
  row("TCP", [](const TransportBreakdown& b) { return pct(b.conn_fraction(ipproto::kTcp)); });
  row("UDP", [](const TransportBreakdown& b) { return pct(b.conn_fraction(ipproto::kUdp)); });
  row("ICMP", [](const TransportBreakdown& b) { return pct(b.conn_fraction(ipproto::kIcmp)); });
  t.add_rule();
  {
    std::vector<std::string> r{"Scanner conns removed"};
    for (const auto& i : in) r.push_back(pct(i.analysis->scanner_removed_fraction()));
    t.add_row(std::move(r));
  }
  return t.render();
}

std::string figure1_app_breakdown(Inputs in) {
  static constexpr std::array<AppCategory, 13> kOrder = {
      AppCategory::kWeb,       AppCategory::kEmail,   AppCategory::kNetFile,
      AppCategory::kBackup,    AppCategory::kBulk,    AppCategory::kName,
      AppCategory::kInteractive, AppCategory::kWindows, AppCategory::kStreaming,
      AppCategory::kNetMgnt,   AppCategory::kMisc,    AppCategory::kOtherTcp,
      AppCategory::kOtherUdp};

  std::vector<AppCategoryBreakdown> breakdowns;
  breakdowns.reserve(in.size());
  for (const auto& i : in) {
    breakdowns.push_back(
        AppCategoryBreakdown::compute(i.analysis->connections, i.analysis->site));
  }

  std::string out;
  {
    TextTable t("Figure 1(a): % of unicast payload bytes by category (ent+wan = total; "
                "wan part in parentheses)");
    t.set_header(names_row(in, "category"));
    for (AppCategory c : kOrder) {
      std::vector<std::string> row{to_string(c)};
      for (const auto& b : breakdowns) {
        const double ent = b.byte_fraction(c, false);
        const double wan = b.byte_fraction(c, true);
        row.push_back(pct(ent + wan) + " (" + pct(wan) + ")");
      }
      t.add_row(std::move(row));
    }
    out += t.render();
  }
  {
    TextTable t("Figure 1(b): % of unicast connections by category");
    t.set_header(names_row(in, "category"));
    for (AppCategory c : kOrder) {
      std::vector<std::string> row{to_string(c)};
      for (const auto& b : breakdowns) {
        const double ent = b.conn_fraction(c, false);
        const double wan = b.conn_fraction(c, true);
        row.push_back(pct(ent + wan) + " (" + pct(wan) + ")");
      }
      t.add_row(std::move(row));
    }
    out += t.render();
  }
  {
    TextTable t("Figure 1 callout: multicast (as % of ALL payload bytes / connections)");
    t.set_header(names_row(in, "category"));
    for (AppCategory c : {AppCategory::kStreaming, AppCategory::kName, AppCategory::kNetMgnt}) {
      std::vector<std::string> row{to_string(c)};
      for (const auto& b : breakdowns) {
        row.push_back(pct(b.multicast_byte_fraction(c)) + " / " +
                      pct(b.multicast_conn_fraction(c)));
      }
      t.add_row(std::move(row));
    }
    out += t.render();
  }
  return out;
}

std::string origins_summary(Inputs in) {
  TextTable t("Section 4: flow origins (fractions of all flows)");
  t.set_header(names_row(in, ""));
  std::vector<OriginBreakdown> ob;
  for (const auto& i : in)
    ob.push_back(OriginBreakdown::compute(i.analysis->connections, i.analysis->site));
  auto row = [&](const std::string& label, auto getter) { add_row(t, label, ob, getter); };
  row("ent -> ent", [](const OriginBreakdown& b) { return pct(b.fraction(b.ent_to_ent)); });
  row("ent -> wan", [](const OriginBreakdown& b) { return pct(b.fraction(b.ent_to_wan)); });
  row("wan -> ent", [](const OriginBreakdown& b) { return pct(b.fraction(b.wan_to_ent)); });
  row("mcast ent-src",
      [](const OriginBreakdown& b) { return pct(b.fraction(b.multicast_ent_src)); });
  row("mcast wan-src",
      [](const OriginBreakdown& b) { return pct(b.fraction(b.multicast_wan_src)); });
  return t.render();
}

std::string figure2_fan(const ReportInput& in) {
  const DatasetAnalysis& a = *in.analysis;
  FanResult fan = compute_fan(a.connections, a.site,
                              [&a](Ipv4Address h) { return a.is_monitored_host(h); });
  std::string out;
  CdfPlot fin("Figure 2(a): Fan-in (" + a.name + ")", "peers", true);
  fin.add_series("enterprise", fan.fan_in_ent);
  fin.add_series("wan", fan.fan_in_wan);
  out += fin.render();
  CdfPlot fout("Figure 2(b): Fan-out (" + a.name + ")", "peers", true);
  fout.add_series("enterprise", fan.fan_out_ent);
  fout.add_series("wan", fan.fan_out_wan);
  out += fout.render();
  out += "hosts with only-internal fan-in: " + pct(fan.only_internal_fan_in) +
         " (paper: one-third to one-half)\n";
  out += "hosts with only-internal fan-out: " + pct(fan.only_internal_fan_out) +
         " (paper: more than half)\n";
  return out;
}

namespace {

std::vector<HttpAnalysis> http_for(Inputs in) {
  std::vector<HttpAnalysis> v;
  for (const auto& i : in) {
    v.push_back(HttpAnalysis::compute(i.analysis->events.http, i.analysis->connections,
                                      i.analysis->site));
  }
  return v;
}

}  // namespace

std::string table6_http_automation(Inputs in) {
  TextTable t("Table 6: Automated clients' share of internal HTTP traffic (requests / bytes)");
  t.set_header(names_row(in, ""));
  auto https = http_for(in);
  {
    std::vector<std::string> r{"Total (reqs/bytes)"};
    for (const auto& h : https)
      r.push_back(std::to_string(h.internal_requests) + " / " + format_bytes(h.internal_bytes));
    t.add_row(std::move(r));
  }
  for (HttpClientKind k : {HttpClientKind::kScan1, HttpClientKind::kGoogle1,
                           HttpClientKind::kGoogle2, HttpClientKind::kIfolder}) {
    std::vector<std::string> r{to_string(k)};
    for (const auto& h : https) {
      auto it = h.automated.find(k);
      const std::uint64_t reqs = it != h.automated.end() ? it->second.requests : 0;
      const std::uint64_t bytes = it != h.automated.end() ? it->second.bytes : 0;
      const double rf = h.internal_requests
                            ? static_cast<double>(reqs) / static_cast<double>(h.internal_requests)
                            : 0;
      const double bf = h.internal_bytes
                            ? static_cast<double>(bytes) / static_cast<double>(h.internal_bytes)
                            : 0;
      r.push_back(pct(rf) + " / " + pct(bf));
    }
    t.add_row(std::move(r));
  }
  {
    std::vector<std::string> r{"All automated"};
    for (const auto& h : https)
      r.push_back(pct(h.automated_request_fraction()) + " / " + pct(h.automated_byte_fraction()));
    t.add_row(std::move(r));
  }
  return t.render();
}

std::string http_findings(Inputs in) {
  TextTable t("HTTP findings (§5.1.1): success rates and conditional GETs");
  t.set_header(names_row(in, ""));
  auto https = http_for(in);
  auto row = [&](const std::string& label, auto getter) { add_row(t, label, https, getter); };
  row("ent conn success (host pairs)",
      [](const HttpAnalysis& h) { return pct(h.ent_success.success_rate()); });
  row("wan conn success (host pairs)",
      [](const HttpAnalysis& h) { return pct(h.wan_success.success_rate()); });
  row("cond. GETs, ent (reqs)", [](const HttpAnalysis& h) {
    return h.ent_requests ? pct(static_cast<double>(h.ent_conditional) /
                                static_cast<double>(h.ent_requests))
                          : std::string("-");
  });
  row("cond. GETs, wan (reqs)", [](const HttpAnalysis& h) {
    return h.wan_requests ? pct(static_cast<double>(h.wan_conditional) /
                                static_cast<double>(h.wan_requests))
                          : std::string("-");
  });
  row("cond. GET bytes, ent", [](const HttpAnalysis& h) {
    return h.ent_bytes ? pct(static_cast<double>(h.ent_conditional_bytes) /
                             static_cast<double>(h.ent_bytes))
                       : std::string("-");
  });
  row("cond. GET bytes, wan", [](const HttpAnalysis& h) {
    return h.wan_bytes ? pct(static_cast<double>(h.wan_conditional_bytes) /
                             static_cast<double>(h.wan_bytes))
                       : std::string("-");
  });
  row("request success (2xx/304)", [](const HttpAnalysis& h) {
    const std::uint64_t reqs = h.ent_requests + h.wan_requests;
    return reqs ? pct(static_cast<double>(h.request_successes) / static_cast<double>(reqs))
                : std::string("-");
  });
  return t.render();
}

std::string figure3_http_fanout(Inputs in) {
  std::string out;
  auto https = http_for(in);
  CdfPlot plot("Figure 3: HTTP fan-out (servers per client)", "peers per source", true);
  for (std::size_t i = 0; i < in.size(); ++i) {
    plot.add_series("ent:" + in[i].analysis->name, https[i].fanout.ent);
    plot.add_series("wan:" + in[i].analysis->name, https[i].fanout.wan);
  }
  out += plot.render();
  return out;
}

std::string table7_http_content_types(Inputs in) {
  TextTable t("Table 7: HTTP content types (requests% / bytes%)");
  std::vector<std::string> header{"type"};
  for (const auto& i : in) {
    header.push_back(i.analysis->name + "/ent");
    header.push_back(i.analysis->name + "/wan");
  }
  t.set_header(std::move(header));
  auto https = http_for(in);
  for (const std::string type : {"text", "image", "application", "other"}) {
    std::vector<std::string> row{type};
    for (const auto& h : https) {
      row.push_back(pct(h.content_ent.count_fraction(type)) + " / " +
                    pct(h.content_ent.bytes_fraction(type)));
      row.push_back(pct(h.content_wan.count_fraction(type)) + " / " +
                    pct(h.content_wan.bytes_fraction(type)));
    }
    t.add_row(std::move(row));
  }
  return t.render();
}

std::string figure4_http_reply_sizes(Inputs in) {
  auto https = http_for(in);
  CdfPlot plot("Figure 4: HTTP reply size (bytes, when present)", "bytes", true);
  for (std::size_t i = 0; i < in.size(); ++i) {
    plot.add_series("ent:" + in[i].analysis->name, https[i].reply_size_ent);
    plot.add_series("wan:" + in[i].analysis->name, https[i].reply_size_wan);
  }
  return plot.render();
}

namespace {

std::vector<EmailAnalysis> email_for(Inputs in) {
  std::vector<EmailAnalysis> v;
  for (const auto& i : in)
    v.push_back(EmailAnalysis::compute(i.analysis->connections, i.analysis->site));
  return v;
}

}  // namespace

std::string table8_email_sizes(Inputs in) {
  TextTable t("Table 8: Email traffic size (payload bytes)");
  t.set_header(names_row(in, ""));
  auto emails = email_for(in);
  auto row = [&](const std::string& label, auto getter) {
    add_row(t, label, emails, [&](const EmailAnalysis& e) { return format_bytes(getter(e)); });
  };
  row("SMTP", [](const EmailAnalysis& e) { return e.smtp_bytes; });
  row("SIMAP", [](const EmailAnalysis& e) { return e.imaps_bytes; });
  row("IMAP4", [](const EmailAnalysis& e) { return e.imap4_bytes; });
  row("Other", [](const EmailAnalysis& e) { return e.other_bytes; });
  return t.render();
}

std::string figure5_email_durations(Inputs in) {
  auto emails = email_for(in);
  std::string out;
  {
    CdfPlot plot("Figure 5(a): SMTP connection durations (s)", "seconds", true);
    for (std::size_t i = 0; i < in.size(); ++i) {
      plot.add_series("ent:" + in[i].analysis->name, emails[i].smtp_dur_ent);
      plot.add_series("wan:" + in[i].analysis->name, emails[i].smtp_dur_wan);
    }
    out += plot.render();
  }
  {
    CdfPlot plot("Figure 5(b): IMAP/S connection durations (s)", "seconds", true);
    for (std::size_t i = 0; i < in.size(); ++i) {
      plot.add_series("ent:" + in[i].analysis->name, emails[i].imaps_dur_ent);
      plot.add_series("wan:" + in[i].analysis->name, emails[i].imaps_dur_wan);
    }
    out += plot.render();
  }
  {
    TextTable t("Email success rates (host pairs)");
    t.set_header(names_row(in, ""));
    auto row = [&](const std::string& label, auto getter) { add_row(t, label, emails, getter); };
    row("SMTP ent", [](const EmailAnalysis& e) { return pct(e.smtp_ent.success_rate()); });
    row("SMTP wan", [](const EmailAnalysis& e) { return pct(e.smtp_wan.success_rate()); });
    row("IMAP/S", [](const EmailAnalysis& e) { return pct(e.imaps_all.success_rate()); });
    out += t.render();
  }
  return out;
}

std::string figure6_email_sizes(Inputs in) {
  auto emails = email_for(in);
  std::string out;
  {
    CdfPlot plot("Figure 6(a): SMTP flow size from client (bytes)", "bytes", true);
    for (std::size_t i = 0; i < in.size(); ++i) {
      plot.add_series("ent:" + in[i].analysis->name, emails[i].smtp_size_ent);
      plot.add_series("wan:" + in[i].analysis->name, emails[i].smtp_size_wan);
    }
    out += plot.render();
  }
  {
    CdfPlot plot("Figure 6(b): IMAP/S flow size from server (bytes)", "bytes", true);
    for (std::size_t i = 0; i < in.size(); ++i) {
      plot.add_series("ent:" + in[i].analysis->name, emails[i].imaps_size_ent);
      plot.add_series("wan:" + in[i].analysis->name, emails[i].imaps_size_wan);
    }
    out += plot.render();
  }
  return out;
}

std::string name_service_findings(Inputs in) {
  TextTable t("Name services (§5.1.3)");
  t.set_header(names_row(in, ""));
  std::vector<NameAnalysis> names;
  for (const auto& i : in) {
    names.push_back(
        NameAnalysis::compute(i.analysis->events.dns, i.analysis->events.nbns, i.analysis->site));
  }
  auto row = [&](const std::string& label, auto getter) { add_row(t, label, names, getter); };
  row("DNS median latency ent (ms)", [](const NameAnalysis& n) {
    return n.dns_latency_ent.empty() ? std::string("-")
                                     : format_double(n.dns_latency_ent.median() * 1000, 2);
  });
  row("DNS median latency wan (ms)", [](const NameAnalysis& n) {
    return n.dns_latency_wan.empty() ? std::string("-")
                                     : format_double(n.dns_latency_wan.median() * 1000, 2);
  });
  auto frac = [](std::uint64_t n, std::uint64_t d) {
    return d == 0 ? std::string("-") : pct(static_cast<double>(n) / static_cast<double>(d));
  };
  row("A requests", [&frac](const NameAnalysis& n) { return frac(n.dns_a, n.dns_requests); });
  row("AAAA requests",
      [&frac](const NameAnalysis& n) { return frac(n.dns_aaaa, n.dns_requests); });
  row("PTR requests",
      [&frac](const NameAnalysis& n) { return frac(n.dns_ptr, n.dns_requests); });
  row("MX requests", [&frac](const NameAnalysis& n) { return frac(n.dns_mx, n.dns_requests); });
  row("DNS NOERROR",
      [&frac](const NameAnalysis& n) { return frac(n.dns_noerror, n.dns_responses); });
  row("DNS NXDOMAIN",
      [&frac](const NameAnalysis& n) { return frac(n.dns_nxdomain, n.dns_responses); });
  row("DNS top-2 client share",
      [](const NameAnalysis& n) { return pct(n.dns_top2_client_share); });
  t.add_rule();
  row("NBNS queries",
      [&frac](const NameAnalysis& n) { return frac(n.nbns_queries, n.nbns_requests); });
  row("NBNS refresh",
      [&frac](const NameAnalysis& n) { return frac(n.nbns_refresh, n.nbns_requests); });
  row("NBNS wkst+server names", [&frac](const NameAnalysis& n) {
    return frac(n.nbns_type_workstation_server, n.nbns_requests);
  });
  row("NBNS domain/browser names",
      [&frac](const NameAnalysis& n) { return frac(n.nbns_type_domain, n.nbns_requests); });
  row("NBNS failure rate (distinct ops)",
      [](const NameAnalysis& n) { return pct(n.nbns_failure_rate()); });
  row("NBNS top-10 client share",
      [](const NameAnalysis& n) { return pct(n.nbns_top10_client_share); });
  return t.render();
}

namespace {

std::vector<WindowsAnalysis> windows_for(Inputs in) {
  std::vector<WindowsAnalysis> v;
  for (const auto& i : in) {
    v.push_back(
        WindowsAnalysis::compute(i.analysis->events, i.analysis->connections, i.analysis->site));
  }
  return v;
}

}  // namespace

std::string table9_windows_success(Inputs in) {
  TextTable t("Table 9: Windows connection outcomes by host pairs (internal traffic)");
  t.set_header(names_row(in, ""));
  auto ws = windows_for(in);
  auto row = [&](const std::string& label, auto getter) { add_row(t, label, ws, getter); };
  auto outcome = [](const HostPairOutcomes& o) {
    return std::to_string(o.pairs) + " pairs: " + format_pct(o.success_rate()) + " ok, " +
           format_pct(o.rejected_rate()) + " rej, " + format_pct(o.unanswered_rate()) + " unans";
  };
  row("Netbios/SSN (139)",
      [&outcome](const WindowsAnalysis& w) { return outcome(w.nbss_conns); });
  row("CIFS (445)", [&outcome](const WindowsAnalysis& w) { return outcome(w.cifs_conns); });
  row("Endpoint Mapper (135)",
      [&outcome](const WindowsAnalysis& w) { return outcome(w.epm_conns); });
  row("NBSS handshake ok",
      [](const WindowsAnalysis& w) { return format_pct(w.nbss_handshake_rate()); });
  return t.render();
}

std::string table10_cifs_commands(Inputs in) {
  TextTable t("Table 10: CIFS command breakdown (requests% / bytes%)");
  t.set_header(names_row(in, ""));
  auto ws = windows_for(in);
  {
    std::vector<std::string> r{"Total (reqs/bytes)"};
    for (const auto& w : ws)
      r.push_back(std::to_string(w.cifs_total_requests) + " / " +
                  format_bytes(w.cifs_total_bytes));
    t.add_row(std::move(r));
  }
  for (std::size_t c = 0; c < 5; ++c) {
    std::vector<std::string> r{to_string(static_cast<CifsCategory>(c))};
    for (const auto& w : ws) {
      const auto& cell = w.cifs_categories[c];
      const double rf = w.cifs_total_requests ? static_cast<double>(cell.requests) /
                                                    static_cast<double>(w.cifs_total_requests)
                                              : 0;
      const double bf = w.cifs_total_bytes ? static_cast<double>(cell.bytes) /
                                                 static_cast<double>(w.cifs_total_bytes)
                                           : 0;
      r.push_back(pct(rf) + " / " + pct(bf));
    }
    t.add_row(std::move(r));
  }
  return t.render();
}

std::string table11_dcerpc_functions(Inputs in) {
  TextTable t("Table 11: DCE/RPC function breakdown (requests% / bytes%)");
  t.set_header(names_row(in, ""));
  auto ws = windows_for(in);
  {
    std::vector<std::string> r{"Total (reqs/bytes)"};
    for (const auto& w : ws)
      r.push_back(std::to_string(w.rpc_total_requests) + " / " +
                  format_bytes(w.rpc_total_bytes));
    t.add_row(std::move(r));
  }
  auto row = [&t, &ws](const std::string& label, auto member) {
    std::vector<std::string> r{label};
    for (const auto& w : ws) {
      const WindowsAnalysis::RpcRow& cell = w.*member;
      const double rf = w.rpc_total_requests ? static_cast<double>(cell.requests) /
                                                   static_cast<double>(w.rpc_total_requests)
                                             : 0;
      const double bf = w.rpc_total_bytes ? static_cast<double>(cell.bytes) /
                                                static_cast<double>(w.rpc_total_bytes)
                                          : 0;
      r.push_back(pct(rf) + " / " + pct(bf));
    }
    t.add_row(std::move(r));
  };
  row("NetLogon", &WindowsAnalysis::rpc_netlogon);
  row("LsaRPC", &WindowsAnalysis::rpc_lsarpc);
  row("Spoolss/WritePrinter", &WindowsAnalysis::rpc_spoolss_write);
  row("Spoolss/other", &WindowsAnalysis::rpc_spoolss_other);
  row("Other", &WindowsAnalysis::rpc_other);
  {
    std::vector<std::string> r{"over pipes / standalone"};
    for (const auto& w : ws)
      r.push_back(std::to_string(w.rpc_over_pipe) + " / " + std::to_string(w.rpc_standalone));
    t.add_row(std::move(r));
  }
  return t.render();
}

namespace {

std::vector<NetFileAnalysis> netfile_for(Inputs in) {
  std::vector<NetFileAnalysis> v;
  for (const auto& i : in) {
    v.push_back(
        NetFileAnalysis::compute(i.analysis->events, i.analysis->connections, i.analysis->site));
  }
  return v;
}

}  // namespace

std::string table12_netfile_sizes(Inputs in) {
  TextTable t("Table 12: NFS/NCP connections and bytes");
  t.set_header(names_row(in, ""));
  auto nf = netfile_for(in);
  auto row = [&](const std::string& label, auto getter) { add_row(t, label, nf, getter); };
  row("NFS conns", [](const NetFileAnalysis& n) { return std::to_string(n.nfs_conns); });
  row("NFS bytes", [](const NetFileAnalysis& n) { return format_bytes(n.nfs_bytes); });
  row("NCP conns", [](const NetFileAnalysis& n) { return std::to_string(n.ncp_conns); });
  row("NCP bytes", [](const NetFileAnalysis& n) { return format_bytes(n.ncp_bytes); });
  t.add_rule();
  row("NFS top-3 pair byte share",
      [](const NetFileAnalysis& n) { return pct(n.nfs_top3_pair_byte_share); });
  row("NCP top-3 pair byte share",
      [](const NetFileAnalysis& n) { return pct(n.ncp_top3_pair_byte_share); });
  row("NCP keepalive-only conns",
      [](const NetFileAnalysis& n) { return pct(n.ncp_keepalive_only_fraction()); });
  row("NFS UDP byte share", [](const NetFileAnalysis& n) {
    const std::uint64_t total = n.nfs_udp_bytes + n.nfs_tcp_bytes;
    return total ? pct(static_cast<double>(n.nfs_udp_bytes) / static_cast<double>(total))
                 : std::string("-");
  });
  row("NFS UDP/TCP pairs", [](const NetFileAnalysis& n) {
    return std::to_string(n.nfs_udp_pairs) + " / " + std::to_string(n.nfs_tcp_pairs);
  });
  return t.render();
}

namespace {

std::string req_data_cell(const NetFileAnalysis::Row& row, std::uint64_t total_reqs,
                          std::uint64_t total_data) {
  const double rf =
      total_reqs ? static_cast<double>(row.requests) / static_cast<double>(total_reqs) : 0;
  const double bf =
      total_data ? static_cast<double>(row.bytes) / static_cast<double>(total_data) : 0;
  return format_pct(rf) + " / " + format_pct(bf);
}

}  // namespace

std::string table13_nfs_requests(Inputs in) {
  TextTable t("Table 13: NFS request breakdown (requests% / data%)");
  t.set_header(names_row(in, ""));
  auto nf = netfile_for(in);
  {
    std::vector<std::string> r{"Total (reqs/data)"};
    for (const auto& n : nf)
      r.push_back(std::to_string(n.nfs_total_requests) + " / " + format_bytes(n.nfs_total_data));
    t.add_row(std::move(r));
  }
  auto row = [&t, &nf](const std::string& label, auto member) {
    std::vector<std::string> r{label};
    for (const auto& n : nf)
      r.push_back(req_data_cell(n.*member, n.nfs_total_requests, n.nfs_total_data));
    t.add_row(std::move(r));
  };
  row("Read", &NetFileAnalysis::nfs_read);
  row("Write", &NetFileAnalysis::nfs_write);
  row("GetAttr", &NetFileAnalysis::nfs_getattr);
  row("LookUp", &NetFileAnalysis::nfs_lookup);
  row("Access", &NetFileAnalysis::nfs_access);
  row("Other", &NetFileAnalysis::nfs_other);
  {
    std::vector<std::string> r{"request success"};
    for (const auto& n : nf)
      r.push_back(n.nfs_replies ? pct(static_cast<double>(n.nfs_ok) /
                                      static_cast<double>(n.nfs_replies))
                                : std::string("-"));
    t.add_row(std::move(r));
  }
  return t.render();
}

std::string table14_ncp_requests(Inputs in) {
  TextTable t("Table 14: NCP request breakdown (requests% / data%)");
  t.set_header(names_row(in, ""));
  auto nf = netfile_for(in);
  {
    std::vector<std::string> r{"Total (reqs/data)"};
    for (const auto& n : nf)
      r.push_back(std::to_string(n.ncp_total_requests) + " / " + format_bytes(n.ncp_total_data));
    t.add_row(std::move(r));
  }
  for (std::size_t f = 0; f < 8; ++f) {
    std::vector<std::string> r{to_string(static_cast<NcpFunction>(f))};
    for (const auto& n : nf)
      r.push_back(req_data_cell(n.ncp_rows[f], n.ncp_total_requests, n.ncp_total_data));
    t.add_row(std::move(r));
  }
  {
    std::vector<std::string> r{"request success"};
    for (const auto& n : nf)
      r.push_back(n.ncp_replies ? pct(static_cast<double>(n.ncp_ok) /
                                      static_cast<double>(n.ncp_replies))
                                : std::string("-"));
    t.add_row(std::move(r));
  }
  return t.render();
}

std::string figure7_requests_per_pair(Inputs in) {
  auto nf = netfile_for(in);
  std::string out;
  {
    CdfPlot plot("Figure 7(a): NFS requests per host pair", "requests", true);
    for (std::size_t i = 0; i < in.size(); ++i)
      plot.add_series("ent:" + in[i].analysis->name, nf[i].nfs_reqs_per_pair);
    out += plot.render();
  }
  {
    CdfPlot plot("Figure 7(b): NCP requests per host pair", "requests", true);
    for (std::size_t i = 0; i < in.size(); ++i)
      plot.add_series("ent:" + in[i].analysis->name, nf[i].ncp_reqs_per_pair);
    out += plot.render();
  }
  return out;
}

std::string figure8_netfile_message_sizes(Inputs in) {
  auto nf = netfile_for(in);
  std::string out;
  {
    CdfPlot plot("Figure 8(a): NFS request sizes (bytes)", "bytes", true);
    for (std::size_t i = 0; i < in.size(); ++i)
      plot.add_series(in[i].analysis->name, nf[i].nfs_req_sizes);
    out += plot.render();
  }
  {
    CdfPlot plot("Figure 8(b): NFS reply sizes (bytes)", "bytes", true);
    for (std::size_t i = 0; i < in.size(); ++i)
      plot.add_series(in[i].analysis->name, nf[i].nfs_reply_sizes);
    out += plot.render();
  }
  {
    CdfPlot plot("Figure 8(c): NCP request sizes (bytes)", "bytes", true);
    for (std::size_t i = 0; i < in.size(); ++i)
      plot.add_series(in[i].analysis->name, nf[i].ncp_req_sizes);
    out += plot.render();
  }
  {
    CdfPlot plot("Figure 8(d): NCP reply sizes (bytes)", "bytes", true);
    for (std::size_t i = 0; i < in.size(); ++i)
      plot.add_series(in[i].analysis->name, nf[i].ncp_reply_sizes);
    out += plot.render();
  }
  return out;
}

std::string table15_backup(Inputs in) {
  TextTable t("Table 15: Backup applications (aggregated across datasets)");
  t.set_header({"", "Connections", "Bytes", "c->s share", "bidir conns (>1MB both ways)"});
  // Aggregate across all inputs, as the paper's Table 15 does.
  BackupAnalysis agg;
  for (const auto& i : in) {
    BackupAnalysis b = BackupAnalysis::compute(i.analysis->connections, i.analysis->site);
    auto merge = [](BackupAnalysis::AppRow& into, const BackupAnalysis::AppRow& from) {
      into.conns += from.conns;
      into.bytes += from.bytes;
      into.client_to_server_bytes += from.client_to_server_bytes;
      into.server_to_client_bytes += from.server_to_client_bytes;
      into.bidirectional_conns += from.bidirectional_conns;
    };
    merge(agg.veritas_ctrl, b.veritas_ctrl);
    merge(agg.veritas_data, b.veritas_data);
    merge(agg.dantz, b.dantz);
    merge(agg.connected, b.connected);
  }
  auto row = [&t](const std::string& label, const BackupAnalysis::AppRow& r) {
    t.add_row({label, std::to_string(r.conns), format_bytes(r.bytes), pct(r.c2s_fraction()),
               std::to_string(r.bidirectional_conns)});
  };
  row("VERITAS-BACKUP-CTRL", agg.veritas_ctrl);
  row("VERITAS-BACKUP-DATA", agg.veritas_data);
  row("DANTZ", agg.dantz);
  row("CONNECTED-BACKUP", agg.connected);
  return t.render();
}

std::string figure9_utilization(const ReportInput& in) {
  LoadAnalysis load = LoadAnalysis::compute(in.analysis->load_raw);
  std::string out;
  {
    CdfPlot plot("Figure 9(a): peak utilization per trace, " + in.analysis->name + " (Mbps)",
                 "Mbps", true);
    plot.add_series("1 second", load.peak_1s);
    plot.add_series("10 seconds", load.peak_10s);
    plot.add_series("60 seconds", load.peak_60s);
    out += plot.render();
  }
  {
    CdfPlot plot("Figure 9(b): 1-second utilization statistics per trace (Mbps)", "Mbps", true);
    plot.add_series("Minimum", load.min_1s);
    plot.add_series("Maximum", load.max_1s);
    plot.add_series("Average", load.avg_1s);
    plot.add_series("25th perc.", load.p25_1s);
    plot.add_series("Median", load.median_1s);
    plot.add_series("75th perc.", load.p75_1s);
    out += plot.render();
  }
  return out;
}

std::string figure10_retransmissions(Inputs in) {
  std::string out;
  TextTable t("Figure 10: TCP retransmission rates across traces (keepalives excluded)");
  t.set_header({"dataset", "traces", "ent median", "ent p90", "ent max", "wan median",
                "wan p90", "wan max", "ent traces >1%", "keepalive retx excluded"});
  for (const auto& i : in) {
    LoadAnalysis load = LoadAnalysis::compute(i.analysis->load_raw);
    std::uint64_t over_1pct = 0;
    for (double r : load.retx_ent_by_trace)
      if (r > 0.01) ++over_1pct;
    t.add_row({i.analysis->name, std::to_string(i.analysis->load_raw.size()),
               pct(load.retx_ent.median()), pct(load.retx_ent.quantile(0.9)),
               pct(load.retx_ent.max()), pct(load.retx_wan.median()),
               pct(load.retx_wan.quantile(0.9)), pct(load.retx_wan.max()),
               std::to_string(over_1pct), std::to_string(load.keepalives_excluded)});
  }
  out += t.render();
  return out;
}

std::string telemetry(Inputs in) {
  std::string out;
  for (const auto& i : in) {
    if (i.analysis->metrics.empty()) continue;
    if (!out.empty()) out += "\n";
    out += obs::render_table(i.analysis->metrics,
                             "Pipeline telemetry (semantic metrics): " + i.analysis->name,
                             /*include_timing=*/false);
  }
  return out;
}

namespace {

constexpr SectionEntry kSections[] = {
    {"table1_datasets", Scope::kAll, table1_datasets},
    {"capture_quality", Scope::kAll, capture_quality},
    {"table2_network_layer", Scope::kAll, table2_network_layer},
    {"table3_transport", Scope::kAll, table3_transport},
    {"figure1_app_breakdown", Scope::kAll, figure1_app_breakdown},
    {"origins_summary", Scope::kAll, origins_summary},
    {"figure2_fan", Scope::kEach, [](Inputs in) { return figure2_fan(in.front()); }},
    {"table6_http_automation", Scope::kPayload, table6_http_automation},
    {"http_findings", Scope::kPayload, http_findings},
    {"figure3_http_fanout", Scope::kPayload, figure3_http_fanout},
    {"table7_http_content_types", Scope::kPayload, table7_http_content_types},
    {"figure4_http_reply_sizes", Scope::kPayload, figure4_http_reply_sizes},
    {"table8_email_sizes", Scope::kAll, table8_email_sizes},
    {"figure5_email_durations", Scope::kAll, figure5_email_durations},
    {"figure6_email_sizes", Scope::kAll, figure6_email_sizes},
    {"name_service_findings", Scope::kPayload, name_service_findings},
    {"table9_windows_success", Scope::kPayload, table9_windows_success},
    {"table10_cifs_commands", Scope::kPayload, table10_cifs_commands},
    {"table11_dcerpc_functions", Scope::kPayload, table11_dcerpc_functions},
    {"table12_netfile_sizes", Scope::kAll, table12_netfile_sizes},
    {"table13_nfs_requests", Scope::kPayload, table13_nfs_requests},
    {"table14_ncp_requests", Scope::kPayload, table14_ncp_requests},
    {"figure7_requests_per_pair", Scope::kPayload, figure7_requests_per_pair},
    {"figure8_netfile_message_sizes", Scope::kPayload, figure8_netfile_message_sizes},
    {"table15_backup", Scope::kAll, table15_backup},
    {"figure9_utilization", Scope::kEach,
     [](Inputs in) { return figure9_utilization(in.front()); }},
    {"figure10_retransmissions", Scope::kAll, figure10_retransmissions},
    {"telemetry", Scope::kAll, telemetry},
};

}  // namespace

std::span<const SectionEntry> sections() { return kSections; }

std::vector<ReportInput> payload_inputs(Inputs in) {
  std::vector<ReportInput> payload;
  for (const auto& i : in)
    if (i.spec == nullptr || i.spec->payload_analysis()) payload.push_back(i);
  return payload;
}

std::string full_report(Inputs in) {
  const std::vector<ReportInput> payload = payload_inputs(in);
  std::string out;
  const auto add = [&out](const std::string& text) {
    if (text.empty()) return;
    if (!out.empty()) out += '\n';
    out += text;
  };
  for (const SectionEntry& s : kSections) s.for_each_rendering(in, payload, add);
  return out;
}

}  // namespace entrace::report
