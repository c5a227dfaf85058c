#include "golden.h"

#include <cstdint>
#include <cstdio>
#include <span>

#include "core/report.h"
#include "snapshot/format.h"

namespace entrace::golden {
namespace {

struct Digest {
  const char* route;
  const char* section;
  std::uint32_t crc;
  std::size_t bytes;
};

// clang-format off
constexpr Digest kPinned[] = {
    {"D0", "table1_datasets", 0xc598f5bau, 378},
    {"D0", "capture_quality", 0xb7acb0ceu, 345},
    {"D0", "table2_network_layer", 0x31c3ec94u, 261},
    {"D0", "table3_transport", 0x8ed5adf9u, 625},
    {"D0", "figure1_app_breakdown", 0x2e403c9eu, 1431},
    {"D0", "origins_summary", 0x7c9337a5u, 274},
    {"D0", "figure2_fan", 0x6e133d91u, 1497},
    {"D0", "table6_http_automation", 0x4f92c345u, 468},
    {"D0", "http_findings", 0xa86cdc8au, 511},
    {"D0", "figure3_http_fanout", 0xa7c6d5f0u, 644},
    {"D0", "table7_http_content_types", 0xd9d51f94u, 401},
    {"D0", "figure4_http_reply_sizes", 0x371074fcu, 739},
    {"D0", "table8_email_sizes", 0x3c5d2336u, 220},
    {"D0", "figure5_email_durations", 0x408d1185u, 1053},
    {"D0", "figure6_email_sizes", 0xc34d4091u, 958},
    {"D0", "name_service_findings", 0x44697eecu, 924},
    {"D0", "table9_windows_success", 0x43afd36fu, 574},
    {"D0", "table10_cifs_commands", 0xfceff9e6u, 464},
    {"D0", "table11_dcerpc_functions", 0xefa058c4u, 542},
    {"D0", "table12_netfile_sizes", 0x064a50a7u, 628},
    {"D0", "table13_nfs_requests", 0xfefd6ffcu, 556},
    {"D0", "table14_ncp_requests", 0xa76e33e2u, 598},
    {"D0", "figure7_requests_per_pair", 0xb8965b1bu, 1222},
    {"D0", "figure8_netfile_message_sizes", 0xd5ecb895u, 2429},
    {"D0", "table15_backup", 0x0e92d836u, 795},
    {"D0", "figure9_utilization", 0x6b761981u, 1878},
    {"D0", "figure10_retransmissions", 0x168aea23u, 722},
    {"D0", "telemetry", 0x49c0d8e9u, 2454},
    {"D1", "table1_datasets", 0xfed7ce0du, 378},
    {"D1", "capture_quality", 0x88d137a4u, 345},
    {"D1", "table2_network_layer", 0x00447951u, 251},
    {"D1", "table3_transport", 0xf6ef1c79u, 625},
    {"D1", "figure1_app_breakdown", 0x38958d01u, 1417},
    {"D1", "origins_summary", 0x9ffe7dd3u, 274},
    {"D1", "figure2_fan", 0x0ef79c98u, 1527},
    {"D1", "table6_http_automation", 0x02148898u, 308},
    {"D1", "http_findings", 0x0e8359f1u, 434},
    {"D1", "figure3_http_fanout", 0x6d0029e0u, 188},
    {"D1", "table7_http_content_types", 0x9b58d279u, 177},
    {"D1", "figure4_http_reply_sizes", 0xfa36c08du, 181},
    {"D1", "table8_email_sizes", 0x5444e26bu, 212},
    {"D1", "figure5_email_durations", 0xc6b12b62u, 1521},
    {"D1", "figure6_email_sizes", 0x34f74486u, 1528},
    {"D1", "name_service_findings", 0xfd56f185u, 764},
    {"D1", "table9_windows_success", 0xfe56e076u, 278},
    {"D1", "table10_cifs_commands", 0xa4ba34f7u, 304},
    {"D1", "table11_dcerpc_functions", 0xd6f3b44du, 366},
    {"D1", "table12_netfile_sizes", 0x97b60654u, 628},
    {"D1", "table13_nfs_requests", 0xb864a1feu, 316},
    {"D1", "table14_ncp_requests", 0xdc587158u, 360},
    {"D1", "figure7_requests_per_pair", 0xe260d907u, 352},
    {"D1", "figure8_netfile_message_sizes", 0xc21d357du, 684},
    {"D1", "table15_backup", 0xd56e3056u, 795},
    {"D1", "figure9_utilization", 0xd2cfe3b3u, 1878},
    {"D1", "figure10_retransmissions", 0x40a2470fu, 722},
    {"D1", "telemetry", 0xddb1c801u, 2490},
    {"D2", "table1_datasets", 0x2a09f8cfu, 378},
    {"D2", "capture_quality", 0x10832495u, 345},
    {"D2", "table2_network_layer", 0x48f37710u, 251},
    {"D2", "table3_transport", 0x2527ea12u, 610},
    {"D2", "figure1_app_breakdown", 0xccbed7cau, 1417},
    {"D2", "origins_summary", 0x6d88cb11u, 274},
    {"D2", "figure2_fan", 0x2512efd3u, 1521},
    {"D2", "table6_http_automation", 0x02148898u, 308},
    {"D2", "http_findings", 0x0e8359f1u, 434},
    {"D2", "figure3_http_fanout", 0x6d0029e0u, 188},
    {"D2", "table7_http_content_types", 0x9b58d279u, 177},
    {"D2", "figure4_http_reply_sizes", 0xfa36c08du, 181},
    {"D2", "table8_email_sizes", 0x1943891bu, 212},
    {"D2", "figure5_email_durations", 0x6ab7255fu, 1497},
    {"D2", "figure6_email_sizes", 0xb2bfd210u, 1540},
    {"D2", "name_service_findings", 0xfd56f185u, 764},
    {"D2", "table9_windows_success", 0xfe56e076u, 278},
    {"D2", "table10_cifs_commands", 0xa4ba34f7u, 304},
    {"D2", "table11_dcerpc_functions", 0xd6f3b44du, 366},
    {"D2", "table12_netfile_sizes", 0xcf5af4afu, 614},
    {"D2", "table13_nfs_requests", 0xb864a1feu, 316},
    {"D2", "table14_ncp_requests", 0xdc587158u, 360},
    {"D2", "figure7_requests_per_pair", 0xe260d907u, 352},
    {"D2", "figure8_netfile_message_sizes", 0xc21d357du, 684},
    {"D2", "table15_backup", 0x67fef0a3u, 795},
    {"D2", "figure9_utilization", 0x88ee657cu, 1878},
    {"D2", "figure10_retransmissions", 0x981a91ccu, 722},
    {"D2", "telemetry", 0x36097944u, 2490},
    {"D3", "table1_datasets", 0x246baab7u, 378},
    {"D3", "capture_quality", 0x991ad34cu, 345},
    {"D3", "table2_network_layer", 0xb6ce79bau, 261},
    {"D3", "table3_transport", 0x1c29c28cu, 610},
    {"D3", "figure1_app_breakdown", 0xf8ab088cu, 1417},
    {"D3", "origins_summary", 0x8b84e6d6u, 274},
    {"D3", "figure2_fan", 0x36073cf6u, 1521},
    {"D3", "table6_http_automation", 0x9a3b5bdcu, 468},
    {"D3", "http_findings", 0xb61c88c3u, 511},
    {"D3", "figure3_http_fanout", 0x1a0eaa6cu, 644},
    {"D3", "table7_http_content_types", 0x12f9c0deu, 401},
    {"D3", "figure4_http_reply_sizes", 0xa078c929u, 769},
    {"D3", "table8_email_sizes", 0x066b5ebfu, 220},
    {"D3", "figure5_email_durations", 0x9d9a8ba5u, 1479},
    {"D3", "figure6_email_sizes", 0x79b9ba00u, 1402},
    {"D3", "name_service_findings", 0x7703d28bu, 924},
    {"D3", "table9_windows_success", 0x476fb1d3u, 590},
    {"D3", "table10_cifs_commands", 0xd2f245a1u, 484},
    {"D3", "table11_dcerpc_functions", 0xb6959088u, 553},
    {"D3", "table12_netfile_sizes", 0x07bb5bf7u, 600},
    {"D3", "table13_nfs_requests", 0x3434840bu, 520},
    {"D3", "table14_ncp_requests", 0x086f291fu, 584},
    {"D3", "figure7_requests_per_pair", 0x704f45ccu, 1212},
    {"D3", "figure8_netfile_message_sizes", 0x09113df7u, 2399},
    {"D3", "table15_backup", 0x874d335fu, 795},
    {"D3", "figure9_utilization", 0x5b1a1b65u, 1878},
    {"D3", "figure10_retransmissions", 0x92ff035du, 722},
    {"D3", "telemetry", 0x59f362b2u, 2490},
    {"D4", "table1_datasets", 0xc2e12f7fu, 378},
    {"D4", "capture_quality", 0xce3dbd2cu, 345},
    {"D4", "table2_network_layer", 0xa6b19747u, 261},
    {"D4", "table3_transport", 0x0fc43481u, 610},
    {"D4", "figure1_app_breakdown", 0x11505e69u, 1417},
    {"D4", "origins_summary", 0x9c47dd19u, 274},
    {"D4", "figure2_fan", 0xf8bb73a4u, 1521},
    {"D4", "table6_http_automation", 0xa729500fu, 468},
    {"D4", "http_findings", 0xad22f6e3u, 511},
    {"D4", "figure3_http_fanout", 0x60aef215u, 644},
    {"D4", "table7_http_content_types", 0xb1380d4fu, 401},
    {"D4", "figure4_http_reply_sizes", 0xd5e5498cu, 733},
    {"D4", "table8_email_sizes", 0x3b055874u, 220},
    {"D4", "figure5_email_durations", 0xdc035b84u, 1479},
    {"D4", "figure6_email_sizes", 0x692a258du, 1444},
    {"D4", "name_service_findings", 0x895431dcu, 924},
    {"D4", "table9_windows_success", 0x2e1c52b9u, 582},
    {"D4", "table10_cifs_commands", 0x8d793e63u, 484},
    {"D4", "table11_dcerpc_functions", 0x406e8dd8u, 564},
    {"D4", "table12_netfile_sizes", 0xb983b3bbu, 600},
    {"D4", "table13_nfs_requests", 0x0352fe66u, 520},
    {"D4", "table14_ncp_requests", 0xffc68663u, 598},
    {"D4", "figure7_requests_per_pair", 0x6a83bcc4u, 1202},
    {"D4", "figure8_netfile_message_sizes", 0xc2e9537bu, 2409},
    {"D4", "table15_backup", 0x6377c8c1u, 803},
    {"D4", "figure9_utilization", 0x7fae12f9u, 1878},
    {"D4", "figure10_retransmissions", 0x8d284e2eu, 722},
    {"D4", "telemetry", 0x6e1dfdedu, 2490},
    {"D3/pcap", "table1_datasets", 0x246baab7u, 378},
    {"D3/pcap", "capture_quality", 0x991ad34cu, 345},
    {"D3/pcap", "table2_network_layer", 0xb6ce79bau, 261},
    {"D3/pcap", "table3_transport", 0x1c29c28cu, 610},
    {"D3/pcap", "figure1_app_breakdown", 0xf8ab088cu, 1417},
    {"D3/pcap", "origins_summary", 0x8b84e6d6u, 274},
    {"D3/pcap", "figure2_fan", 0x36073cf6u, 1521},
    {"D3/pcap", "table6_http_automation", 0x9a3b5bdcu, 468},
    {"D3/pcap", "http_findings", 0xb61c88c3u, 511},
    {"D3/pcap", "figure3_http_fanout", 0x1a0eaa6cu, 644},
    {"D3/pcap", "table7_http_content_types", 0x12f9c0deu, 401},
    {"D3/pcap", "figure4_http_reply_sizes", 0xa078c929u, 769},
    {"D3/pcap", "table8_email_sizes", 0x066b5ebfu, 220},
    {"D3/pcap", "figure5_email_durations", 0x6763bf48u, 1479},
    {"D3/pcap", "figure6_email_sizes", 0x79b9ba00u, 1402},
    {"D3/pcap", "name_service_findings", 0x7703d28bu, 924},
    {"D3/pcap", "table9_windows_success", 0x476fb1d3u, 590},
    {"D3/pcap", "table10_cifs_commands", 0xd2f245a1u, 484},
    {"D3/pcap", "table11_dcerpc_functions", 0xb6959088u, 553},
    {"D3/pcap", "table12_netfile_sizes", 0x07bb5bf7u, 600},
    {"D3/pcap", "table13_nfs_requests", 0x3434840bu, 520},
    {"D3/pcap", "table14_ncp_requests", 0x086f291fu, 584},
    {"D3/pcap", "figure7_requests_per_pair", 0x704f45ccu, 1212},
    {"D3/pcap", "figure8_netfile_message_sizes", 0x09113df7u, 2399},
    {"D3/pcap", "table15_backup", 0x874d335fu, 795},
    {"D3/pcap", "figure9_utilization", 0x5b1a1b65u, 1878},
    {"D3/pcap", "figure10_retransmissions", 0x92ff035du, 722},
    {"D3/pcap", "telemetry", 0x59f362b2u, 2490},
};
// clang-format on

std::uint32_t crc_of(const std::string& text) {
  return snapshot::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

std::string row(const std::string& route, const std::string& section, std::uint32_t crc,
                std::size_t bytes) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "    {\"%s\", \"%s\", 0x%08xu, %zu},", route.c_str(),
                section.c_str(), crc, bytes);
  return buf;
}

}  // namespace

std::vector<Section> report_sections(const DatasetSpec& spec, const DatasetAnalysis& analysis) {
  const report::ReportInput in{&spec, &analysis};
  const report::Inputs all(&in, 1);
  const std::vector<report::ReportInput> payload = report::payload_inputs(all);
  std::vector<Section> out;
  for (const report::SectionEntry& s : report::sections()) {
    s.for_each_rendering(all, payload, [&](std::string text) {
      if (!text.empty()) out.push_back({std::string(s.name), std::move(text)});
    });
  }
  return out;
}

::testing::AssertionResult sections_match(const std::string& route,
                                          const std::vector<Section>& sections) {
  std::vector<const Digest*> pinned;
  for (const Digest& d : kPinned) {
    if (route == d.route) pinned.push_back(&d);
  }
  std::string problems, rows;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const Section& s = sections[i];
    const std::uint32_t crc = crc_of(s.text);
    const Digest* want = i < pinned.size() ? pinned[i] : nullptr;
    if (want != nullptr && s.name == want->section && crc == want->crc &&
        s.text.size() == want->bytes) {
      continue;
    }
    problems += "  section " + s.name + " of " + route +
                (want == nullptr || s.name != want->section ? " is not pinned at this position\n"
                                                            : " drifted\n");
    rows += row(route, s.name, crc, s.text.size()) + "\n";
  }
  for (std::size_t i = sections.size(); i < pinned.size(); ++i) {
    problems += "  pinned section " + std::string(pinned[i]->section) + " of " + route +
                " is missing from the report\n";
  }
  if (problems.empty()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "report digests differ from the pinned rows:\n"
         << problems << "replacement rows for tests/golden.cc (log the reason in CHANGES.md):\n"
         << rows;
}

::testing::AssertionResult report_matches(const std::string& route, const DatasetSpec& spec,
                                          const DatasetAnalysis& analysis) {
  const std::vector<Section> sections = report_sections(spec, analysis);
  std::string joined;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    if (i != 0) joined += "\n";
    joined += sections[i].text;
  }
  const report::ReportInput in{&spec, &analysis};
  const std::vector<report::ReportInput> all{in};
  if (joined != report::full_report(all)) {
    return ::testing::AssertionFailure()
           << "report_sections no longer joins to report::full_report; update "
              "tests/golden.cc to full_report's section order";
  }
  return sections_match(route, sections);
}

}  // namespace entrace::golden
