// Rendering of every table and figure of the paper from DatasetAnalysis
// results.  Each function returns printable text; sections() lists them in
// report order, and bench/entrace_paper pairs them with the paper's
// published values (see EXPERIMENTS.md).
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/analyzer.h"
#include "synth/dataset_spec.h"

namespace entrace::report {

struct ReportInput {
  const DatasetSpec* spec = nullptr;  // may be null for external traces
  const DatasetAnalysis* analysis = nullptr;
};

using Inputs = std::span<const ReportInput>;

std::string table1_datasets(Inputs in);
// Measurement-artifact accounting per dataset: packets seen / decoded /
// dropped, plus the non-zero anomaly kinds (truncation, checksum failures,
// parse errors).  Not a paper table — real captures need it (§2 discusses
// the LBNL traces' own artifacts) and the fault-injection tests assert it.
std::string capture_quality(Inputs in);
std::string table2_network_layer(Inputs in);
std::string table3_transport(Inputs in);        // includes scanner-removal row
std::string figure1_app_breakdown(Inputs in);   // bytes + connections, ent/wan
std::string origins_summary(Inputs in);         // §4 flow origin classes
std::string figure2_fan(const ReportInput& in);
std::string table6_http_automation(Inputs in);
std::string http_findings(Inputs in);           // success rates, conditional GETs
std::string figure3_http_fanout(Inputs in);
std::string table7_http_content_types(Inputs in);
std::string figure4_http_reply_sizes(Inputs in);
std::string table8_email_sizes(Inputs in);
std::string figure5_email_durations(Inputs in);
std::string figure6_email_sizes(Inputs in);
std::string name_service_findings(Inputs in);   // §5.1.3
std::string table9_windows_success(Inputs in);
std::string table10_cifs_commands(Inputs in);
std::string table11_dcerpc_functions(Inputs in);
std::string table12_netfile_sizes(Inputs in);
std::string table13_nfs_requests(Inputs in);
std::string table14_ncp_requests(Inputs in);
std::string figure7_requests_per_pair(Inputs in);
std::string figure8_netfile_message_sizes(Inputs in);
std::string table15_backup(Inputs in);
std::string figure9_utilization(const ReportInput& in);
std::string figure10_retransmissions(Inputs in);
// Runtime telemetry: the pipeline's own semantic metrics per dataset
// (source/decode/flow/app/scanner counters).  Semantic-class only, so the
// table — like every other report section — is byte-identical across
// thread counts and shard partitions; timing metrics are exposed solely
// via --metrics-out (obs::render_json / render_prometheus).
std::string telemetry(Inputs in);

// Which of a report's inputs a section renders.
enum class Scope {
  kAll,      // every input at once
  kPayload,  // the payload inputs (payload_inputs) at once
  kEach,     // one input at a time, once per input
};

struct SectionEntry {
  std::string_view name;  // stable key: golden digests, entrace_paper items
  Scope scope;
  std::string (*render)(Inputs in);  // kEach: called with one input

  // Calls emit(text) for each rendering over `in` (`payload` is
  // payload_inputs(in)): once per input for kEach, else once.
  template <typename Emit>
  void for_each_rendering(Inputs in, Inputs payload, Emit&& emit) const {
    if (scope == Scope::kEach) {
      for (const ReportInput& i : in) emit(render(Inputs(&i, 1)));
    } else {
      emit(render(scope == Scope::kPayload ? payload : in));
    }
  }
};

// Every section above, in paper order: the one section list behind
// full_report, the golden digests and entrace_paper.
std::span<const SectionEntry> sections();

// The inputs whose dataset carries payload (a null spec counts as payload).
std::vector<ReportInput> payload_inputs(Inputs in);

// Every section's renderings in order, joined by "\n" (a kEach section
// renders once per input); an empty rendering (telemetry without metrics)
// is left out.
std::string full_report(Inputs in);

}  // namespace entrace::report
