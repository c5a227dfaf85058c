// The benchmark's workloads and the pass engine they share.
//
// A run is: set-up (inputs from the seed, the reference report, program
// set-up), an untimed warm-up at the timed thread count, then closed-loop
// timed passes until the requested seconds have elapsed.  Every pass, the
// warm-up included, ends by comparing its report byte for byte with the
// reference.  With tracing on, timed passes alternate untraced and traced:
// end-to-end numbers come from the untraced ones, per-layer numbers from
// the traced ones, and the two together give the tracing overhead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Tiny inputs, one warm-up pass, at least one timed pass of each kind:
  // the self-test's mode.  Numbers from it mean nothing.
  bool smoke = false;
  // Flip one byte of every report before it is compared with the
  // reference, so the self-test can show the check catches it.
  bool corrupt_report = false;
  std::string work_dir;  // inputs and checkpoints; removed at exit
  std::string out_dir;   // pass records and spans, kept
};

// A measured figure; its unit and kind come from the catalog (catalog.h).
struct Metric {
  std::string name;
  double value = 0.0;
  std::size_t samples = 0;  // how many values the figure summarizes
};

struct Result {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

// Runs opts.workload ("batch", "daemon" or "fleet").  Writes a per-pass
// record (and, when tracing, the span log) under opts.out_dir.  Throws
// std::invalid_argument for an unknown workload.
Result run_workload(const Options& opts);

}  // namespace perfbench
