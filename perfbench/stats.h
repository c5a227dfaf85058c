// Small statistics and process probes for the benchmark binary.
#pragma once

#include <vector>

namespace perfbench {

// Median of the values (mean of the middle two for an even count); 0 when
// empty.
double median(std::vector<double> v);

// Nearest-rank percentile, p in (0, 100]; 0 when empty.
double percentile(std::vector<double> v, double p);

// CPU seconds (user + system) consumed by every thread of this process.
double process_cpu_s();

// Returns memory the allocator holds but no longer uses to the system, then
// restarts the peak-resident-set count from the current resident set, so
// the peak that follows belongs to what runs next, not to set-up.  False
// when the kernel refuses the reset (the peak then counts from process start).
bool reset_peak_rss();

// Peak resident set of this process since start or the last reset, in MiB.
double peak_rss_mib();

}  // namespace perfbench
