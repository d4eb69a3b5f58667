// Sample statistics and result rendering for the repo benchmark.
//
// Latencies are summarized by nearest-rank percentiles. A percentile is only
// reported when it is resolvable: at least ten samples must lie beyond it,
// so a run needs 1000 operations before its p99 means anything.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile `q` (in [0, 100]) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double q);

/// Median by nearest rank (the p50 every metric here reports).
double Median(std::vector<double> samples);

/// Highest percentile of {50, 90, 99, 99.9, 99.99} with at least
/// `min_beyond` of `n` samples strictly above its rank; 0 when even the
/// median is not resolvable.
double HighestResolvablePercentile(size_t n, size_t min_beyond = 10);

/// True for names of 1..64 characters from [A-Za-z0-9_.-] that start with a
/// letter or a digit: the names the benchmark's result format allows.
bool ValidMetricName(const std::string& name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A metric the benchmark reports: its name and unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every untraced run reports, in output order.
const std::vector<MetricSpec>& EndToEndMetricSpecs();

/// The benchmark's last output line: one JSON object with exactly the keys
/// correct, attempted, failed and metrics. Values carry every digit
/// (max_digits10); non-finite values render as 0.
std::string RenderResult(bool correct, uint64_t attempted, uint64_t failed,
                         const std::vector<Metric>& metrics);

/// Peak resident set of this process in MiB (VmHWM), 0 when unreadable.
double PeakRssMib();

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
