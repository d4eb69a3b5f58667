#include "stats.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

namespace perfbench {

namespace {

/// 1-based nearest rank of percentile q among n samples. The epsilon keeps
/// q * n / 100 from rounding up past an exact integer (99.9% of 10000).
double NearestRank(double q, size_t n) {
  return std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9);
}

}  // namespace

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = NearestRank(q, samples.size());
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

double HighestResolvablePercentile(size_t n, size_t min_beyond) {
  double best = 0.0;
  for (const double q : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    const double rank = NearestRank(q, n);
    if (static_cast<double>(n) - rank >= static_cast<double>(min_beyond)) {
      best = q;
    }
  }
  return best;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

const std::vector<MetricSpec>& EndToEndMetricSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"op_p50_ms", "ms"},        {"throughput_ops_s", "1/s"},
      {"ok_ops_pct", "%"},        {"peak_rss_mib", "MiB"},
      {"setup_s", "s"},           {"support_error_pct", "%"},
      {"identity_error_pct", "%"},
  };
  return specs;
}

std::string RenderResult(bool correct, uint64_t attempted, uint64_t failed,
                         const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    out << (i == 0 ? "" : ", ") << '"' << metrics[i].name
        << "\": {\"value\": " << value << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
