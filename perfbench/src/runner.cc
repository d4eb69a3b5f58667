#include <algorithm>
#include <atomic>
#include <iostream>
#include <map>
#include <thread>
#include <vector>

#include "frapp/common/clock.h"
#include "stats.h"
#include "workloads_common.h"

namespace perfbench {

namespace {

using frapp::common::NowNanos;

constexpr size_t kSlices = 8;
constexpr size_t kMinOps = 1000;  // ten samples beyond p99
constexpr double kWarmupSeconds = 0.5;
constexpr double kOverrunSeconds = 90.0;  // cap on the wait for kMinOps
/// Window length; a slice shorter than this is one window.
constexpr double kWindowSeconds = 1.0;
/// A window whose operations span less than this share of its length (a
/// slice's last) is left out of the windowed estimators.
constexpr double kMinWindowShare = 0.5;

/// One window of one client's closed loop.
struct ClientWindow {
  std::vector<double> latency_ms;
  /// Closed-loop clock at the first operation's start and the last one's
  /// end.
  uint64_t first_ns = 0;
  uint64_t last_ns = 0;
};

/// One window of the merged clients' closed loops.
struct Window {
  std::vector<double> latency_ms;
  double ops_per_s = 0.0;
};

/// What the clients of one run recorded.
struct Recorded {
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<LayerSample> samples;
  /// Untraced operations by the window of closed-loop time they started
  /// in, slice after slice.
  std::vector<Window> windows;
  /// Closed-loop seconds, summed over slices (the longest client's).
  double seconds = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Runs every client closed-loop until `seconds` have passed and, when
/// `min_untraced` > 0, until that many untraced operations are done (or the
/// overrun cap is hit). A client's closed-loop clock leaves out the time it
/// spends in Workload::BeforeOp.
void RunClients(Workload& workload, double seconds, bool trace,
                size_t min_untraced, Recorded* out) {
  const size_t clients = workload.clients();
  std::vector<Recorded> per_client(clients);
  std::vector<std::vector<ClientWindow>> client_windows(clients);
  std::vector<double> loop_seconds(clients, 0.0);
  std::atomic<size_t> untraced_total{out->untraced_ms.size()};
  const double window_seconds = std::min(kWindowSeconds, seconds);
  const uint64_t start = NowNanos();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  const uint64_t cap = deadline + static_cast<uint64_t>(kOverrunSeconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Recorded& mine = per_client[c];
      std::vector<ClientWindow>& windows = client_windows[c];
      uint64_t excluded = 0;
      for (uint64_t k = 0;; ++k) {
        const uint64_t before = NowNanos();
        if (before >= cap) break;
        if (before >= deadline && untraced_total.load() >= min_untraced) break;
        const bool ready = workload.BeforeOp(c).ok();
        const uint64_t now = NowNanos();
        excluded += now - before;
        ++mine.attempted;
        if (!ready) {  // the operation never ran: no latency sample
          ++mine.failed;
          continue;
        }
        const bool traced = trace && (k % 2 == 1);
        LayerSample sample;
        const OpResult op = workload.RunOp(c, traced ? &sample : nullptr);
        const uint64_t loop_now = now - start - excluded;
        const uint64_t loop_end = NowNanos() - start - excluded;
        if (!op.ok) ++mine.failed;
        if (traced) {
          mine.traced_ms.push_back(op.latency_ms);
          mine.samples.push_back(std::move(sample));
        } else {
          mine.untraced_ms.push_back(op.latency_ms);
          const size_t w = static_cast<size_t>(static_cast<double>(loop_now) /
                                               (window_seconds * 1e9));
          if (windows.size() <= w) windows.resize(w + 1);
          ClientWindow& window = windows[w];
          if (window.latency_ms.empty()) window.first_ns = loop_now;
          window.latency_ms.push_back(op.latency_ms);
          window.last_ns = loop_end;
          untraced_total.fetch_add(1);
        }
      }
      loop_seconds[c] = static_cast<double>(NowNanos() - start - excluded) / 1e9;
    });
  }
  for (std::thread& t : threads) t.join();

  // Window w of this slice: every client's latencies, and the sum of the
  // clients' rates, each its operations over the closed-loop time from the
  // first one's start to the last one's end. Kept only when every client's
  // operations spanned at least kMinWindowShare of it.
  const double longest = *std::max_element(loop_seconds.begin(), loop_seconds.end());
  const size_t num_windows = static_cast<size_t>(longest / window_seconds) + 1;
  for (size_t w = 0; w < num_windows; ++w) {
    Window merged;
    bool covered = true;
    for (size_t c = 0; c < clients; ++c) {
      const ClientWindow* window =
          w < client_windows[c].size() ? &client_windows[c][w] : nullptr;
      const double span =
          window == nullptr ? 0.0 : static_cast<double>(window->last_ns - window->first_ns) / 1e9;
      if (span < kMinWindowShare * window_seconds) {
        covered = false;
        break;
      }
      merged.latency_ms.insert(merged.latency_ms.end(), window->latency_ms.begin(),
                               window->latency_ms.end());
      merged.ops_per_s += static_cast<double>(window->latency_ms.size()) / span;
    }
    if (covered) out->windows.push_back(std::move(merged));
  }
  for (Recorded& r : per_client) {
    out->untraced_ms.insert(out->untraced_ms.end(), r.untraced_ms.begin(),
                            r.untraced_ms.end());
    out->traced_ms.insert(out->traced_ms.end(), r.traced_ms.begin(),
                          r.traced_ms.end());
    for (LayerSample& s : r.samples) out->samples.push_back(std::move(s));
    out->attempted += r.attempted;
    out->failed += r.failed;
  }
  out->seconds += longest;
}

/// The host only ever adds time to an operation: a stalled or contended
/// window runs slower, never faster. So the windowed metrics read the
/// faster quarter of the run's windows, the closest reading of the
/// program's own cost that still rests on a quarter of the run, where the
/// minimum would rest on one window.
constexpr double kFastQuartile = 25.0;

/// op_p50_ms: the first quartile over windows of each window's median
/// latency; within a window, the median ignores the tail. Without a whole
/// window (operations slower than half a window), the run's median.
double WindowedLatency(const Recorded& recorded) {
  if (recorded.windows.empty()) return Median(recorded.untraced_ms);
  std::vector<double> medians;
  for (const Window& window : recorded.windows) {
    medians.push_back(Median(window.latency_ms));
  }
  return Percentile(std::move(medians), kFastQuartile);
}

/// throughput_ops_s: the third quartile over windows of the clients' summed
/// rates; without a whole window, untraced operations per closed-loop
/// second.
double WindowedThroughput(const Recorded& recorded) {
  if (recorded.windows.empty()) {
    return static_cast<double>(recorded.untraced_ms.size()) / recorded.seconds;
  }
  std::vector<double> rates;
  for (const Window& window : recorded.windows) rates.push_back(window.ops_per_s);
  return Percentile(std::move(rates), 100.0 - kFastQuartile);
}

double MedianOf(const std::vector<LayerSample>& samples, const std::string& name) {
  std::vector<double> values;
  values.reserve(samples.size());
  for (const LayerSample& s : samples) {
    const auto it = s.find(name);
    values.push_back(it == s.end() ? 0.0 : it->second);
  }
  return Median(std::move(values));
}

std::unique_ptr<Workload> MakeWorkload(const RunOptions& options) {
  if (options.workload == "mine_census") return MakeMineCensus(options);
  if (options.workload == "append_window") return MakeAppendWindow(options);
  if (options.workload == "serve_zipf") return MakeServeZipf(options);
  if (options.workload == "dist_warm") return MakeDistWarm(options);
  return nullptr;
}

}  // namespace

int RunBenchmark(const RunOptions& options) {
  std::unique_ptr<Workload> workload = MakeWorkload(options);
  if (workload == nullptr) {
    std::cerr << "unknown workload '" << options.workload << "'\n";
    return 2;
  }
  std::vector<double> probes = {ProbeHostMicros()};

  std::vector<double> setup_s;
  const auto setup = [&]() -> bool {
    const uint64_t start = NowNanos();
    const frapp::Status status = workload->Setup();
    setup_s.push_back(static_cast<double>(NowNanos() - start) / 1e9);
    if (!status.ok()) std::cerr << "setup failed: " << status.ToString() << "\n";
    return status.ok();
  };
  if (!setup()) return 1;
  frapp::StatusOr<Accuracy> accuracy = workload->Prepare();
  if (!accuracy.ok()) {
    std::cerr << "reference computation failed: " << accuracy.status().ToString() << "\n";
    return 1;
  }

  Recorded warmup;
  RunClients(*workload, kWarmupSeconds, false, 0, &warmup);
  Recorded recorded;
  recorded.attempted = warmup.attempted;
  recorded.failed = warmup.failed;
  for (size_t slice = 0; slice < kSlices; ++slice) {
    if (slice > 0) {
      workload->Teardown();
      if (!setup()) return 1;
    }
    const bool last = slice + 1 == kSlices;
    RunClients(*workload, options.seconds / kSlices, options.trace,
               last ? kMinOps : 0, &recorded);
  }
  workload->Teardown();
  probes.push_back(ProbeHostMicros());

  const double untraced_p50 = Median(recorded.untraced_ms);
  const size_t n = recorded.untraced_ms.size();
  std::cerr << options.workload << ": " << n << " untraced ops, "
            << recorded.traced_ms.size() << " traced, " << recorded.failed
            << " failed, p" << HighestResolvablePercentile(n)
            << " resolvable; host probe " << probes.front() << " -> "
            << probes.back() << " us; " << n / recorded.seconds
            << " untraced ops per closed-loop second\n  window p50s (ms):";
  for (const Window& window : recorded.windows) {
    std::cerr << ' ' << Median(window.latency_ms);
  }
  std::cerr << "\n  window rates (1/s):";
  for (const Window& window : recorded.windows) std::cerr << ' ' << window.ops_per_s;
  std::cerr << "\n";

  std::vector<Metric> metrics;
  if (!options.trace) {
    const double ok_pct =
        100.0 * static_cast<double>(recorded.attempted - recorded.failed) /
        static_cast<double>(std::max<uint64_t>(recorded.attempted, 1));
    std::map<std::string, double> values = {
        {"op_p50_ms", WindowedLatency(recorded)},
        {"throughput_ops_s", WindowedThroughput(recorded)},
        {"ok_ops_pct", ok_pct},
        {"peak_rss_mib", PeakRssMib()},
        {"setup_s", Median(setup_s)},
        {"support_error_pct", accuracy->support_error_pct},
        {"identity_error_pct", accuracy->identity_error_pct},
    };
    for (const MetricSpec& spec : EndToEndMetricSpecs()) {
      metrics.push_back({spec.name, values.at(spec.name), spec.unit});
    }
  } else {
    LayerSample layers;
    workload->AddRunLayers(&layers);
    for (const MetricSpec& spec : LayerMetricSpecs()) {
      if (layers.count(spec.name) == 0) {
        layers[spec.name] = MedianOf(recorded.samples, spec.name);
      }
    }
    double layer_sum = 0.0;
    for (const std::string& name : workload->AdditiveLayers()) {
      layer_sum += layers[name];
      std::vector<double> values;
      for (const LayerSample& s : recorded.samples) {
        const auto it = s.find(name);
        values.push_back(it == s.end() ? 0.0 : it->second);
      }
      std::cerr << "  " << name << ": p50 " << Median(values) << " p99 "
                << Percentile(values, 99.0) << "\n";
    }
    layers["pipeline.other_ms"] = untraced_p50 - layer_sum;
    layers["op_p99_ms"] = Percentile(recorded.untraced_ms, 99.0);
    layers["trace.overhead_pct"] =
        100.0 * (Median(recorded.traced_ms) - untraced_p50) / untraced_p50;
    layers["host.probe_us"] = Median(probes);
    layers["host.probe_swing_pct"] =
        100.0 * (probes.back() - probes.front()) / probes.front();
    for (const MetricSpec& spec : LayerMetricSpecs()) {
      metrics.push_back({spec.name, layers[spec.name], spec.unit});
    }
  }
  const bool correct = recorded.failed == 0;
  std::cout << RenderResult(correct, recorded.attempted, recorded.failed,
                            metrics)
            << std::endl;
  return 0;
}

}  // namespace perfbench
