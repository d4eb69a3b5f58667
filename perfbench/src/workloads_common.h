// The benchmark's run loop and the contract every workload implements.
//
// One run: set up, compute references, warm up, then measure closed-loop
// operations for the requested seconds in eight slices. Between slices the
// workload is torn down and set up again, so the setup_s median samples
// the same stretch of host time as the operations do. Every answer is
// checked against a reference computed outside the timed region.
//
// With tracing on, each client alternates untraced and traced operations;
// the traced ones fill a LayerSample through the decorators in layers.h,
// and the untraced ones give the baseline for pipeline.other_ms and
// trace.overhead_pct under the same host conditions.

#ifndef PERFBENCH_WORKLOADS_COMMON_H_
#define PERFBENCH_WORKLOADS_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "frapp/common/statusor.h"
#include "frapp/mining/apriori.h"
#include "layers.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for on-disk state (append_window's table and store).
  std::string work_dir = ".bench_work";
};

/// One closed-loop operation as its client saw it.
struct OpResult {
  /// The timed region only; the answer check runs after it.
  double latency_ms = 0.0;
  /// The operation returned OK and its answer matched the reference.
  bool ok = false;
};

/// The paper's accuracy metrics, as percentages.
struct Accuracy {
  double support_error_pct = 0.0;   ///< rho
  double identity_error_pct = 0.0;  ///< sigma+ + sigma-
};

/// Mean accuracy over several mines, each scored against its exact truth
/// with eval::CompareMiningResults and eval::OverallAccuracy.
class AccuracyMean {
 public:
  void Add(const frapp::mining::AprioriResult& truth,
           const frapp::mining::AprioriResult& estimated);
  Accuracy Mean() const;

 private:
  double support_sum_ = 0.0;
  size_t support_n_ = 0;
  double identity_sum_ = 0.0;
  size_t identity_n_ = 0;
};

/// Perturbation seeds a one-mechanism workload's accuracy metrics average
/// over (serve_zipf takes a quarter of them for each of its five): enough
/// that the mean repeats within about 2.5% from one --seed to the next.
inline constexpr size_t kAccuracySeeds = 256;

/// Stream `stream` of the workload seed: data, perturbation and accuracy
/// seeds all derive from --seed through here.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// Perturbation seeds a workload's operations cycle through. What one mine
/// costs follows the lattice its perturbed rows give: DET-GD on CENSUS 50k
/// at supmin 2% counts 477 candidates under one seed and 721 under another,
/// and a dist_warm operation takes 1.3 or 1.8 ms accordingly. Operations
/// that cycle through this many seeds make a run average over as many
/// lattices, so that runs of different --seeds do comparable work.
inline constexpr size_t kPerturbSeeds = 32;

/// The kPerturbSeeds perturbation seeds of --seed `seed`, from streams of
/// their own.
std::vector<uint64_t> PerturbSeeds(uint64_t seed);

/// True when both lists hold the same itemsets, in order, with
/// bit-identical supports.
bool SameItemsets(const std::vector<frapp::mining::FrequentItemset>& a,
                  const std::vector<frapp::mining::FrequentItemset>& b);

/// SameItemsets, level by level.
bool SameMined(const frapp::mining::AprioriResult& a,
               const frapp::mining::AprioriResult& b);

/// Pins the calling thread, and every thread it starts from then on, to
/// `count` of the CPUs it may run on: those at positions first, first + 1,
/// ... of the allowed set, wrapping around. Leaves the thread unpinned when
/// it may run on `count` CPUs or fewer.
void PinToCpus(size_t first, size_t count);

/// Median microseconds of a fixed throughput-bound integer loop with no
/// frapp code: the host-phase probe.
double ProbeHostMicros();

class Workload {
 public:
  virtual ~Workload() = default;

  /// Closed-loop clients, one thread each.
  virtual size_t clients() const { return 1; }

  /// Builds the inputs and warms the state the operations use. Every
  /// workload mines the CENSUS stand-in generated from its canonical seed
  /// (the paper evaluates one fixed dataset); --seed drives perturbation,
  /// query draws and accuracy seeds. Timed as setup_s; always follows construction or Teardown.
  virtual frapp::Status Setup() = 0;

  /// Releases what Setup built. Untimed.
  virtual void Teardown() {}

  /// Computes the references answers are checked against, and the accuracy
  /// metrics. Untimed; runs once, after the first Setup.
  virtual frapp::StatusOr<Accuracy> Prepare() = 0;

  /// Untimed work `client` does before its next operation, such as
  /// restarting an episode. The runner leaves it out of the operation's
  /// latency and out of the closed-loop time throughput divides by; when it
  /// fails, the operation counts as attempted and failed, with no latency.
  virtual frapp::Status BeforeOp(size_t client) {
    (void)client;
    return frapp::Status::OK();
  }

  /// One operation of `client`. A non-null `sample` traces it. Safe to call
  /// concurrently for distinct clients.
  virtual OpResult RunOp(size_t client, LayerSample* sample) = 0;

  /// Layer metrics whose per-op values add up to one operation.
  virtual std::vector<std::string> AdditiveLayers() const = 0;

  /// Run-level layer values (ratios, counters) after the loop.
  virtual void AddRunLayers(LayerSample* layers) const { (void)layers; }
};

std::unique_ptr<Workload> MakeMineCensus(const RunOptions& options);
std::unique_ptr<Workload> MakeAppendWindow(const RunOptions& options);
std::unique_ptr<Workload> MakeServeZipf(const RunOptions& options);
std::unique_ptr<Workload> MakeDistWarm(const RunOptions& options);

/// Runs one workload and prints the result line; returns the exit code.
int RunBenchmark(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_COMMON_H_
