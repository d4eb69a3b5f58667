#include "workloads_common.h"

#include <sched.h>

#include <cmath>
#include <cstring>

#include "frapp/common/clock.h"
#include "frapp/eval/metrics.h"
#include "stats.h"
#include "zipf.h"

namespace perfbench {

void AccuracyMean::Add(const frapp::mining::AprioriResult& truth,
                       const frapp::mining::AprioriResult& estimated) {
  const frapp::eval::LengthAccuracy overall = frapp::eval::OverallAccuracy(
      frapp::eval::CompareMiningResults(truth, estimated));
  // rho is undefined when nothing was correctly found, sigma when nothing
  // is truly frequent; such mines do not enter that mean.
  if (std::isfinite(overall.support_error)) {
    support_sum_ += overall.support_error;
    ++support_n_;
  }
  const double identity = overall.sigma_plus + overall.sigma_minus;
  if (std::isfinite(identity)) {
    identity_sum_ += identity;
    ++identity_n_;
  }
}

Accuracy AccuracyMean::Mean() const {
  Accuracy mean;
  if (support_n_ > 0) mean.support_error_pct = support_sum_ / support_n_;
  if (identity_n_ > 0) mean.identity_error_pct = identity_sum_ / identity_n_;
  return mean;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t state = seed * 0x9e3779b97f4a7c15ull + stream;
  SplitMix64(state);
  return SplitMix64(state);
}

std::vector<uint64_t> PerturbSeeds(uint64_t seed) {
  std::vector<uint64_t> seeds;
  for (size_t i = 0; i < kPerturbSeeds; ++i) {
    seeds.push_back(DeriveSeed(seed, 1000 + i));
  }
  return seeds;
}

bool SameItemsets(const std::vector<frapp::mining::FrequentItemset>& a,
                  const std::vector<frapp::mining::FrequentItemset>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].itemset == b[i].itemset) ||
        std::memcmp(&a[i].support, &b[i].support, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

bool SameMined(const frapp::mining::AprioriResult& a,
               const frapp::mining::AprioriResult& b) {
  if (a.by_length.size() != b.by_length.size()) return false;
  for (size_t k = 0; k < a.by_length.size(); ++k) {
    if (!SameItemsets(a.by_length[k], b.by_length[k])) return false;
  }
  return true;
}

void PinToCpus(size_t first, size_t count) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.size() <= count) return;
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  for (size_t i = 0; i < count; ++i) {
    CPU_SET(cpus[(first + i) % cpus.size()], &chosen);
  }
  (void)sched_setaffinity(0, sizeof chosen, &chosen);
}

double ProbeHostMicros() {
  // Independent multiply-add lanes over an L1-resident array: bound by
  // execution throughput, the kind of loop that shows the host's phases.
  std::vector<uint32_t> data(4096);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint32_t>(i * 2654435761u);
  }
  std::vector<double> micros;
  for (int rep = -10; rep < 31; ++rep) {  // ten untimed reps ramp the core up
    const uint64_t start = frapp::common::NowNanos();
    uint32_t acc[8] = {};
    for (int pass = 0; pass < 256; ++pass) {
      for (size_t i = 0; i < data.size(); ++i) {
        acc[i & 7] += data[i] * (static_cast<uint32_t>(pass) | 1u);
      }
      asm volatile("" : : "r"(acc[pass & 7]) : "memory");
    }
    if (rep >= 0) {
      micros.push_back(
          static_cast<double>(frapp::common::NowNanos() - start) / 1e3);
    }
  }
  return Median(micros);
}

}  // namespace perfbench
