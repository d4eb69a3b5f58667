#include "frapp/random/alias_sampler.h"

#include <cmath>

namespace frapp {
namespace random {

StatusOr<AliasSampler> AliasSampler::Create(const std::vector<double>& weights) {
  const size_t n = weights.size();
  if (n == 0) return Status::InvalidArgument("alias sampler needs >= 1 outcome");
  double total = 0.0;
  for (double w : weights) {
    if (!(w >= 0.0) || !std::isfinite(w)) {
      return Status::InvalidArgument("alias sampler weights must be finite and >= 0");
    }
    total += w;
  }
  if (total <= 0.0) {
    return Status::InvalidArgument("alias sampler weights must have positive sum");
  }

  std::vector<double> normalized(n);
  for (size_t i = 0; i < n; ++i) normalized[i] = weights[i] / total;

  // Vose's stable construction: split outcomes into under- and over-full
  // buckets of average height 1/n and pair them.
  std::vector<double> scaled(n);
  for (size_t i = 0; i < n; ++i) scaled[i] = normalized[i] * static_cast<double>(n);

  std::vector<size_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }

  std::vector<double> probability(n, 1.0);
  std::vector<size_t> alias(n, 0);
  for (size_t i = 0; i < n; ++i) alias[i] = i;

  while (!small.empty() && !large.empty()) {
    const size_t s = small.back();
    small.pop_back();
    const size_t l = large.back();
    large.pop_back();
    probability[s] = scaled[s];
    alias[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  // Leftovers are exactly full (modulo rounding): accept with probability 1.
  for (size_t s : small) probability[s] = 1.0;
  for (size_t l : large) probability[l] = 1.0;

  return AliasSampler(std::move(probability), std::move(alias), std::move(normalized));
}

}  // namespace random
}  // namespace frapp
