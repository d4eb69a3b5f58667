#include "zipf.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double ServeSupmin(size_t i) { return 0.02 + 0.001 * static_cast<double>(i); }

ServeQuery DecodeServeKey(size_t key) {
  ServeQuery query;
  query.kind = key % kServeKinds;
  query.supmin = (key / kServeKinds) % kServeSupmins;
  query.mechanism = key / (kServeKinds * kServeSupmins);
  return query;
}

ZipfGenerator::ZipfGenerator(size_t num_keys, double exponent,
                             uint64_t order_seed, uint64_t draw_seed)
    : cdf_(num_keys), key_of_rank_(num_keys) {
  double total = 0.0;
  for (size_t r = 0; r < num_keys; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
  std::iota(key_of_rank_.begin(), key_of_rank_.end(), size_t{0});
  uint64_t shuffle = order_seed;
  for (size_t i = num_keys; i > 1; --i) {
    std::swap(key_of_rank_[i - 1], key_of_rank_[SplitMix64(shuffle) % i]);
  }
  state_ = draw_seed;
}

size_t ZipfGenerator::Next() {
  const double u =
      static_cast<double>(SplitMix64(state_) >> 11) * 0x1.0p-53;
  const size_t rank = static_cast<size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return key_of_rank_[std::min(rank, key_of_rank_.size() - 1)];
}

}  // namespace perfbench
