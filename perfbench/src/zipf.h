// Seeded query mix of the serve_zipf workload.
//
// The key space is every (mechanism, supmin, query kind) triple: 5
// mechanisms x 24 supmin values x {mine, topk, rules} = 360 queries over 120
// distinct mined results, which is more than the server's 64-entry result
// cache, so the LRU has to evict. Popularity is Zipf over a fixed
// permutation of the keys, part of the workload's definition; each client
// draws from its own stream seeded by the run's seed, so the same (seed,
// client) always yields the same query sequence.

#ifndef PERFBENCH_ZIPF_H_
#define PERFBENCH_ZIPF_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// SplitMix64: the benchmark's only source of derived seeds and draws.
uint64_t SplitMix64(uint64_t& state);

inline constexpr size_t kServeMechanisms = 5;
inline constexpr size_t kServeSupmins = 24;
inline constexpr size_t kServeKinds = 3;  // mine, topk, rules
inline constexpr size_t kServeKeys = kServeMechanisms * kServeSupmins * kServeKinds;
inline constexpr size_t kServeResults = kServeMechanisms * kServeSupmins;
inline constexpr size_t kServeCacheEntries = 64;
/// Seeds the popularity order, which every run shares.
inline constexpr uint64_t kServeOrderSeed = 20050405;

struct ServeQuery {
  size_t mechanism = 0;  // dist::MechanismSpec::Kind value
  size_t supmin = 0;     // index into ServeSupmin
  size_t kind = 0;       // serve::QueryKind value (kMine, kTopK, kRules)

  /// Index of the mined result the query derives from (the cache key).
  size_t result() const { return mechanism * kServeSupmins + supmin; }
};

/// supmin of index i: 2.0%, 2.1%, ..., 4.3%.
double ServeSupmin(size_t i);

/// Inverse of the key numbering: key in [0, kServeKeys).
ServeQuery DecodeServeKey(size_t key);

/// Draws key indexes in [0, num_keys) with P(rank r) proportional to
/// 1 / (r + 1)^exponent. Ranks map to keys through a permutation seeded by
/// `order_seed`; the draws come from `draw_seed`.
class ZipfGenerator {
 public:
  ZipfGenerator(size_t num_keys, double exponent, uint64_t order_seed,
                uint64_t draw_seed);

  size_t Next();

 private:
  std::vector<double> cdf_;
  std::vector<size_t> key_of_rank_;
  uint64_t state_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ZIPF_H_
