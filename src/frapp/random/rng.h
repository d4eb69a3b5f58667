// Deterministic pseudo-random substrate.
//
// Every randomized component in the library (perturbers, synthetic data
// generators, randomized matrices) takes an explicit Rng so that experiments
// are reproducible from a single seed. The generator is PCG64 (PCG-XSL-RR
// 128/64), which is fast, statistically strong and tiny.

#ifndef FRAPP_RANDOM_RNG_H_
#define FRAPP_RANDOM_RNG_H_

#include <cstdint>

#include "frapp/common/check.h"

namespace frapp {
namespace random {

/// PCG-XSL-RR 128/64 generator. Satisfies the C++ UniformRandomBitGenerator
/// requirements so it also composes with <random> if ever needed.
class Pcg64 {
 public:
  using result_type = uint64_t;

  /// Seeds the generator; distinct (seed, stream) pairs give independent
  /// sequences.
  explicit Pcg64(uint64_t seed = 0x853c49e6748fea9bULL, uint64_t stream = 1);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~static_cast<result_type>(0); }

  /// Next 64 random bits.
  uint64_t Next() {
    state_ = state_ * kMultiplier + increment_;
    // PCG-XSL-RR output function.
    const uint64_t xored = static_cast<uint64_t>(state_ >> 64) ^
                           static_cast<uint64_t>(state_);
    const unsigned rot = static_cast<unsigned>(state_ >> 122);
    return (xored >> rot) | (xored << ((-rot) & 63));
  }
  result_type operator()() { return Next(); }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble() {
    // 53 high bits -> [0, 1).
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  /// Uniform integer in [0, bound), bias-free (Lemire rejection).
  uint64_t NextBounded(uint64_t bound) {
    FRAPP_CHECK_GT(bound, 0u);
    // Lemire's multiply-shift with rejection for exact uniformity.
    unsigned __int128 product = static_cast<unsigned __int128>(Next()) * bound;
    uint64_t low = static_cast<uint64_t>(product);
    if (low < bound) {
      const uint64_t threshold = (-bound) % bound;
      while (low < threshold) {
        product = static_cast<unsigned __int128>(Next()) * bound;
        low = static_cast<uint64_t>(product);
      }
    }
    return static_cast<uint64_t>(product >> 64);
  }

  /// Bernoulli trial with success probability p.
  bool NextBernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return NextDouble() < p;
  }

  /// Derives an independent child generator (for per-worker streams).
  Pcg64 Split();

 private:
  // The bulk perturbers draw several values per row, so the generator is
  // header-inline: an out-of-line call per draw costs more than the draw.
  static constexpr unsigned __int128 kMultiplier =
      (static_cast<unsigned __int128>(2549297995355413924ULL) << 64) |
      4865540595714422341ULL;

  unsigned __int128 state_;
  unsigned __int128 increment_;
};

}  // namespace random
}  // namespace frapp

#endif  // FRAPP_RANDOM_RNG_H_
