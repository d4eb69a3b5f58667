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

class StridedPcg64;

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
    return Output(state_);
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

  /// Integer form of NextBernoulli: for p in (0, 1), NextBernoulli(p) is
  /// exactly `(Next() >> 11) < BernoulliThreshold(p)` on the same draw,
  /// since NextDouble() < p  <=>  (Next() >> 11) < p * 2^53 and the left
  /// side is an integer. (Outside (0, 1) NextBernoulli draws nothing.)
  static uint64_t BernoulliThreshold(double p);

  /// Every `stride`-th draw of this generator from draw `offset` on: the
  /// view's Next() returns what this generator's Next() would return as its
  /// draws offset, offset + stride, offset + 2 * stride, ... (counting from
  /// 0), without drawing those in between. This generator is not advanced.
  /// PCG's state update is an LCG, so stepping `stride` draws at once is
  /// itself an LCG; both it and the start state come from O(log) jumps.
  StridedPcg64 Strided(uint64_t offset, uint64_t stride) const;

  /// Derives an independent child generator (for per-worker streams).
  Pcg64 Split();

 private:
  friend class StridedPcg64;

  // PCG-XSL-RR output function of one state.
  static uint64_t Output(unsigned __int128 state) {
    const uint64_t xored =
        static_cast<uint64_t>(state >> 64) ^ static_cast<uint64_t>(state);
    const unsigned rot = static_cast<unsigned>(state >> 122);
    return (xored >> rot) | (xored << ((-rot) & 63));
  }

  // The bulk perturbers draw several values per row, so the generator is
  // header-inline: an out-of-line call per draw costs more than the draw.
  static constexpr unsigned __int128 kMultiplier =
      (static_cast<unsigned __int128>(2549297995355413924ULL) << 64) |
      4865540595714422341ULL;

  unsigned __int128 state_;
  unsigned __int128 increment_;
};

/// A strided view of a Pcg64 (see Pcg64::Strided). A view owns its state,
/// so several views stepped side by side run independent multiply chains
/// that the CPU overlaps.
class StridedPcg64 {
 public:
  uint64_t Next() {
    const uint64_t out = Pcg64::Output(state_);
    state_ = state_ * multiplier_ + increment_;
    return out;
  }

 private:
  friend class Pcg64;
  StridedPcg64(unsigned __int128 state, unsigned __int128 multiplier,
               unsigned __int128 increment)
      : state_(state), multiplier_(multiplier), increment_(increment) {}

  unsigned __int128 state_;
  unsigned __int128 multiplier_;
  unsigned __int128 increment_;
};

}  // namespace random
}  // namespace frapp

#endif  // FRAPP_RANDOM_RNG_H_
