#include "frapp/random/rng.h"

#include <cmath>

namespace frapp {
namespace random {

namespace {

// The affine map x -> mult * x + plus of `steps` LCG steps
// x -> multiplier * x + increment, by square-and-multiply (Brown, "Random
// number generation with arbitrary strides", 1994).
struct Jump {
  unsigned __int128 mult = 1;
  unsigned __int128 plus = 0;
};

Jump JumpOf(uint64_t steps, unsigned __int128 multiplier,
            unsigned __int128 increment) {
  Jump jump;
  while (steps > 0) {
    if ((steps & 1u) != 0) {
      jump.mult *= multiplier;
      jump.plus = jump.plus * multiplier + increment;
    }
    increment *= multiplier + 1;
    multiplier *= multiplier;
    steps >>= 1;
  }
  return jump;
}

}  // namespace

Pcg64::Pcg64(uint64_t seed, uint64_t stream) {
  increment_ = ((static_cast<unsigned __int128>(stream) << 1) | 1u);
  state_ = 0;
  Next();
  state_ += (static_cast<unsigned __int128>(seed) << 64) | (seed * 0x9e3779b97f4a7c15ULL);
  Next();
}

double Pcg64::NextDouble(double lo, double hi) {
  FRAPP_CHECK_LE(lo, hi);
  return lo + (hi - lo) * NextDouble();
}

uint64_t Pcg64::BernoulliThreshold(double p) {
  if (!(p > 0.0)) return 0;
  if (p >= 1.0) return uint64_t{1} << 53;
  // Exact: scaling by 2^53 only moves the exponent, and the result is
  // below 2^53.
  return static_cast<uint64_t>(std::ceil(p * 0x1.0p53));
}

StridedPcg64 Pcg64::Strided(uint64_t offset, uint64_t stride) const {
  FRAPP_CHECK_GT(stride, 0u);
  // Next() advances and then outputs, so draw `offset` is the output of the
  // state offset + 1 steps on; the view outputs and then advances.
  const Jump start = JumpOf(offset + 1, kMultiplier, increment_);
  const Jump step = JumpOf(stride, kMultiplier, increment_);
  return StridedPcg64(start.mult * state_ + start.plus, step.mult, step.plus);
}

Pcg64 Pcg64::Split() {
  // A fresh generator seeded from two outputs of this one; distinct stream
  // constants guarantee different sequences even under seed collision.
  const uint64_t seed = Next();
  const uint64_t stream = Next() | 1u;
  return Pcg64(seed, stream);
}

}  // namespace random
}  // namespace frapp
