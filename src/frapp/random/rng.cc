#include "frapp/random/rng.h"

namespace frapp {
namespace random {

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

Pcg64 Pcg64::Split() {
  // A fresh generator seeded from two outputs of this one; distinct stream
  // constants guarantee different sequences even under seed collision.
  const uint64_t seed = Next();
  const uint64_t stream = Next() | 1u;
  return Pcg64(seed, stream);
}

}  // namespace random
}  // namespace frapp
