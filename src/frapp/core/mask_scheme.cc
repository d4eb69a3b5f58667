#include "frapp/core/mask_scheme.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "frapp/core/seeded_chunking.h"

namespace frapp {
namespace core {

namespace {

// Lanes stepped side by side in FlipLanes: enough independent 128-bit
// multiplies in flight to hide their latency.
constexpr size_t kLanesPerPass = 4;

// XORs the flips of bits first_bit + L of local rows [begin, end) of one
// chunk into their planes. Draw i * B + b of the chunk's stream decides bit
// b of row i (B = one-hot width), so lane L draws every B-th value of the
// stream from offset first_bit + L, one per row; `begin` is a multiple of
// 64.
template <size_t... L>
void FlipLanes(std::index_sequence<L...>, const random::Pcg64& chunk_rng,
               const internal::OneHotPlanes& planes, size_t first_bit,
               uint64_t threshold, size_t begin, size_t end) {
  random::StridedPcg64 lanes[] = {
      chunk_rng.Strided(first_bit + L, planes.num_bits)...};
  uint64_t* const out[] = {planes.Plane(first_bit + L)...};
  for (size_t word_begin = begin; word_begin < end; word_begin += 64) {
    const size_t rows = std::min<size_t>(64, end - word_begin);
    uint64_t flips[] = {(static_cast<void>(L), uint64_t{0})...};
    for (size_t r = 0; r < rows; ++r) {
      ((flips[L] |= uint64_t{(lanes[L].Next() >> 11) < threshold} << r), ...);
    }
    ((out[L][word_begin >> 6] ^= flips[L]), ...);
  }
}

}  // namespace

StatusOr<MaskScheme> MaskScheme::Create(double p) {
  if (!(p > 0.5) || !(p < 1.0)) {
    return Status::InvalidArgument("MASK requires keep probability p in (0.5, 1)");
  }
  return MaskScheme(p);
}

StatusOr<MaskScheme> MaskScheme::CalibrateForGamma(double gamma,
                                                   size_t num_attributes) {
  if (!(gamma > 1.0)) return Status::InvalidArgument("gamma must exceed 1");
  if (num_attributes == 0) {
    return Status::InvalidArgument("need at least one attribute");
  }
  const double t =
      std::pow(gamma, 1.0 / (2.0 * static_cast<double>(num_attributes)));
  return Create(t / (1.0 + t));
}

double MaskScheme::RecordAmplification(size_t num_attributes) const {
  return std::pow(p_ / (1.0 - p_), 2.0 * static_cast<double>(num_attributes));
}

double MaskScheme::ConditionNumberForLength(size_t itemset_length) const {
  return std::pow(1.0 / (2.0 * p_ - 1.0), static_cast<double>(itemset_length));
}

StatusOr<mining::VerticalIndex> MaskScheme::PerturbShardIndex(
    const data::ShardView& shard, uint64_t seed, size_t num_threads) const {
  const uint64_t threshold = random::Pcg64::BernoulliThreshold(1.0 - p_);
  return internal::PerturbOneHotPlanes(
      shard, seed, num_threads,
      [&](const internal::OneHotPlanes& planes, size_t begin, size_t end,
          random::Pcg64& rng) {
        for (size_t i = begin; i < end; ++i) planes.SetRow(i, planes.Row(i));
        size_t b = 0;
        for (; b + kLanesPerPass <= planes.num_bits; b += kLanesPerPass) {
          FlipLanes(std::make_index_sequence<kLanesPerPass>{}, rng, planes, b,
                    threshold, begin, end);
        }
        for (; b < planes.num_bits; ++b) {
          FlipLanes(std::make_index_sequence<1>{}, rng, planes, b, threshold,
                    begin, end);
        }
      });
}

StatusOr<data::BooleanTable> MaskScheme::PerturbShardSeeded(
    const data::BooleanTable& onehot, size_t global_begin, uint64_t seed,
    size_t num_threads) const {
  const double flip = 1.0 - p_;
  const size_t bits = onehot.num_bits();
  return internal::PerturbOneHotRows(
      onehot, global_begin, seed, num_threads,
      [&](uint64_t row, random::Pcg64& rng) {
        uint64_t flip_mask = 0;
        for (size_t b = 0; b < bits; ++b) {
          if (rng.NextBernoulli(flip)) flip_mask |= (1ull << b);
        }
        return row ^ flip_mask;
      });
}

StatusOr<double> MaskScheme::ReconstructFromPatternCounts(
    std::vector<double> counts, size_t num_rows) const {
  const size_t patterns = counts.size();
  size_t k = 0;
  while ((1ull << k) < patterns) ++k;
  if ((1ull << k) != patterns || patterns == 0) {
    return Status::InvalidArgument("pattern counts must have 2^k entries");
  }

  // Invert the flip channel one bit-axis at a time. The per-bit matrix is
  // [[p, 1-p], [1-p, p]] with inverse 1/(2p-1) [[p, -(1-p)], [-(1-p), p]].
  const double q = 1.0 - p_;
  const double inv_det = 1.0 / (2.0 * p_ - 1.0);
  for (size_t axis = 0; axis < k; ++axis) {
    const size_t stride = 1ull << axis;
    for (size_t base = 0; base < patterns; base += stride * 2) {
      for (size_t offset = 0; offset < stride; ++offset) {
        const size_t i0 = base + offset;
        const size_t i1 = i0 + stride;
        const double a = counts[i0];
        const double b = counts[i1];
        counts[i0] = inv_det * (p_ * a - q * b);
        counts[i1] = inv_det * (-q * a + p_ * b);
      }
    }
  }

  const double n = static_cast<double>(num_rows);
  if (n == 0.0) return 0.0;
  return counts[patterns - 1] / n;
}

StatusOr<double> MaskSupportEstimator::EstimateSupport(
    const mining::Itemset& itemset) {
  FRAPP_ASSIGN_OR_RETURN(const std::vector<double> supports,
                         EstimateSupports({itemset}));
  return supports[0];
}

StatusOr<std::vector<double>> MaskSupportEstimator::EstimateSupports(
    const std::vector<mining::Itemset>& itemsets) {
  std::vector<double> supports(itemsets.size(), 0.0);
  for (const mining::Itemset& itemset : itemsets) {
    FRAPP_RETURN_IF_ERROR(SupersetCounter::CheckLength(itemset));
  }
  // An empty stream has no rows to count; every support is 0.
  if (counter_.num_rows() == 0) return supports;
  FRAPP_ASSIGN_OR_RETURN(std::vector<std::vector<int64_t>> superset,
                         counter_.Count(itemsets));
  for (size_t c = 0; c < itemsets.size(); ++c) {
    SupersetCounter::MobiusExactCounts(superset[c]);
    std::vector<double> counts(superset[c].begin(), superset[c].end());
    FRAPP_ASSIGN_OR_RETURN(
        supports[c], scheme_.ReconstructFromPatternCounts(
                         std::move(counts), counter_.num_rows()));
  }
  return supports;
}

}  // namespace core
}  // namespace frapp
