#include "frapp/core/cut_paste_scheme.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "frapp/common/combinatorics.h"
#include "frapp/core/seeded_chunking.h"
#include "frapp/linalg/condition.h"
#include "frapp/random/distributions.h"

namespace frapp {
namespace core {

namespace {

/// One record through the cut-and-paste operator. Kept out of line: GCC
/// inlining it into a seeded-chunk row loop made C&P perturbation of CENSUS
/// rows about 1.6x slower.
[[gnu::noinline]] uint64_t CutPasteRow(uint64_t row, size_t cutoff_k, double rho,
                     size_t universe_bits, random::Pcg64& rng) {
  uint8_t ones[64] = {};  // bit positions of the record's items
  size_t m = 0;
  for (uint64_t bits = row; bits != 0; bits &= bits - 1) {
    ones[m++] = static_cast<uint8_t>(__builtin_ctzll(bits));
  }

  // Step 1: cut size.
  size_t z = static_cast<size_t>(rng.NextBounded(cutoff_k + 1));
  if (z > m) z = m;

  // Step 2: copy a uniform z-subset of the record's items.
  uint64_t cut_mask = 0;
  for (size_t pick : random::SampleSubset(m, z, rng)) {
    cut_mask |= (1ull << ones[pick]);
  }

  // Step 3: paste every other universe item with probability rho.
  uint64_t new_bits = cut_mask;
  for (size_t b = 0; b < universe_bits; ++b) {
    const uint64_t bit = 1ull << b;
    if ((cut_mask & bit) != 0) continue;
    if (rng.NextBernoulli(rho)) new_bits |= bit;
  }
  return new_bits;
}

}  // namespace

StatusOr<CutPasteScheme> CutPasteScheme::Create(size_t cutoff_k, double rho,
                                                size_t record_items,
                                                size_t universe_bits) {
  if (!(rho > 0.0) || !(rho < 1.0)) {
    return Status::InvalidArgument("C&P requires rho in (0, 1)");
  }
  if (record_items == 0 || record_items > universe_bits) {
    return Status::InvalidArgument("record_items must be in [1, universe_bits]");
  }
  if (universe_bits > 64) {
    return Status::InvalidArgument("C&P boolean view limited to 64 bits");
  }
  return CutPasteScheme(cutoff_k, rho, record_items, universe_bits);
}

double CutPasteScheme::CutSizeProbability(size_t z) const {
  const size_t m = record_items_;
  const double denom = static_cast<double>(cutoff_k_ + 1);
  if (cutoff_k_ <= m) {
    // j <= K <= m, so z = j uniformly.
    return z <= cutoff_k_ ? 1.0 / denom : 0.0;
  }
  // K > m: draws j in [m, K] all clamp to z = m.
  if (z < m) return 1.0 / denom;
  if (z == m) return static_cast<double>(cutoff_k_ - m + 1) / denom;
  return 0.0;
}

StatusOr<mining::VerticalIndex> CutPasteScheme::PerturbShardIndex(
    const data::ShardView& shard, uint64_t seed, size_t num_threads) const {
  if (shard.rows != nullptr &&
      shard.rows->schema().TotalCategories() != universe_bits_) {
    return Status::InvalidArgument("table universe does not match scheme");
  }
  return internal::PerturbOneHotPlanes(
      shard, seed, num_threads,
      [&](const internal::OneHotPlanes& planes, size_t begin, size_t end,
          random::Pcg64& rng) {
        for (size_t i = begin; i < end; ++i) {
          planes.SetRow(i, CutPasteRow(planes.Row(i), cutoff_k_, rho_,
                                       universe_bits_, rng));
        }
      });
}

StatusOr<data::BooleanTable> CutPasteScheme::PerturbShardSeeded(
    const data::BooleanTable& onehot, size_t global_begin, uint64_t seed,
    size_t num_threads) const {
  if (onehot.num_bits() != universe_bits_) {
    return Status::InvalidArgument("table universe does not match scheme");
  }
  return internal::PerturbOneHotRows(
      onehot, global_begin, seed, num_threads,
      [&](uint64_t row, random::Pcg64& rng) {
        return CutPasteRow(row, cutoff_k_, rho_, universe_bits_, rng);
      });
}

StatusOr<linalg::Matrix> CutPasteScheme::PartialSupportMatrix(
    size_t itemset_length) const {
  const size_t k = itemset_length;
  if (k == 0) return Status::InvalidArgument("itemset length must be >= 1");
  if (k > record_items_) {
    return Status::InvalidArgument(
        "itemset longer than the records' item count");
  }
  const size_t m = record_items_;
  linalg::Matrix q_matrix(k + 1, k + 1);

  // Q[q'][q]: original record holds q of the k itemset items (and m - q
  // other items). Cut z items; s of them hit the itemset (hypergeometric).
  // Kept itemset items: s surely, plus Binomial(q - s, rho) re-pastes of the
  // uncut ones, plus Binomial(k - q, rho) pastes of itemset items the record
  // never had.
  for (size_t q = 0; q <= k; ++q) {
    for (size_t z = 0; z <= std::min(cutoff_k_, m); ++z) {
      const double pz = CutSizeProbability(z);
      if (pz == 0.0) continue;
      for (size_t s = 0; s <= std::min(z, q); ++s) {
        const double hyper = HypergeometricPmf(s, m, q, z);
        if (hyper == 0.0) continue;
        for (size_t a = 0; a + s <= k && a <= q - s; ++a) {
          const double paste_old = BinomialPmf(a, q - s, rho_);
          if (paste_old == 0.0) continue;
          for (size_t c = 0; s + a + c <= k && c <= k - q; ++c) {
            const double paste_new = BinomialPmf(c, k - q, rho_);
            const size_t q_prime = s + a + c;
            q_matrix(q_prime, q) += pz * hyper * paste_old * paste_new;
          }
        }
      }
    }
  }
  return q_matrix;
}

StatusOr<double> CutPasteScheme::ConditionNumberForLength(
    size_t itemset_length) const {
  FRAPP_ASSIGN_OR_RETURN(linalg::Matrix q, PartialSupportMatrix(itemset_length));
  return linalg::SpectralConditionNumber(q);
}

StatusOr<double> CutPasteScheme::ReconstructFromHitHistogram(
    const linalg::Vector& y, size_t num_rows, size_t itemset_length) const {
  const size_t k = itemset_length;
  if (y.size() != k + 1) {
    return Status::InvalidArgument("histogram must have k+1 entries");
  }
  FRAPP_ASSIGN_OR_RETURN(linalg::Matrix q, PartialSupportMatrix(k));

  StatusOr<linalg::Vector> x = linalg::SolveLinearSystem(q, y);
  if (!x.ok()) {
    // Structural limitation of the operator: only the cut overlap (at most K
    // items) carries itemset information through the channel, so Q has rank
    // min(K, k) + 1 and is SINGULAR for k > K. The support of such itemsets
    // is unreconstructible — this is the paper's observation that C&P "does
    // not work after K-length itemsets". Report 0 so mining treats them as
    // not frequent.
    return 0.0;
  }
  const double n = static_cast<double>(num_rows);
  if (n == 0.0) return 0.0;
  return (*x)[k] / n;
}

double CutPasteScheme::RecordAmplification() const {
  const size_t m = record_items_;
  const size_t extra = universe_bits_ - m;  // items outside any record

  // g(q) = P(v's overlap-with-u items are all present | overlap q)
  //      = (1-rho)^(m-q) * sum_z P_z C(q, z) / C(m, z) * rho^(q - z):
  // the cut must land inside the overlap, uncut overlap items re-pasted,
  // u-items outside v dropped.
  const auto g = [&](size_t q) {
    double sum = 0.0;
    for (size_t z = 0; z <= std::min(cutoff_k_, q); ++z) {
      const double pz = CutSizeProbability(z);
      if (pz == 0.0) continue;
      sum += pz * BinomialCoefficient(q, z) / BinomialCoefficient(m, z) *
             std::pow(rho_, static_cast<double>(q - z));
    }
    return sum * std::pow(1.0 - rho_, static_cast<double>(m - q));
  };

  double worst = 1.0;
  for (size_t lv = 0; lv <= universe_bits_; ++lv) {
    // q = |u ^ v| ranges over the combinatorially feasible overlaps.
    const size_t q_min = (lv > extra) ? lv - extra : 0;
    const size_t q_max = std::min(m, lv);
    if (q_min > q_max) continue;
    double lo = std::numeric_limits<double>::infinity();
    double hi = 0.0;
    for (size_t q = q_min; q <= q_max; ++q) {
      // A(v,u) proportional to g(q) rho^(lv-q) (1-rho)^(extra-(lv-q)).
      const double value = g(q) * std::pow(rho_, static_cast<double>(lv - q)) *
                           std::pow(1.0 - rho_, static_cast<double>(extra - (lv - q)));
      lo = std::min(lo, value);
      hi = std::max(hi, value);
    }
    if (lo <= 0.0) return std::numeric_limits<double>::infinity();
    worst = std::max(worst, hi / lo);
  }
  return worst;
}

StatusOr<double> CutPasteScheme::CalibrateRho(size_t cutoff_k, size_t record_items,
                                              size_t universe_bits, double gamma) {
  // Amplification decreases in rho (larger rho means noisier pastes), so the
  // accuracy-optimal feasible choice is the SMALLEST rho satisfying the
  // constraint. Grid-scan for the feasibility boundary, then bisect.
  const int kGrid = 199;
  double smallest_feasible = -1.0;
  for (int i = kGrid; i >= 1; --i) {
    const double rho = static_cast<double>(i) / (kGrid + 1);
    StatusOr<CutPasteScheme> scheme =
        Create(cutoff_k, rho, record_items, universe_bits);
    if (!scheme.ok()) continue;
    if (scheme->RecordAmplification() <= gamma) {
      smallest_feasible = rho;
    } else {
      break;  // everything below is infeasible too
    }
  }
  if (smallest_feasible < 0.0) {
    return Status::NotFound("no rho in (0,1) satisfies the gamma constraint");
  }
  double hi = smallest_feasible;                                   // feasible
  double lo = std::max(hi - 1.0 / (kGrid + 1), 1e-9);              // infeasible
  for (int iter = 0; iter < 40; ++iter) {
    const double mid = 0.5 * (lo + hi);
    StatusOr<CutPasteScheme> scheme =
        Create(cutoff_k, mid, record_items, universe_bits);
    if (scheme.ok() && scheme->RecordAmplification() <= gamma) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

StatusOr<double> CutPasteSupportEstimator::EstimateSupport(
    const mining::Itemset& itemset) {
  FRAPP_ASSIGN_OR_RETURN(const std::vector<double> supports,
                         EstimateSupports({itemset}));
  return supports[0];
}

StatusOr<std::vector<double>> CutPasteSupportEstimator::EstimateSupports(
    const std::vector<mining::Itemset>& itemsets) {
  std::vector<double> supports(itemsets.size(), 0.0);
  std::vector<mining::Itemset> candidates;
  std::vector<size_t> slots;  // candidates[j] reconstructs itemsets[slots[j]]
  for (size_t i = 0; i < itemsets.size(); ++i) {
    if (itemsets[i].empty()) return Status::InvalidArgument("empty itemset");
    // For k > K the channel is structurally singular (rank min(K, k) + 1):
    // the support is unreconstructible and the solve would return 0 after
    // an exponential 2^k counting pass — the operator's documented "does
    // not work after K-length itemsets" behaviour. It stays 0 uncounted.
    if (itemsets[i].size() > scheme_.cutoff_k()) continue;
    // Only the pathological cutoff_k >= k > 2^k-cap configuration errors.
    FRAPP_RETURN_IF_ERROR(SupersetCounter::CheckLength(itemsets[i]));
    candidates.push_back(itemsets[i]);
    slots.push_back(i);
  }
  // An empty stream has no rows to count; every support is 0.
  if (candidates.empty() || counter_.num_rows() == 0) return supports;
  FRAPP_ASSIGN_OR_RETURN(std::vector<std::vector<int64_t>> superset,
                         counter_.Count(candidates));
  for (size_t c = 0; c < candidates.size(); ++c) {
    const size_t k = candidates[c].size();
    SupersetCounter::MobiusExactCounts(superset[c]);
    const std::vector<int64_t> histogram =
        SupersetCounter::HistogramFromPatternCounts(superset[c], k);
    linalg::Vector y(k + 1);
    for (size_t j = 0; j <= k; ++j) y[j] = static_cast<double>(histogram[j]);
    FRAPP_ASSIGN_OR_RETURN(supports[slots[c]],
                           scheme_.ReconstructFromHitHistogram(
                               y, counter_.num_rows(), k));
  }
  return supports;
}

}  // namespace core
}  // namespace frapp
