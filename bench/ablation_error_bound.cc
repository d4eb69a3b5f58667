// Ablation: the paper's error analysis (Section 2.3, Eq. 9-10) in action.
// For representative itemsets of each length on CENSUS, compare the
// closed-form PREDICTED standard deviation of the reconstructed support
// (Poisson-binomial variance through the Eq. 28 inverse) against the
// EMPIRICAL spread over repeated perturbations — and derive the sample size
// a practitioner would need for reliable classification at supmin = 2%.

#include <cmath>
#include <iostream>
#include <limits>

#include "bench_util.h"
#include "frapp/core/error_analysis.h"
#include "frapp/mining/support_counter.h"

int main() {
  using namespace frapp;
  std::cout << "=== Ablation: predicted vs empirical reconstruction noise ===\n";
  std::cout << "(CENSUS, gamma = 19, DET-GD; 40 perturbation runs per row)\n\n";

  const data::CategoricalTable census =
      bench::Unwrap(data::census::MakeDataset(20000, 99), "census data");
  const data::CategoricalSchema& schema = census.schema();
  const size_t n = census.num_rows();

  auto perturber = bench::Unwrap(
      core::GammaDiagonalPerturber::Create(schema, bench::kGamma), "perturber");
  auto reconstructor = bench::Unwrap(
      core::GammaSubsetReconstructor::Create(bench::kGamma, schema.DomainSize()),
      "reconstructor");

  // One representative itemset per length: the modal category combination
  // over the first k attributes.
  std::vector<mining::Itemset> targets;
  {
    std::vector<mining::Item> items;
    const uint16_t modal_categories[6] = {0, 1, 1, 0, 1, 0};
    for (uint16_t j = 0; j < 6; ++j) {
      items.push_back(mining::Item{j, modal_categories[j]});
      targets.push_back(*mining::Itemset::Create(items));
    }
  }

  // Pre-perturb once per run; evaluate all targets on each run.
  const int runs = 40;
  std::vector<std::vector<double>> estimates(targets.size());
  for (int run = 0; run < runs; ++run) {
    const data::CategoricalTable perturbed = bench::Unwrap(
        perturber.PerturbShardSeeded(data::ShardView::Whole(census),
                                     /*seed=*/123 + run),
        "perturb");
    for (size_t t = 0; t < targets.size(); ++t) {
      uint64_t n_cs = 1;
      for (const mining::Item& item : targets[t].items()) {
        n_cs *= schema.Cardinality(item.attribute);
      }
      const double sup_v = mining::SupportFraction(perturbed, targets[t]);
      estimates[t].push_back(bench::Unwrap(
          reconstructor.ReconstructSupport(sup_v, n_cs), "reconstruct"));
    }
  }

  eval::TextTable out({"length", "true sup", "predicted sigma", "empirical sigma",
                       "N for 2-sigma @ 2%"});
  for (size_t t = 0; t < targets.size(); ++t) {
    const double truth = mining::SupportFraction(census, targets[t]);
    uint64_t n_cs = 1;
    for (const mining::Item& item : targets[t].items()) {
      n_cs *= schema.Cardinality(item.attribute);
    }
    const double predicted = bench::Unwrap(
        core::ReconstructedSupportStddev(reconstructor, truth, n_cs, n),
        "stddev");
    double mean = 0.0;
    for (double e : estimates[t]) mean += e;
    mean /= runs;
    double var = 0.0;
    for (double e : estimates[t]) var += (e - mean) * (e - mean);
    const double empirical = std::sqrt(var / (runs - 1));

    std::string required = "-";
    StatusOr<double> needed = core::RequiredRecordsForSeparation(
        reconstructor, truth, bench::kMinSupport, n_cs, 2.0);
    if (needed.ok()) required = eval::Cell(*needed, 3);

    out.AddRow({std::to_string(t + 1), eval::Cell(truth, 3),
                eval::Cell(predicted, 3), eval::Cell(empirical, 3), required});
  }
  out.Print(std::cout);

  std::cout << "\nReading guide: the Eq.-10 closed form predicts the empirical\n"
               "noise within sampling error at every length, and the noise\n"
               "SHRINKS with itemset length for DET-GD (the off-diagonal mass\n"
               "(n_C/n_Cs) x decreases) — the opposite of MASK/C&P, whose noise\n"
               "explodes with length. The last column is the sample size at\n"
               "which the itemset separates from the 2% threshold by 2 sigma.\n";
  return 0;
}
