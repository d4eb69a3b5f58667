// Outside-in layer timing: decorators over the library's public seams.
//
// The benchmark changes no library code. It times a layer by wrapping the
// interface the library already exposes at that layer's boundary and
// forwarding every call unchanged, so a decorated operation computes exactly
// what the undecorated one does (the tests check this bit for bit):
//
//   TimingSupportCountSource  mining::SupportCountSource: candidate counting,
//                             split per Apriori level
//   TimingSupportEstimator    mining::SupportEstimator: counting plus
//                             reconstruction, as Apriori sees it
//   TimingTableSource         pipeline::TableSource: ingest, as a store-backed
//                             mine pulls it
//
// TracedCategoricalMine replays PrivacyPipeline::Run for a one-shard
// in-memory categorical mine call by call, timing each stage.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "frapp/common/statusor.h"
#include "frapp/data/table.h"
#include "frapp/dist/mechanism_spec.h"
#include "frapp/mining/apriori.h"
#include "frapp/mining/count_source.h"
#include "frapp/pipeline/privacy_pipeline.h"
#include "frapp/pipeline/table_source.h"
#include "stats.h"

namespace perfbench {

/// One traced operation's layer values (milliseconds and counts), keyed by
/// per-layer metric name. Absent means the layer did no work.
using LayerSample = std::map<std::string, double>;

/// Every per-layer metric the benchmark reports, in output order. A traced
/// run reports all of them; a layer its workload never enters reads 0.
const std::vector<MetricSpec>& LayerMetricSpecs();

/// Adds the mine's Apriori candidates and frequent itemsets to
/// mining.candidates and mining.frequent.
void AddMiningCounts(const frapp::mining::AprioriResult& mined,
                     LayerSample* sample);

/// Milliseconds elapsed since `start_nanos` (common::NowNanos clock).
double MillisSince(uint64_t start_nanos);

class TimingSupportCountSource : public frapp::mining::SupportCountSource {
 public:
  TimingSupportCountSource(
      std::shared_ptr<frapp::mining::SupportCountSource> inner,
      LayerSample* sample)
      : inner_(std::move(inner)), sample_(sample) {}

  size_t num_rows() const override { return inner_->num_rows(); }

  /// Adds to mining.count_ms and mining.count_ms.L<k> (k = itemset length).
  frapp::StatusOr<std::vector<uint64_t>> CountSupports(
      const std::vector<frapp::mining::Itemset>& itemsets) override;

 private:
  std::shared_ptr<frapp::mining::SupportCountSource> inner_;
  LayerSample* sample_;
};

class TimingSupportEstimator : public frapp::mining::SupportEstimator {
 public:
  /// Adds the time of every estimate call to `(*sample)[metric]`.
  TimingSupportEstimator(std::unique_ptr<frapp::mining::SupportEstimator> inner,
                         std::string metric, LayerSample* sample)
      : inner_(std::move(inner)), metric_(std::move(metric)), sample_(sample) {}

  frapp::StatusOr<double> EstimateSupport(
      const frapp::mining::Itemset& itemset) override;
  frapp::StatusOr<std::vector<double>> EstimateSupports(
      const std::vector<frapp::mining::Itemset>& itemsets) override;

 private:
  std::unique_ptr<frapp::mining::SupportEstimator> inner_;
  std::string metric_;
  LayerSample* sample_;
};

class TimingTableSource : public frapp::pipeline::TableSource {
 public:
  /// Adds the time spent pulling and seeking to data.ingest_ms.
  TimingTableSource(std::unique_ptr<frapp::pipeline::TableSource> inner,
                    LayerSample* sample)
      : inner_(std::move(inner)), sample_(sample) {}

  const frapp::data::CategoricalSchema& schema() const override {
    return inner_->schema();
  }
  frapp::StatusOr<bool> NextShard(frapp::pipeline::PulledShard* out) override;
  frapp::Status SkipToRow(size_t row) override;
  std::optional<size_t> TotalRows() const override {
    return inner_->TotalRows();
  }

 private:
  std::unique_ptr<frapp::pipeline::TableSource> inner_;
  LayerSample* sample_;
};

/// The calls PrivacyPipeline::Run makes for `spec` over `table` with
/// options.num_shards == 1, made one by one from outside: MakeMechanism,
/// PerturbShard, VerticalIndex::Build, MakeCountSourceEstimator over a
/// timed LocalSupportCountSource, MineFrequentItemsets over the timed
/// estimator. Fills core.mechanism_create_ms, core.perturb_ms,
/// mining.index_ms, mining.count_ms(.L<k>), core.reconstruct_ms,
/// mining.walk_ms, mining.candidates and mining.frequent. Categorical
/// mechanisms only.
frapp::StatusOr<frapp::mining::AprioriResult> TracedCategoricalMine(
    const frapp::dist::MechanismSpec& spec,
    const frapp::data::CategoricalTable& table,
    const frapp::pipeline::PipelineOptions& options, LayerSample* sample);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
