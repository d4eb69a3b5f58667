// The incremental mining claim: AppendAndMine over a count store is
// BIT-IDENTICAL to a from-scratch PrivacyPipeline mine of the same window —
// same itemsets, same support doubles, same candidate counts per pass —
// across all five mechanisms (categorical DET-GD, RAN-GD and IND-GD, boolean
// MASK and C&P), source kinds (in-memory and binary file), thread counts,
// and append steps. Supporting claims: supmin may drift anywhere above the
// store's retention threshold with zero fallbacks, below it the mine still
// agrees (through recounts), and window expiry by subtraction equals a
// direct mine of the surviving window down to the saved store's bytes.

#include "frapp/store/incremental_mine.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <ostream>
#include <memory>
#include <string>
#include <vector>

#include "frapp/data/census.h"
#include "frapp/data/csv.h"
#include "frapp/data/shard_io.h"
#include "frapp/data/sharded_table.h"
#include "frapp/pipeline/privacy_pipeline.h"
#include "frapp/store/count_store.h"

namespace frapp {
namespace store {
namespace {

constexpr size_t kChunk = data::kShardAlignmentRows;

void ExpectSameMining(const mining::AprioriResult& got,
                      const mining::AprioriResult& want) {
  ASSERT_EQ(got.candidates_per_pass, want.candidates_per_pass);
  ASSERT_EQ(got.by_length.size(), want.by_length.size());
  for (size_t k = 0; k < want.by_length.size(); ++k) {
    ASSERT_EQ(got.by_length[k].size(), want.by_length[k].size())
        << "length " << k + 1;
    for (size_t i = 0; i < want.by_length[k].size(); ++i) {
      ASSERT_TRUE(got.by_length[k][i].itemset == want.by_length[k][i].itemset)
          << "length " << k + 1 << " rank " << i;
      // Bitwise double equality — the whole point of the design.
      ASSERT_EQ(got.by_length[k][i].support, want.by_length[k][i].support)
          << "length " << k + 1 << " rank " << i;
    }
  }
}

class IncrementalMineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StatusOr<data::CategoricalTable> t =
        data::census::MakeDataset(50000, data::census::kDefaultSeed);
    ASSERT_TRUE(t.ok());
    full_ = new data::CategoricalTable(*std::move(t));
  }
  static void TearDownTestSuite() {
    delete full_;
    full_ = nullptr;
  }

  static mining::AprioriResult Reference(const dist::MechanismSpec& spec,
                                         const data::CategoricalTable& prefix,
                                         const IncrementalOptions& options) {
    StatusOr<std::unique_ptr<core::Mechanism>> mech =
        dist::MakeMechanism(spec, prefix.schema());
    EXPECT_TRUE(mech.ok());
    pipeline::PipelineOptions popts;
    popts.num_shards = 3;
    popts.num_threads = options.num_threads;
    popts.perturb_seed = options.perturb_seed;
    popts.mining = options.mining;
    StatusOr<pipeline::PipelineResult> run =
        pipeline::PrivacyPipeline(popts).Run(**mech, prefix);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    return run->mined;
  }

  static data::CategoricalTable* full_;
};

data::CategoricalTable* IncrementalMineTest::full_ = nullptr;

struct GridCase {
  const char* name;
  dist::MechanismSpec::Kind kind;
  bool binary_source;
  size_t threads;
};

// Prints the case by name. The default printer dumps the struct's raw bytes,
// which hold a pointer, so test names would change from build to build.
void PrintTo(const GridCase& c, std::ostream* os) { *os << c.name; }

class IncrementalGridTest : public IncrementalMineTest,
                            public ::testing::WithParamInterface<GridCase> {};

TEST_P(IncrementalGridTest, AppendStepsMatchFromScratchBitwise) {
  const GridCase& param = GetParam();
  dist::MechanismSpec spec;
  spec.kind = param.kind;

  IncrementalOptions options;
  options.mining.min_support = 0.02;
  options.num_threads = param.threads;
  options.source_id = std::string("census-grid-") + param.name;

  const std::string binary_path =
      ::testing::TempDir() + "/grid_" + param.name + ".frappbin";
  std::shared_ptr<data::CategoricalTable> current;
  const SourceFactory factory =
      [&]() -> StatusOr<std::unique_ptr<pipeline::TableSource>> {
    if (!param.binary_source) {
      std::unique_ptr<pipeline::TableSource> src =
          std::make_unique<pipeline::InMemoryTableSource>(*current, 3);
      return src;
    }
    FRAPP_ASSIGN_OR_RETURN(pipeline::BinaryTableSource src,
                           pipeline::BinaryTableSource::Open(
                               binary_path, full_->schema()));
    std::unique_ptr<pipeline::TableSource> out =
        std::make_unique<pipeline::BinaryTableSource>(std::move(src));
    return out;
  };

  CountStore cs(MakeStoreIdentity(spec, full_->schema(), options));
  // 2 chunks + tail, then +2 whole chunks, then the full unaligned 50k.
  const size_t steps[] = {2 * kChunk + 3616, 4 * kChunk + 4096, 50000};
  for (size_t step = 0; step < 3; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const size_t rows = steps[step];
    StatusOr<data::CategoricalTable> prefix =
        data::CopyRowRange(*full_, {0, rows});
    ASSERT_TRUE(prefix.ok());
    current = std::make_shared<data::CategoricalTable>(*std::move(prefix));
    if (param.binary_source) {
      ASSERT_TRUE(data::WriteBinaryTable(*current, binary_path).ok());
    }

    StatusOr<IncrementalResult> run =
        AppendAndMine(cs, spec, factory, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ExpectSameMining(run->mined, Reference(spec, *current, options));

    EXPECT_EQ(run->stats.total_rows, rows);
    EXPECT_EQ(run->stats.tail_rows, rows % kChunk);
    EXPECT_EQ(run->stats.delta_chunks, 2u);
    if (step == 0) {
      EXPECT_TRUE(run->stats.store_created);
      EXPECT_EQ(run->stats.store_hits, 0u);
      EXPECT_EQ(run->stats.superset_fallbacks, 0u);
    } else {
      EXPECT_FALSE(run->stats.store_created);
      EXPECT_GT(run->stats.store_hits, 0u);
      // These appends are aggressive (+84%, +36%), so estimated supports
      // genuinely drift and a few candidates fall outside the previous
      // run's superset. Every such miss must be recovered by a fallback
      // recount — the bit-identity check above already proved the recovery
      // exact. Zero-miss behaviour on realistic appends is asserted by
      // SmallAppendsHitTheStoreEntirely.
      EXPECT_EQ(run->stats.superset_fallbacks, run->stats.store_misses);
    }
    EXPECT_EQ(cs.high_water(), rows / kChunk * kChunk);
    EXPECT_GT(cs.num_entries(), 0u);
  }
  std::remove(binary_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, IncrementalGridTest,
    ::testing::Values(
        GridCase{"detgd-mem-1", dist::MechanismSpec::Kind::kDetGd, false, 1},
        GridCase{"detgd-mem-2", dist::MechanismSpec::Kind::kDetGd, false, 2},
        GridCase{"detgd-bin-2", dist::MechanismSpec::Kind::kDetGd, true, 2},
        GridCase{"mask-mem-1", dist::MechanismSpec::Kind::kMask, false, 1},
        GridCase{"mask-bin-1", dist::MechanismSpec::Kind::kMask, true, 1},
        GridCase{"mask-bin-2", dist::MechanismSpec::Kind::kMask, true, 2},
        GridCase{"rangd-mem-2", dist::MechanismSpec::Kind::kRanGd, false, 2},
        GridCase{"rangd-bin-1", dist::MechanismSpec::Kind::kRanGd, true, 1},
        GridCase{"cp-mem-1", dist::MechanismSpec::Kind::kCutPaste, false, 1},
        GridCase{"cp-bin-2", dist::MechanismSpec::Kind::kCutPaste, true, 2},
        GridCase{"indgd-mem-2", dist::MechanismSpec::Kind::kIndGd, false, 2},
        GridCase{"indgd-bin-1", dist::MechanismSpec::Kind::kIndGd, true, 1}),
    [](const ::testing::TestParamInfo<GridCase>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST_F(IncrementalMineTest, SmallAppendsReadTheSourceOnce) {
  // The bench regime: a mined base grows by a few percent. Estimated
  // supports jitter on every append (joint-domain inversion amplifies count
  // noise), so some candidates flicker out of the retained superset and
  // miss the store — but every miss is recounted from the materialized
  // substrate: the source is opened EXACTLY ONCE per run and only the delta
  // chunks plus the tail are ever perturbed.
  for (const bool boolean : {false, true}) {
    SCOPED_TRACE(boolean ? "mask" : "det-gd");
    dist::MechanismSpec spec;
    if (boolean) spec.kind = dist::MechanismSpec::Kind::kMask;
    IncrementalOptions options;
    options.mining.min_support = 0.02;
    options.num_threads = 2;
    options.source_id = "census-small-append";

    std::shared_ptr<data::CategoricalTable> current;
    size_t opens = 0;
    const SourceFactory factory =
        [&]() -> StatusOr<std::unique_ptr<pipeline::TableSource>> {
      ++opens;
      std::unique_ptr<pipeline::TableSource> src =
          std::make_unique<pipeline::InMemoryTableSource>(*current, 3);
      return src;
    };

    CountStore cs(MakeStoreIdentity(spec, full_->schema(), options));
    // +3% with one new whole chunk, then +1% landing entirely in the tail.
    const size_t steps[] = {48000, 49500, 50000};
    for (size_t step = 0; step < 3; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      StatusOr<data::CategoricalTable> prefix =
          data::CopyRowRange(*full_, {0, steps[step]});
      ASSERT_TRUE(prefix.ok());
      current = std::make_shared<data::CategoricalTable>(*std::move(prefix));

      const size_t opens_before = opens;
      StatusOr<IncrementalResult> run =
          AppendAndMine(cs, spec, factory, options);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(opens, opens_before + 1);
      ExpectSameMining(run->mined, Reference(spec, *current, options));
      if (step > 0) {
        EXPECT_GT(run->stats.store_hits, 0u);
        // Misses may happen (estimator jitter) but each one is served from
        // the substrate, never by re-reading or re-perturbing the source.
        EXPECT_EQ(run->stats.superset_fallbacks, run->stats.store_misses);
      }
      EXPECT_EQ(run->stats.delta_chunks, step == 0 ? 5u : step == 1 ? 1u : 0u);
      // The substrate tiles the stored window chunk for chunk.
      EXPECT_EQ(cs.substrate().size() * kChunk,
                cs.high_water() - cs.window_begin());
    }
  }
}

TEST_F(IncrementalMineTest, SupminDriftInsideMarginNeedsNoFallbacks) {
  dist::MechanismSpec spec;  // DET-GD
  IncrementalOptions options;
  options.mining.min_support = 0.02;
  options.superset_margin = 0.25;  // retention threshold 0.015
  options.num_threads = 2;
  options.source_id = "census-drift";

  StatusOr<data::CategoricalTable> prefix = data::CopyRowRange(*full_, {0, 50000});
  ASSERT_TRUE(prefix.ok());
  const SourceFactory factory =
      [&]() -> StatusOr<std::unique_ptr<pipeline::TableSource>> {
    std::unique_ptr<pipeline::TableSource> src =
        std::make_unique<pipeline::InMemoryTableSource>(*prefix, 0);
    return src;
  };

  CountStore cs(MakeStoreIdentity(spec, full_->schema(), options));
  StatusOr<IncrementalResult> first = AppendAndMine(cs, spec, factory, options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // Drift DOWN but above retention: every candidate is already
  // materialized — a pure lattice-walk re-run over stored counts.
  options.mining.min_support = 0.017;
  StatusOr<IncrementalResult> inside = AppendAndMine(cs, spec, factory, options);
  ASSERT_TRUE(inside.ok()) << inside.status().ToString();
  ExpectSameMining(inside->mined, Reference(spec, *prefix, options));
  EXPECT_EQ(inside->stats.superset_fallbacks, 0u);
  EXPECT_EQ(inside->stats.store_misses, 0u);
  EXPECT_EQ(inside->stats.delta_chunks, 0u);

  // Drift BELOW retention: the walk needs candidates the superset never
  // kept, so the stored range is recounted — slower, but the mine still
  // agrees bit for bit.
  options.mining.min_support = 0.005;
  StatusOr<IncrementalResult> below = AppendAndMine(cs, spec, factory, options);
  ASSERT_TRUE(below.ok()) << below.status().ToString();
  ExpectSameMining(below->mined, Reference(spec, *prefix, options));
  EXPECT_GT(below->stats.superset_fallbacks, 0u);
}

TEST_F(IncrementalMineTest, WindowExpirySubtractionMatchesDirectWindowMine) {
  dist::MechanismSpec spec;  // DET-GD
  IncrementalOptions options;
  options.mining.min_support = 0.02;
  options.num_threads = 2;
  options.source_id = "census-window";

  StatusOr<data::CategoricalTable> prefix = data::CopyRowRange(*full_, {0, 50000});
  ASSERT_TRUE(prefix.ok());
  const SourceFactory factory =
      [&]() -> StatusOr<std::unique_ptr<pipeline::TableSource>> {
    std::unique_ptr<pipeline::TableSource> src =
        std::make_unique<pipeline::InMemoryTableSource>(*prefix, 4);
    return src;
  };

  // Mine the full range, then expire the first two chunks by subtraction.
  CountStore subtracted(MakeStoreIdentity(spec, full_->schema(), options));
  ASSERT_TRUE(AppendAndMine(subtracted, spec, factory, options).ok());
  options.window_begin_row = 2 * kChunk;
  StatusOr<IncrementalResult> expired =
      AppendAndMine(subtracted, spec, factory, options);
  ASSERT_TRUE(expired.ok()) << expired.status().ToString();
  EXPECT_EQ(expired->stats.expired_chunks, 2u);
  EXPECT_EQ(expired->stats.delta_chunks, 0u);

  // Direct mine of the surviving window from an empty store. Seeded chunk
  // streams are GLOBAL, so this counts rows [2 chunks, 50000) exactly as
  // they were perturbed in the full pass.
  CountStore direct(MakeStoreIdentity(spec, full_->schema(), options));
  StatusOr<IncrementalResult> fresh =
      AppendAndMine(direct, spec, factory, options);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

  ExpectSameMining(expired->mined, fresh->mined);

  // The stores agree down to their serialized bytes: subtraction recovered
  // exactly the counts the surviving rows contributed.
  const std::string sub_path = ::testing::TempDir() + "/window_sub.frappcnt";
  const std::string dir_path = ::testing::TempDir() + "/window_dir.frappcnt";
  ASSERT_TRUE(subtracted.SaveToFile(sub_path).ok());
  ASSERT_TRUE(direct.SaveToFile(dir_path).ok());
  std::ifstream a(sub_path, std::ios::binary), b(dir_path, std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                            std::istreambuf_iterator<char>());
  const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes_a, bytes_b);
  std::remove(sub_path.c_str());
  std::remove(dir_path.c_str());
}

TEST_F(IncrementalMineTest, BooleanWindowExpiryMatchesDirectWindowMine) {
  dist::MechanismSpec spec;
  spec.kind = dist::MechanismSpec::Kind::kMask;
  IncrementalOptions options;
  options.mining.min_support = 0.02;
  options.num_threads = 2;
  options.source_id = "census-window-mask";

  StatusOr<data::CategoricalTable> prefix = data::CopyRowRange(*full_, {0, 50000});
  ASSERT_TRUE(prefix.ok());
  const SourceFactory factory =
      [&]() -> StatusOr<std::unique_ptr<pipeline::TableSource>> {
    std::unique_ptr<pipeline::TableSource> src =
        std::make_unique<pipeline::InMemoryTableSource>(*prefix, 0);
    return src;
  };

  CountStore subtracted(MakeStoreIdentity(spec, full_->schema(), options));
  ASSERT_TRUE(AppendAndMine(subtracted, spec, factory, options).ok());
  options.window_begin_row = 3 * kChunk;
  StatusOr<IncrementalResult> expired =
      AppendAndMine(subtracted, spec, factory, options);
  ASSERT_TRUE(expired.ok()) << expired.status().ToString();

  CountStore direct(MakeStoreIdentity(spec, full_->schema(), options));
  StatusOr<IncrementalResult> fresh =
      AppendAndMine(direct, spec, factory, options);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ExpectSameMining(expired->mined, fresh->mined);
}

TEST_F(IncrementalMineTest, RejectsMismatchedStoreAndBackwardWindows) {
  dist::MechanismSpec spec;
  IncrementalOptions options;
  options.mining.min_support = 0.02;
  options.source_id = "census-reject";

  StatusOr<data::CategoricalTable> prefix = data::CopyRowRange(*full_, {0, 20000});
  ASSERT_TRUE(prefix.ok());
  const SourceFactory factory =
      [&]() -> StatusOr<std::unique_ptr<pipeline::TableSource>> {
    std::unique_ptr<pipeline::TableSource> src =
        std::make_unique<pipeline::InMemoryTableSource>(*prefix, 0);
    return src;
  };

  // Store built under a different seed: refused outright.
  IncrementalOptions other = options;
  other.perturb_seed = 99;
  CountStore wrong(MakeStoreIdentity(spec, full_->schema(), other));
  const StatusOr<IncrementalResult> mismatch =
      AppendAndMine(wrong, spec, factory, options);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kFailedPrecondition);

  // A window that moves backwards past expired rows: refused.
  CountStore cs(MakeStoreIdentity(spec, full_->schema(), options));
  options.window_begin_row = kChunk;
  ASSERT_TRUE(AppendAndMine(cs, spec, factory, options).ok());
  options.window_begin_row = 0;
  const StatusOr<IncrementalResult> backwards =
      AppendAndMine(cs, spec, factory, options);
  ASSERT_FALSE(backwards.ok());
  EXPECT_EQ(backwards.status().code(), StatusCode::kFailedPrecondition);

  // Unaligned window: refused.
  options.window_begin_row = 100;
  EXPECT_FALSE(AppendAndMine(cs, spec, factory, options).ok());
}

TEST_F(IncrementalMineTest, RefusesCsvSourceShorterThanTheHighWater) {
  // A CSV stream learns its row count only at its end. A file truncated
  // below the store's high water must be refused, not mined as if it had
  // not changed.
  dist::MechanismSpec spec;
  IncrementalOptions options;
  options.mining.min_support = 0.02;
  options.source_id = "census-truncated";
  const std::string path = ::testing::TempDir() + "/frapp_truncated_" +
                           std::to_string(::getpid()) + ".csv";
  const auto write_rows = [&](size_t rows) {
    StatusOr<data::CategoricalTable> prefix =
        data::CopyRowRange(*full_, {0, rows});
    ASSERT_TRUE(prefix.ok());
    ASSERT_TRUE(data::WriteCsv(*prefix, path).ok());
  };
  const SourceFactory factory =
      [&]() -> StatusOr<std::unique_ptr<pipeline::TableSource>> {
    FRAPP_ASSIGN_OR_RETURN(pipeline::CsvTableSource source,
                           pipeline::CsvTableSource::Open(path, full_->schema()));
    return std::unique_ptr<pipeline::TableSource>(
        std::make_unique<pipeline::CsvTableSource>(std::move(source)));
  };

  CountStore cs(MakeStoreIdentity(spec, full_->schema(), options));
  write_rows(3 * kChunk);
  ASSERT_TRUE(AppendAndMine(cs, spec, factory, options).ok());
  write_rows(kChunk + 100);
  const StatusOr<IncrementalResult> truncated =
      AppendAndMine(cs, spec, factory, options);
  std::remove(path.c_str());
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kFailedPrecondition);
}

// Regression: the CLI and the serve broker hand AppendAndMine sources that
// OWN their table (generated in-memory datasets, binary readers with their
// own schema). AppendAndMine releases the source right after ingest to drop
// the table before the candidate walk — anything it kept by reference into
// the source (the schema, in the original bug) died with it, and the walk
// sized its candidate loops from freed cardinalities. Must stay correct (and
// ASan-clean) with a source whose table's lifetime ends at that release.
TEST_F(IncrementalMineTest, SurvivesSourceThatOwnsItsTable) {
  class OwningSource : public pipeline::TableSource {
   public:
    explicit OwningSource(data::CategoricalTable table)
        : table_(std::make_shared<data::CategoricalTable>(std::move(table))),
          inner_(*table_, 0) {}
    const data::CategoricalSchema& schema() const override {
      return inner_.schema();
    }
    StatusOr<bool> NextShard(pipeline::PulledShard* out) override {
      return inner_.NextShard(out);
    }
    Status SkipToRow(size_t row) override { return inner_.SkipToRow(row); }
    std::optional<size_t> TotalRows() const override {
      return inner_.TotalRows();
    }

   private:
    std::shared_ptr<data::CategoricalTable> table_;
    pipeline::InMemoryTableSource inner_;
  };

  dist::MechanismSpec spec;
  IncrementalOptions options;
  options.mining.min_support = 0.02;
  options.source_id = "census-owning";

  const size_t rows = 2 * kChunk + 1024;
  StatusOr<data::CategoricalTable> prefix = data::CopyRowRange(*full_, {0, rows});
  ASSERT_TRUE(prefix.ok());

  const SourceFactory factory =
      [&]() -> StatusOr<std::unique_ptr<pipeline::TableSource>> {
    FRAPP_ASSIGN_OR_RETURN(data::CategoricalTable copy,
                           data::CopyRowRange(*full_, {0, rows}));
    std::unique_ptr<pipeline::TableSource> src =
        std::make_unique<OwningSource>(std::move(copy));
    return src;
  };

  CountStore cs(MakeStoreIdentity(spec, full_->schema(), options));
  const StatusOr<IncrementalResult> got = AppendAndMine(cs, spec, factory, options);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSameMining(got->mined, Reference(spec, *prefix, options));

  // Second call: pure store re-mine (no growth), source released immediately.
  const StatusOr<IncrementalResult> again =
      AppendAndMine(cs, spec, factory, options);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->stats.delta_chunks, 0u);
  ExpectSameMining(again->mined, got->mined);
}

}  // namespace
}  // namespace store
}  // namespace frapp
