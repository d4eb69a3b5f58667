// IngestRange, the one chunk-range ingest driver of the pipeline, the count
// store and the dist worker: over every source kind, range shape and thread
// count, the bits it collects must equal core::PerturbIntoIndex over the
// same rows as one in-memory view. It must also refuse a range that starts
// off the chunk grid and a source whose off-grid shard is not its last.

#include "frapp/pipeline/ingest_range.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "frapp/core/mechanism.h"
#include "frapp/data/census.h"
#include "frapp/data/csv.h"
#include "frapp/data/shard_io.h"

namespace frapp {
namespace pipeline {
namespace {

constexpr size_t kChunk = data::kShardAlignmentRows;
constexpr size_t kRows = 5 * kChunk + 1000;  // six chunks, the last partial
constexpr uint64_t kSeed = 41;

/// Each item's bitmap plane, concatenated over the shards in order. Shard
/// boundaries lie on the chunk grid (whole words), so this is the plane
/// image of one index over all the rows.
std::vector<uint64_t> ConcatenatedPlanes(const core::ShardIndexes& indexes,
                                         size_t num_items) {
  std::vector<uint64_t> planes;
  for (size_t item = 0; item < num_items; ++item) {
    for (const mining::VerticalIndex& shard : indexes.shards) {
      const size_t words = shard.words_per_item();
      const auto first = shard.raw_bits().begin() + item * words;
      planes.insert(planes.end(), first, first + words);
    }
  }
  return planes;
}

/// Yields fixed row ranges of a table, in order, whatever they are.
class ScriptedSource : public TableSource {
 public:
  ScriptedSource(const data::CategoricalTable& table,
                 std::vector<data::RowRange> shards)
      : table_(&table), shards_(std::move(shards)) {}

  const data::CategoricalSchema& schema() const override {
    return table_->schema();
  }
  StatusOr<bool> NextShard(PulledShard* out) override {
    if (next_ >= shards_.size()) return false;
    const data::RowRange range = shards_[next_++];
    out->view = data::ShardView{table_, range, range.begin};
    out->owned.reset();
    return true;
  }

 private:
  const data::CategoricalTable* table_;
  std::vector<data::RowRange> shards_;
  size_t next_ = 0;
};

class IngestRangeTest : public ::testing::TestWithParam<std::string> {
 protected:
  static void SetUpTestSuite() {
    table_ = new data::CategoricalTable(*data::census::MakeDataset(kRows, 5));
    // Per-process names: ctest may run the suite's tests in parallel.
    const std::string stem = ::testing::TempDir() + "/frapp_ingest_range_" +
                             std::to_string(::getpid());
    csv_path_ = new std::string(stem + ".csv");
    bin_path_ = new std::string(stem + ".bin");
    ASSERT_TRUE(data::WriteCsv(*table_, *csv_path_).ok());
    ASSERT_TRUE(data::WriteBinaryTable(*table_, *bin_path_).ok());
  }
  static void TearDownTestSuite() {
    std::remove(csv_path_->c_str());
    std::remove(bin_path_->c_str());
    delete csv_path_;
    delete bin_path_;
    delete table_;
  }

  static std::unique_ptr<TableSource> Open(const std::string& kind) {
    if (kind == "memory_per_chunk") {
      return std::make_unique<InMemoryTableSource>(*table_, 0);
    }
    if (kind == "memory_3_shards") {
      return std::make_unique<InMemoryTableSource>(*table_, 3);
    }
    if (kind == "csv_2_chunk_shards") {  // ignores SkipToRow
      return std::make_unique<CsvTableSource>(
          *CsvTableSource::Open(*csv_path_, table_->schema(), 2 * kChunk));
    }
    // Binary seeks.
    return std::make_unique<BinaryTableSource>(
        *BinaryTableSource::Open(*bin_path_, table_->schema()));
  }

  static data::CategoricalTable* table_;
  static std::string* csv_path_;
  static std::string* bin_path_;
};

data::CategoricalTable* IngestRangeTest::table_ = nullptr;
std::string* IngestRangeTest::csv_path_ = nullptr;
std::string* IngestRangeTest::bin_path_ = nullptr;

TEST_P(IngestRangeTest, MatchesPerturbIntoIndexOverTheRange) {
  auto mechanism = *core::DetGdMechanism::Create(table_->schema(), 19.0);
  const size_t num_items = table_->schema().TotalCategories();
  const IndexFn perturb = [&](const data::ShardView& shard, size_t threads,
                              core::ShardIndexes& out) {
    return core::PerturbIntoIndex(*mechanism, shard, kSeed, threads, out);
  };
  const std::vector<data::RowRange> ranges = {
      {0, kOpenEnd},            // the whole stream
      {kChunk, 3 * kChunk},     // starts and ends inside multi-chunk shards
      {3 * kChunk, kOpenEnd},   // through the partial tail
      {2 * kChunk, 2 * kChunk}  // empty
  };
  for (const data::RowRange& range : ranges) {
    const size_t end = std::min(range.end, kRows);
    core::ShardIndexes reference;
    ASSERT_TRUE(core::PerturbIntoIndex(
                    *mechanism,
                    data::ShardView{table_, {range.begin, end}, range.begin},
                    kSeed, 1, reference)
                    .ok());
    for (const size_t threads : {1, 4}) {
      SCOPED_TRACE("range [" + std::to_string(range.begin) + ", " +
                   std::to_string(end) + "), " + std::to_string(threads) +
                   " thread(s)");
      std::unique_ptr<TableSource> source = Open(GetParam());
      const StatusOr<IngestResult> ingest =
          IngestRange(*source, range, threads, perturb);
      ASSERT_TRUE(ingest.ok()) << ingest.status().ToString();
      EXPECT_EQ(ingest->indexes.num_rows, end - range.begin);
      EXPECT_EQ(ingest->stats.total_rows, end - range.begin);
      EXPECT_EQ(ingest->stats.end_row, end);
      EXPECT_EQ(ingest->stats.num_shards, ingest->indexes.shards.size());
      EXPECT_EQ(ConcatenatedPlanes(ingest->indexes, num_items),
                ConcatenatedPlanes(reference, num_items));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sources, IngestRangeTest,
                         ::testing::Values("memory_per_chunk",
                                           "memory_3_shards",
                                           "csv_2_chunk_shards", "binary"),
                         [](const auto& info) { return info.param; });

TEST(IngestRangeErrorsTest, RejectsMisalignedBeginAndMidStreamOffGridShards) {
  const data::CategoricalTable table =
      *data::census::MakeDataset(2 * kChunk, 5);
  auto mechanism = *core::DetGdMechanism::Create(table.schema(), 19.0);
  const IndexFn perturb = [&](const data::ShardView& shard, size_t threads,
                              core::ShardIndexes& out) {
    return core::PerturbIntoIndex(*mechanism, shard, kSeed, threads, out);
  };

  // Refused before any shard reaches the index function.
  size_t calls = 0;
  const IndexFn count_calls = [&calls](const data::ShardView&, size_t,
                                       core::ShardIndexes&) {
    ++calls;
    return Status::OK();
  };
  InMemoryTableSource in_memory(table, 0);
  EXPECT_EQ(
      IngestRange(in_memory, {100, kOpenEnd}, 1, count_calls).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 0u);

  // Only the stream's last shard may end off the chunk grid.
  ScriptedSource off_grid(table, {{0, 100}, {kChunk, 2 * kChunk}});
  EXPECT_EQ(IngestRange(off_grid, {0, kOpenEnd}, 1, perturb).status().code(),
            StatusCode::kFailedPrecondition);
  ScriptedSource off_grid_last(table, {{0, kChunk}, {kChunk, kChunk + 100}});
  EXPECT_TRUE(IngestRange(off_grid_last, {0, kOpenEnd}, 1, perturb).ok());
}

}  // namespace
}  // namespace pipeline
}  // namespace frapp
