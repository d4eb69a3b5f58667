// The seeded-chunk stream pins: known-answer values of the per-chunk PCG64
// streams, the fused perturb-into-bitmaps path of every categorical
// mechanism against perturb-then-index on the same shard views, and the
// boolean mechanisms' plane path against the transpose of their row-form
// oracle.

#include "frapp/core/seeded_chunking.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "frapp/core/mechanism.h"
#include "frapp/data/boolean_view.h"
#include "frapp/data/census.h"
#include "frapp/mining/vertical_index.h"
#include "one_hot_planes.h"

namespace frapp {
namespace core {
namespace {

using internal::ChunkRng;
using internal::kPerturbChunkRows;

// First 16 outputs of each draw for two (seed, chunk) pairs. Every seeded
// perturbation, golden fixture and count store depends on these streams;
// a change here is a seeded-output break (see docs/MECHANISMS.md).
struct KnownStream {
  uint64_t seed;
  size_t chunk;
  uint64_t next[16];
  uint64_t bounded7[16];
  double unit[16];
};

const KnownStream kKnownStreams[] = {
    {7,
     0,
     {0x447d96c79b7d2580ULL, 0x32159beb333dc3feULL, 0x4d60908b2fed176eULL,
      0xbb9367bba2274432ULL, 0x76d5cfafb9bb3732ULL, 0x0daa7acf05c14d0dULL,
      0xb211cfbdd1b3fe3eULL, 0xb878eed50d08c9dcULL, 0x8485965a85d1db73ULL,
      0x748576fde8170a4eULL, 0x9d530aa63df1069fULL, 0x30c15cc5b260b080ULL,
      0x11777518f08d6960ULL, 0x4b59f9e23904698aULL, 0x091191b8a6726f0eULL,
      0x46386af8fc123553ULL},
     {1, 1, 2, 5, 3, 0, 4, 5, 3, 3, 4, 1, 0, 2, 0, 1},
     {0x1.11f65b1e6df48p-2, 0x1.90acdf5999eep-3, 0x1.3582422cbfb44p-2,
      0x1.7726cf77444e8p-1, 0x1.db573ebee6eccp-2, 0x1.b54f59e0b829p-5,
      0x1.64239f7ba367fp-1, 0x1.70f1ddaa1a119p-1, 0x1.090b2cb50ba3bp-1,
      0x1.d215dbf7a05c2p-2, 0x1.3aa6154c7be2p-1, 0x1.860ae62d93058p-3,
      0x1.1777518f08d68p-4, 0x1.2d67e788e411ap-2, 0x1.22323714ce4dp-5,
      0x1.18e1abe3f048cp-2}},
    {0x5eed,
     13,
     {0x3a48e533d57786d5ULL, 0x4e85013596562abdULL, 0x3c04bf106a9f9f64ULL,
      0x4bcb0ea5ddb02830ULL, 0xc20d0ae66e99b497ULL, 0x5dc8cf48952a00d3ULL,
      0x06339c7a8bb2d862ULL, 0xc233b72a0ae96c84ULL, 0xd84b4fd1390ca2f4ULL,
      0xc6be61160e184d3dULL, 0x0468e29f036dc71cULL, 0x8684204c27d93e87ULL,
      0x65df6e785ebbf0d6ULL, 0xc88c7f6191f43c9eULL, 0x1c23958d69a89162ULL,
      0xab84037f56c47ee9ULL},
     {1, 2, 1, 2, 5, 2, 0, 5, 5, 5, 0, 3, 2, 5, 0, 4},
     {0x1.d247299eabbcp-3, 0x1.3a1404d65958ap-2, 0x1.e025f88354fccp-3,
      0x1.2f2c3a9776c0ap-2, 0x1.841a15ccdd336p-1, 0x1.77233d2254a8p-2,
      0x1.8ce71ea2ecb6p-6, 0x1.84676e5415d2dp-1, 0x1.b0969fa272194p-1,
      0x1.8d7cc22c1c309p-1, 0x1.1a38a7c0db7p-6, 0x1.0d0840984fb27p-1,
      0x1.977db9e17aefcp-2, 0x1.9118fec323e87p-1, 0x1.c23958d69a89p-4,
      0x1.570806fead88fp-1}},
};

TEST(SeededChunkingTest, ChunkStreamsMatchKnownAnswers) {
  for (const KnownStream& known : kKnownStreams) {
    SCOPED_TRACE(known.chunk);
    random::Pcg64 next = ChunkRng(known.seed, known.chunk);
    random::Pcg64 bounded = ChunkRng(known.seed, known.chunk);
    random::Pcg64 unit = ChunkRng(known.seed, known.chunk);
    for (size_t i = 0; i < 16; ++i) {
      EXPECT_EQ(next.Next(), known.next[i]) << i;
      EXPECT_EQ(bounded.NextBounded(7), known.bounded7[i]) << i;
      EXPECT_EQ(unit.NextDouble(), known.unit[i]) << i;
    }
  }
}

class FusedShardIndexTest : public ::testing::Test {
 protected:
  static constexpr double kGamma = 19.0;
  static constexpr uint64_t kSeed = 23;
  // Three whole chunks and a partial fourth.
  static constexpr size_t kRows = 3 * kPerturbChunkRows + 1000;

  static void SetUpTestSuite() {
    table_ = new data::CategoricalTable(*data::census::MakeDataset(kRows, 5));
  }
  static void TearDownTestSuite() {
    delete table_;
    table_ = nullptr;
  }

  static std::vector<std::unique_ptr<Mechanism>> CategoricalMechanisms() {
    const data::CategoricalSchema& schema = table_->schema();
    const double x =
        1.0 / (kGamma + static_cast<double>(schema.DomainSize()) - 1.0);
    std::vector<std::unique_ptr<Mechanism>> out;
    out.push_back(*DetGdMechanism::Create(schema, kGamma));
    out.push_back(*RanGdMechanism::Create(schema, kGamma, kGamma * x / 2.0));
    out.push_back(*IndependentColumnMechanism::Create(schema, kGamma));
    return out;
  }

  static data::CategoricalTable* table_;
};

data::CategoricalTable* FusedShardIndexTest::table_ = nullptr;

TEST_F(FusedShardIndexTest, BitmapsEqualIndexOfPerturbedRows) {
  const size_t c = kPerturbChunkRows;
  std::vector<data::ShardView> views = {
      // The whole table, ending in a partial chunk.
      {table_, {0, kRows}, 0},
      // A chunk-aligned partition of it.
      {table_, {0, c}, 0},
      {table_, {c, 3 * c}, c},
      {table_, {3 * c, kRows}, 3 * c},
      // A buffer window: rows start mid-buffer, at a later global chunk,
      // and end mid-chunk.
      {table_, {100, 100 + 2 * c + 500}, 5 * c},
      // The same rows as one chunk further along the stream.
      {table_, {c, 2 * c}, 7 * c},
  };
  for (const auto& mechanism : CategoricalMechanisms()) {
    for (const data::ShardView& view : views) {
      for (size_t threads : {1, 2, 4}) {
        SCOPED_TRACE(mechanism->name() + " local [" +
                     std::to_string(view.local.begin) + ", " +
                     std::to_string(view.local.end) + ") global " +
                     std::to_string(view.global_begin) + " threads " +
                     std::to_string(threads));
        StatusOr<data::CategoricalTable> rows =
            mechanism->PerturbShard(view, kSeed, threads);
        ASSERT_TRUE(rows.ok()) << rows.status().ToString();
        const mining::VerticalIndex expected =
            mining::VerticalIndex::Build(*rows);
        StatusOr<mining::VerticalIndex> fused =
            mechanism->PerturbShardIndex(view, kSeed, threads);
        ASSERT_TRUE(fused.ok()) << fused.status().ToString();
        EXPECT_EQ(fused->num_rows(), view.size());
        EXPECT_EQ(fused->raw_bits(), expected.raw_bits());
      }
    }
  }
}

TEST_F(FusedShardIndexTest, RejectsWhatThePerturbedRowsPathRejects) {
  const data::ShardView off_grid{table_, {0, 100}, 100};
  const data::CategoricalSchema other = *data::CategoricalSchema::Create(
      {{"a", {"0", "1"}}, {"b", {"0", "1", "2"}}});
  const data::CategoricalTable wrong_shape = *data::CategoricalTable::Create(other);
  const data::ShardView mismatched{&wrong_shape, {0, 0}, 0};
  for (const auto& mechanism : CategoricalMechanisms()) {
    SCOPED_TRACE(mechanism->name());
    EXPECT_FALSE(mechanism->PerturbShardIndex(off_grid, kSeed, 1).ok());
    EXPECT_FALSE(mechanism->PerturbShard(off_grid, kSeed, 1).ok());
    EXPECT_FALSE(mechanism->PerturbShardIndex(mismatched, kSeed, 1).ok());
    EXPECT_FALSE(mechanism->PerturbShard(mismatched, kSeed, 1).ok());
  }
  auto mask = *MaskMechanism::Create(table_->schema(), kGamma);
  EXPECT_EQ(mask->PerturbShard({table_, {0, kRows}, 0}, kSeed, 1)
                .status()
                .code(),
            StatusCode::kUnimplemented);
}

// The row-form oracle of a boolean mechanism's shard: one-hot rows,
// perturbed by the scheme's PerturbShardSeeded, then transposed.
template <typename Scheme>
std::vector<uint64_t> OracleBits(const Scheme& scheme,
                                 const data::ShardView& view, uint64_t seed,
                                 size_t threads) {
  const data::BooleanTable onehot =
      *data::BooleanTable::FromCategoricalRange(*view.rows, view.local);
  StatusOr<data::BooleanTable> perturbed =
      scheme.PerturbShardSeeded(onehot, view.global_begin, seed, threads);
  EXPECT_TRUE(perturbed.ok()) << perturbed.status().ToString();
  if (!perturbed.ok()) return {};
  return OneHotPlanes(*perturbed, view.rows->schema()).raw_bits();
}

TEST_F(FusedShardIndexTest, BooleanPlanesEqualTransposeOfRowOracle) {
  const size_t c = kPerturbChunkRows;
  auto mask = *MaskMechanism::Create(table_->schema(), kGamma);
  auto cut_paste = *CutPasteMechanism::Create(table_->schema(), 3, 0.494);
  const std::vector<data::ShardView> views = {
      // The whole table; its last chunk ends mid-word (1000 = 15 * 64 + 40).
      {table_, {0, kRows}, 0},
      // A chunk-aligned partition of it.
      {table_, {0, c}, 0},
      {table_, {c, 3 * c}, c},
      {table_, {3 * c, kRows}, 3 * c},
      // Rows from mid-buffer at a later chunk, ending mid-chunk and mid-word.
      {table_, {100, 100 + 2 * c + 500}, 5 * c},
      // A 100-row shard: one partial chunk, two words.
      {table_, {7, 107}, 2 * c},
  };
  for (const uint64_t seed : {kSeed, uint64_t{3}}) {
    for (const data::ShardView& view : views) {
      for (const size_t threads : {1, 3}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " local [" +
                     std::to_string(view.local.begin) + ", " +
                     std::to_string(view.local.end) + ") global " +
                     std::to_string(view.global_begin) + " threads " +
                     std::to_string(threads));
        StatusOr<mining::VerticalIndex> mask_index =
            mask->PerturbShardIndex(view, seed, threads);
        ASSERT_TRUE(mask_index.ok()) << mask_index.status().ToString();
        EXPECT_EQ(mask_index->num_rows(), view.size());
        EXPECT_EQ(mask_index->raw_bits(),
                  OracleBits(mask->scheme(), view, seed, threads));
        StatusOr<mining::VerticalIndex> cp_index =
            cut_paste->PerturbShardIndex(view, seed, threads);
        ASSERT_TRUE(cp_index.ok()) << cp_index.status().ToString();
        EXPECT_EQ(cp_index->num_rows(), view.size());
        EXPECT_EQ(cp_index->raw_bits(),
                  OracleBits(cut_paste->scheme(), view, seed, threads));
      }
    }
  }
}

TEST_F(FusedShardIndexTest, BooleanPlanesRejectWhatTheRowOracleRejects) {
  auto mask = *MaskMechanism::Create(table_->schema(), kGamma);
  auto cut_paste = *CutPasteMechanism::Create(table_->schema(), 3, 0.494);
  const data::ShardView off_grid{table_, {0, 100}, 100};
  EXPECT_EQ(mask->PerturbShardIndex(off_grid, kSeed, 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(cut_paste->PerturbShardIndex(off_grid, kSeed, 1).status().code(),
            StatusCode::kInvalidArgument);
  const data::BooleanTable onehot =
      *data::BooleanTable::FromCategoricalRange(*table_, {0, 100});
  EXPECT_FALSE(mask->scheme().PerturbShardSeeded(onehot, 100, kSeed).ok());
  EXPECT_FALSE(cut_paste->scheme().PerturbShardSeeded(onehot, 100, kSeed).ok());

  // C&P's universe is the one-hot width of the schema it was built for.
  const data::CategoricalSchema other = *data::CategoricalSchema::Create(
      {{"a", {"0", "1"}}, {"b", {"0", "1", "2"}}});
  const data::CategoricalTable narrow = *data::CategoricalTable::Create(other);
  EXPECT_FALSE(
      cut_paste->PerturbShardIndex({&narrow, {0, 0}, 0}, kSeed, 1).ok());

  // The boolean mechanisms have no categorical row form.
  EXPECT_EQ(cut_paste->PerturbShard({table_, {0, kRows}, 0}, kSeed, 1)
                .status()
                .code(),
            StatusCode::kUnimplemented);
}

}  // namespace
}  // namespace core
}  // namespace frapp
