// Property tests of the dependent-column perturbation algorithm across
// schema shapes: for EVERY shape, perturbing a fixed record many times must
// reproduce [d on the record, o elsewhere] over the joint domain, including
// degenerate shapes (single attribute, cardinality-1 attributes, many tiny
// attributes) and the randomized d < o regime.

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "frapp/core/gamma_diagonal.h"
#include "frapp/data/domain_index.h"

namespace frapp {
namespace core {
namespace {

struct ShapeCase {
  std::vector<size_t> cardinalities;
  const char* name;
};

// Prints the case by name. The default printer dumps the struct's raw bytes,
// which hold pointers, so test names would change from build to build.
void PrintTo(const ShapeCase& c, std::ostream* os) { *os << c.name; }

class PerturberShapeTest : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(PerturberShapeTest, EmpiricalDistributionMatchesMatrixColumn) {
  const std::vector<size_t>& cards = GetParam().cardinalities;
  uint64_t n = 1;
  for (size_t c : cards) n *= c;
  ASSERT_GE(n, 2u);

  const double gamma = 5.0;
  const double x = 1.0 / (gamma + static_cast<double>(n) - 1.0);

  // A fixed non-trivial record: last category of each attribute.
  std::vector<uint8_t> record(cards.size());
  for (size_t j = 0; j < cards.size(); ++j) {
    record[j] = static_cast<uint8_t>(cards[j] - 1);
  }

  // Joint index of the record and the mixed-radix encoding of outputs.
  const auto encode = [&](const std::vector<uint8_t>& values) {
    uint64_t index = 0;
    for (size_t j = 0; j < cards.size(); ++j) {
      index = index * cards[j] + values[j];
    }
    return index;
  };
  const uint64_t u = encode(record);

  random::Pcg64 rng(1000 + n);
  const int trials = 120000;
  std::vector<int> counts(n, 0);
  std::vector<uint8_t> out;
  for (int t = 0; t < trials; ++t) {
    PerturbRecordDiagonalForm(record, cards, n, gamma * x, x, rng, &out);
    ++counts[encode(out)];
  }
  for (uint64_t v = 0; v < n; ++v) {
    const double expected = (v == u) ? gamma * x : x;
    EXPECT_NEAR(static_cast<double>(counts[v]) / trials, expected, 0.006)
        << GetParam().name << " v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PerturberShapeTest,
    ::testing::Values(ShapeCase{{8}, "single-attribute"},
                      ShapeCase{{2, 2, 2}, "boolean-triple"},
                      ShapeCase{{1, 5, 1, 2}, "with-cardinality-one"},
                      ShapeCase{{2, 3, 4}, "mixed"},
                      ShapeCase{{2, 2, 2, 2, 2}, "many-tiny"}),
    [](const ::testing::TestParamInfo<ShapeCase>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(PerturberInvertedRegimeTest, DiagonalBelowOffDiagonalStillCorrect) {
  // RAN-GD realizations can have d < o (the record is LESS likely to stay
  // than to move to any particular other value). The column sampler must
  // still match the matrix.
  const std::vector<size_t> cards = {2, 3};
  const uint64_t n = 6;
  const double o = 0.18;               // 5 off-diagonal entries
  const double d = 1.0 - 5.0 * o;      // 0.1 < o
  ASSERT_LT(d, o);
  const std::vector<uint8_t> record = {1, 1};

  random::Pcg64 rng(77);
  const int trials = 200000;
  std::vector<int> counts(n, 0);
  std::vector<uint8_t> out;
  for (int t = 0; t < trials; ++t) {
    PerturbRecordDiagonalForm(record, cards, n, d, o, rng, &out);
    ++counts[out[0] * 3 + out[1]];
  }
  for (uint64_t v = 0; v < n; ++v) {
    const double expected = (v == 1 * 3 + 1) ? d : o;
    EXPECT_NEAR(static_cast<double>(counts[v]) / trials, expected, 0.005);
  }
}

TEST(PerturberBoundaryTest, ZeroDiagonalNeverKeepsTheRecord) {
  // alpha = gamma x boundary of RAN-GD: d = 0 exactly.
  const std::vector<size_t> cards = {2, 2};
  const uint64_t n = 4;
  const double o = 1.0 / 3.0;
  const std::vector<uint8_t> record = {0, 1};
  random::Pcg64 rng(5);
  std::vector<uint8_t> out;
  for (int t = 0; t < 20000; ++t) {
    PerturbRecordDiagonalForm(record, cards, n, 0.0, o, rng, &out);
    EXPECT_FALSE(out == record);
  }
}

}  // namespace
}  // namespace core
}  // namespace frapp
