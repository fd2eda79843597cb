#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/estimator.h"
#include "core/lp_distance.h"
#include "core/sketcher.h"
#include "core/stable_matrix.h"
#include "rng/xoshiro256.h"
#include "table/matrix.h"

namespace tabsketch::core {
namespace {

table::Matrix RandomTable(size_t rows, size_t cols, uint64_t seed,
                          double scale = 100.0) {
  rng::Xoshiro256 gen(seed);
  table::Matrix out(rows, cols);
  for (double& value : out.Values()) value = gen.NextDouble() * scale;
  return out;
}

TEST(StableMatrixTest, DeterministicRegeneration) {
  SketchParams params{.p = 1.0, .k = 4, .seed = 99};
  const table::Matrix a = StableRandomMatrix(params, 2, 8, 8);
  const table::Matrix b = StableRandomMatrix(params, 2, 8, 8);
  EXPECT_TRUE(a == b);
}

TEST(StableMatrixTest, DistinctIndicesDiffer) {
  SketchParams params{.p = 1.0, .k = 4, .seed = 99};
  const table::Matrix a = StableRandomMatrix(params, 0, 8, 8);
  const table::Matrix b = StableRandomMatrix(params, 1, 8, 8);
  EXPECT_FALSE(a == b);
}

TEST(StableMatrixTest, DistinctShapesAndSeedsDiffer) {
  SketchParams params{.p = 1.0, .k = 4, .seed = 99};
  SketchParams other = params;
  other.seed = 100;
  EXPECT_NE(StableMatrixSeed(params.seed, 0, 8, 8),
            StableMatrixSeed(other.seed, 0, 8, 8));
  EXPECT_NE(StableMatrixSeed(params.seed, 0, 8, 8),
            StableMatrixSeed(params.seed, 0, 8, 16));
  EXPECT_NE(StableMatrixSeed(params.seed, 0, 8, 8),
            StableMatrixSeed(params.seed, 0, 16, 8));
}

TEST(StableMatrixTest, BatchMatchesIndividual) {
  SketchParams params{.p = 0.5, .k = 3, .seed = 7};
  const auto batch = StableRandomMatrices(params, 4, 6);
  ASSERT_EQ(batch.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(batch[i] == StableRandomMatrix(params, i, 4, 6));
  }
}

TEST(SketchTest, AddAndScale) {
  Sketch a{{1.0, 2.0, 3.0}};
  Sketch b{{10.0, 20.0, 30.0}};
  a.Add(b);
  EXPECT_EQ(a.values, (std::vector<double>{11.0, 22.0, 33.0}));
  a.Scale(0.5);
  EXPECT_EQ(a.values, (std::vector<double>{5.5, 11.0, 16.5}));
}

TEST(SketcherTest, CreateValidatesParams) {
  EXPECT_FALSE(Sketcher::Create({.p = 0.0, .k = 8, .seed = 1}).ok());
  EXPECT_FALSE(Sketcher::Create({.p = 2.5, .k = 8, .seed = 1}).ok());
  EXPECT_FALSE(Sketcher::Create({.p = 1.0, .k = 0, .seed = 1}).ok());
  EXPECT_TRUE(Sketcher::Create({.p = 1.0, .k = 8, .seed = 1}).ok());
}

TEST(SketcherTest, SketchHasLengthK) {
  auto sketcher = Sketcher::Create({.p = 1.0, .k = 13, .seed = 5});
  ASSERT_TRUE(sketcher.ok());
  const table::Matrix data = RandomTable(8, 8, 3);
  EXPECT_EQ(sketcher->SketchOf(data.View()).size(), 13u);
}

TEST(SketcherTest, SketchIsDeterministic) {
  SketchParams params{.p = 1.0, .k = 8, .seed = 5};
  auto s1 = Sketcher::Create(params);
  auto s2 = Sketcher::Create(params);
  ASSERT_TRUE(s1.ok() && s2.ok());
  const table::Matrix data = RandomTable(8, 8, 3);
  EXPECT_EQ(s1->SketchOf(data.View()).values,
            s2->SketchOf(data.View()).values);
}

TEST(SketcherTest, SketchIsLinearInTheObject) {
  // s(X + Y) = s(X) + s(Y) and s(cX) = c s(X): dot products are linear.
  auto sketcher = Sketcher::Create({.p = 0.75, .k = 6, .seed = 21});
  ASSERT_TRUE(sketcher.ok());
  const table::Matrix x = RandomTable(6, 6, 1);
  const table::Matrix y = RandomTable(6, 6, 2);
  table::Matrix sum(6, 6);
  for (size_t i = 0; i < sum.Values().size(); ++i) {
    sum.Values()[i] = x.Values()[i] + y.Values()[i];
  }
  Sketch sx = sketcher->SketchOf(x.View());
  const Sketch sy = sketcher->SketchOf(y.View());
  const Sketch ssum = sketcher->SketchOf(sum.View());
  sx.Add(sy);
  for (size_t i = 0; i < sx.size(); ++i) {
    EXPECT_NEAR(sx.values[i], ssum.values[i], 1e-8);
  }
}

// A window shape over a table.
struct FieldCase {
  size_t rows, cols, window_rows, window_cols;
};

void ExpectFieldMatchesDirectSketches(const FieldCase& tc) {
  SketchParams params{.p = 1.0, .k = 5, .seed = 11};
  auto sketcher = Sketcher::Create(params);
  ASSERT_TRUE(sketcher.ok());
  const table::Matrix data = RandomTable(tc.rows, tc.cols, 4);
  auto field_or = sketcher->SketchAllPositions(
      data, tc.window_rows, tc.window_cols, SketchAlgorithm::kNaive);
  ASSERT_TRUE(field_or.ok());
  const SketchField& field = *field_or;
  ASSERT_EQ(field.position_rows(), data.rows() - tc.window_rows + 1);
  ASSERT_EQ(field.position_cols(), data.cols() - tc.window_cols + 1);
  for (size_t r = 0; r < field.position_rows(); r += 3) {
    for (size_t c = 0; c < field.position_cols(); c += 2) {
      const Sketch direct = sketcher->SketchOf(
          data.Window(r, c, tc.window_rows, tc.window_cols));
      const Sketch from_field = field.SketchAt(r, c);
      for (size_t i = 0; i < params.k; ++i) {
        EXPECT_NEAR(direct.values[i], from_field.values[i], 1e-8)
            << tc.rows << "x" << tc.cols << " at (" << r << "," << c
            << ") component " << i;
      }
    }
  }
}

void ExpectFftFieldMatchesNaiveField(const FieldCase& tc) {
  SketchParams params{.p = 0.5, .k = 4, .seed = 17};
  auto sketcher = Sketcher::Create(params);
  ASSERT_TRUE(sketcher.ok());
  const table::Matrix data = RandomTable(tc.rows, tc.cols, 8);
  auto naive_or = sketcher->SketchAllPositions(
      data, tc.window_rows, tc.window_cols, SketchAlgorithm::kNaive);
  auto fft_or = sketcher->SketchAllPositions(
      data, tc.window_rows, tc.window_cols, SketchAlgorithm::kFft);
  ASSERT_TRUE(naive_or.ok());
  ASSERT_TRUE(fft_or.ok());
  const SketchField& naive = *naive_or;
  const SketchField& fft = *fft_or;
  ASSERT_EQ(naive.position_rows(), fft.position_rows());
  ASSERT_EQ(naive.position_cols(), fft.position_cols());
  for (size_t i = 0; i < params.k; ++i) {
    for (size_t r = 0; r < naive.position_rows(); ++r) {
      for (size_t c = 0; c < naive.position_cols(); ++c) {
        EXPECT_NEAR(naive.plane(i).At(r, c), fft.plane(i).At(r, c), 1e-6)
            << tc.rows << "x" << tc.cols << " plane " << i << " at (" << r
            << "," << c << ")";
      }
    }
  }
}

TEST(SketcherTest, FieldMatchesDirectSketchAtEveryPosition) {
  ExpectFieldMatchesDirectSketches({12, 10, 3, 4});
}

TEST(SketcherTest, FftFieldMatchesNaiveField) {
  ExpectFftFieldMatchesNaiveField({20, 14, 4, 4});
}

// A time series is a 1 x n table: series sketches are 1 x n sketches of the
// 2-D family, so the series cases run the 2-D checks on one row.
TEST(SeriesSketcherTest, FieldMatchesDirectSketches) {
  ExpectFieldMatchesDirectSketches({1, 160, 1, 12});
}

TEST(SeriesSketcherTest, FftFieldMatchesNaiveField) {
  ExpectFftFieldMatchesNaiveField({1, 160, 1, 12});
}

TEST(SketchFieldTest, AccumulateMatchesSketchAt) {
  auto sketcher = Sketcher::Create({.p = 1.0, .k = 3, .seed = 2});
  ASSERT_TRUE(sketcher.ok());
  const table::Matrix data = RandomTable(8, 8, 5);
  auto field_or =
      sketcher->SketchAllPositions(data, 2, 2, SketchAlgorithm::kNaive);
  ASSERT_TRUE(field_or.ok());
  const SketchField& field = *field_or;
  Sketch acc;
  acc.values.assign(3, 0.0);
  field.AccumulateAt(1, 1, &acc);
  field.AccumulateAt(2, 3, &acc);
  const Sketch a = field.SketchAt(1, 1);
  const Sketch b = field.SketchAt(2, 3);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(acc.values[i], a.values[i] + b.values[i]);
  }
}

/// End-to-end accuracy sweep (paper Theorems 1-2): the estimated distance
/// between random tables should be within a modest relative error of the
/// exact Lp distance, for every p, with k = 400.
class SketchAccuracyTest : public ::testing::TestWithParam<double> {};

TEST_P(SketchAccuracyTest, EstimateTracksExactDistance) {
  const double p = GetParam();
  SketchParams params{.p = p, .k = 400, .seed = 1234};
  auto sketcher = Sketcher::Create(params);
  ASSERT_TRUE(sketcher.ok());
  auto estimator = DistanceEstimator::Create(params);
  ASSERT_TRUE(estimator.ok());

  // The median estimator's relative noise at fixed k grows as p shrinks
  // (the density of |SaS(p)| near its median flattens), so the acceptance
  // band widens for very small p.
  const double tolerance = (p < 0.5) ? 0.45 : 0.25;
  for (uint64_t trial = 0; trial < 5; ++trial) {
    const table::Matrix x = RandomTable(16, 16, 100 + trial);
    const table::Matrix y = RandomTable(16, 16, 200 + trial);
    const double exact = LpDistance(x.View(), y.View(), p);
    const double approx = estimator->Estimate(
        sketcher->SketchOf(x.View()), sketcher->SketchOf(y.View()));
    EXPECT_NEAR(approx / exact, 1.0, tolerance)
        << "p=" << p << " trial=" << trial << " exact=" << exact
        << " approx=" << approx;
  }
}

INSTANTIATE_TEST_SUITE_P(Ps, SketchAccuracyTest,
                         ::testing::Values(0.25, 0.5, 0.75, 1.0, 1.25, 1.5,
                                           1.75, 2.0));

TEST(SketchAccuracyTest, LargerKTightensTheEstimate) {
  // Average relative error over trials should shrink as k grows.
  const double p = 1.0;
  auto error_for_k = [p](size_t k) {
    SketchParams params{.p = p, .k = k, .seed = 4321};
    auto sketcher = Sketcher::Create(params);
    auto estimator = DistanceEstimator::Create(params);
    double total = 0.0;
    constexpr int kTrials = 20;
    for (int trial = 0; trial < kTrials; ++trial) {
      const table::Matrix x = RandomTable(8, 8, 300 + trial);
      const table::Matrix y = RandomTable(8, 8, 400 + trial);
      const double exact = LpDistance(x.View(), y.View(), p);
      const double approx = estimator->Estimate(
          sketcher->SketchOf(x.View()), sketcher->SketchOf(y.View()));
      total += std::fabs(approx / exact - 1.0);
    }
    return total / kTrials;
  };
  const double coarse = error_for_k(16);
  const double fine = error_for_k(1024);
  EXPECT_LT(fine, coarse);
  EXPECT_LT(fine, 0.08);
}

TEST(SketcherDeathTest, EmptyViewAborts) {
  auto sketcher = Sketcher::Create({.p = 1.0, .k = 2, .seed = 1});
  ASSERT_TRUE(sketcher.ok());
  table::TableView empty;
  EXPECT_DEATH(sketcher->SketchOf(empty), "empty subtable");
}

TEST(SketcherTest, OversizedWindowIsInvalidArgument) {
  auto sketcher = Sketcher::Create({.p = 1.0, .k = 2, .seed = 1});
  ASSERT_TRUE(sketcher.ok());
  const table::Matrix data = RandomTable(4, 4, 1);
  for (const SketchAlgorithm algorithm :
       {SketchAlgorithm::kNaive, SketchAlgorithm::kFft,
        SketchAlgorithm::kAuto}) {
    auto oversized = sketcher->SketchAllPositions(data, 5, 2, algorithm);
    ASSERT_FALSE(oversized.ok());
    EXPECT_EQ(oversized.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(oversized.status().message().find("does not fit"),
              std::string::npos);
    auto empty = sketcher->SketchAllPositions(data, 0, 2, algorithm);
    ASSERT_FALSE(empty.ok());
    EXPECT_EQ(empty.status().code(), util::StatusCode::kInvalidArgument);
  }
}

TEST(SeriesSketcherTest, OversizedWindowIsInvalidArgument) {
  // A window longer than the 1 x n series, or of length zero.
  auto sketcher = Sketcher::Create({.p = 1.0, .k = 2, .seed = 9});
  ASSERT_TRUE(sketcher.ok());
  const table::Matrix series = RandomTable(1, 16, 10);
  for (const SketchAlgorithm algorithm :
       {SketchAlgorithm::kNaive, SketchAlgorithm::kFft,
        SketchAlgorithm::kAuto}) {
    auto oversized = sketcher->SketchAllPositions(series, 1, 17, algorithm);
    ASSERT_FALSE(oversized.ok());
    EXPECT_EQ(oversized.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(oversized.status().message().find("does not fit"),
              std::string::npos)
        << oversized.status().message();
    auto zero = sketcher->SketchAllPositions(series, 1, 0, algorithm);
    ASSERT_FALSE(zero.ok());
    EXPECT_EQ(zero.status().code(), util::StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace tabsketch::core
