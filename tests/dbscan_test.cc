#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "cluster/dbscan.h"
#include "cluster/exact_backend.h"
#include "cluster/sketch_backend.h"
#include "eval/confusion.h"
#include "rng/xoshiro256.h"
#include "table/matrix.h"
#include "table/tiling.h"

namespace tabsketch::cluster {
namespace {

/// Scalar tiles (1x1) at given positions; distance = |difference|.
table::Matrix ScalarTiles(const std::vector<double>& values) {
  return table::Matrix(1, values.size(),
                       std::vector<double>(values.begin(), values.end()));
}

TEST(DbscanTest, ValidatesOptions) {
  table::Matrix data = ScalarTiles({0, 1, 2});
  auto grid = table::TileGrid::Create(&data, 1, 1);
  ASSERT_TRUE(grid.ok());
  auto backend = ExactBackend::Create(&*grid, 1.0);
  ASSERT_TRUE(backend.ok());
  EXPECT_FALSE(RunDbscan(&*backend, {.epsilon = 0.0, .min_points = 2}).ok());
  EXPECT_FALSE(RunDbscan(&*backend, {.epsilon = 1.0, .min_points = 0}).ok());
  // NaN passes a `<= 0` test, so it needs its own rejection.
  const auto nan_epsilon =
      RunDbscan(&*backend, {.epsilon = std::nan(""), .min_points = 2});
  ASSERT_FALSE(nan_epsilon.ok());
  EXPECT_EQ(nan_epsilon.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(DbscanTest, TwoDenseGroupsAndNoise) {
  // Two dense groups and one isolated point.
  table::Matrix data = ScalarTiles({0.0, 0.5, 1.0, 1.5,        // group A
                                    100.0, 100.5, 101.0,       // group B
                                    500.0});                   // noise
  auto grid = table::TileGrid::Create(&data, 1, 1);
  ASSERT_TRUE(grid.ok());
  auto backend = ExactBackend::Create(&*grid, 1.0);
  ASSERT_TRUE(backend.ok());
  auto result = RunDbscan(&*backend, {.epsilon = 1.0, .min_points = 3});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_clusters, 2u);
  EXPECT_EQ(result->num_noise, 1u);
  EXPECT_EQ(result->assignment[7], kNoiseLabel);
  // Same group -> same label; different group -> different label.
  EXPECT_EQ(result->assignment[0], result->assignment[3]);
  EXPECT_EQ(result->assignment[4], result->assignment[6]);
  EXPECT_NE(result->assignment[0], result->assignment[4]);
}

TEST(DbscanTest, ChainsConnectThroughCorePoints) {
  // A chain with spacing 1: every interior point is core (eps=1, min=3),
  // so the whole chain is one cluster despite endpoints being 8 apart.
  table::Matrix data = ScalarTiles({0, 1, 2, 3, 4, 5, 6, 7, 8});
  auto grid = table::TileGrid::Create(&data, 1, 1);
  ASSERT_TRUE(grid.ok());
  auto backend = ExactBackend::Create(&*grid, 1.0);
  ASSERT_TRUE(backend.ok());
  auto result = RunDbscan(&*backend, {.epsilon = 1.0, .min_points = 3});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_clusters, 1u);
  EXPECT_EQ(result->num_noise, 0u);
}

TEST(DbscanTest, BorderPointAttachesToFirstCluster) {
  // 2.5 is within eps of the dense group {0..2}'s edge point 2 but is not
  // itself core; it must join as a border point, not noise.
  table::Matrix data = ScalarTiles({0.0, 1.0, 2.0, 2.9, 100.0, 101.0,
                                    102.0});
  auto grid = table::TileGrid::Create(&data, 1, 1);
  ASSERT_TRUE(grid.ok());
  auto backend = ExactBackend::Create(&*grid, 1.0);
  ASSERT_TRUE(backend.ok());
  auto result = RunDbscan(&*backend, {.epsilon = 1.0, .min_points = 3});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->assignment[3], result->assignment[2]);
}

TEST(DbscanTest, AllNoiseWhenEpsilonTiny) {
  table::Matrix data = ScalarTiles({0, 10, 20, 30});
  auto grid = table::TileGrid::Create(&data, 1, 1);
  ASSERT_TRUE(grid.ok());
  auto backend = ExactBackend::Create(&*grid, 1.0);
  ASSERT_TRUE(backend.ok());
  auto result = RunDbscan(&*backend, {.epsilon = 0.5, .min_points = 2});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_clusters, 0u);
  EXPECT_EQ(result->num_noise, 4u);
}

TEST(DbscanTest, SketchBackendFindsSameClusters) {
  // Banded tiles with large separation; sketched DBSCAN must match exact.
  table::Matrix data(4, 64);
  rng::Xoshiro256 gen(5);
  for (size_t r = 0; r < 4; ++r) {
    for (size_t c = 0; c < 64; ++c) {
      const double level = (c < 32) ? 10.0 : 1000.0;
      data(r, c) = level + gen.NextDouble();
    }
  }
  auto grid = table::TileGrid::Create(&data, 4, 4);
  ASSERT_TRUE(grid.ok());

  auto exact_backend = ExactBackend::Create(&*grid, 1.0);
  auto sketch_backend = SketchBackend::Create(
      &*grid, {.p = 1.0, .k = 128, .seed = 3}, SketchMode::kPrecomputed);
  ASSERT_TRUE(exact_backend.ok() && sketch_backend.ok());

  // Same-band tile distances ~ |uniform diffs| * 16 cells << cross-band.
  const DbscanOptions options{.epsilon = 50.0, .min_points = 3};
  auto exact = RunDbscan(&*exact_backend, options);
  auto sketched = RunDbscan(&*sketch_backend, options);
  ASSERT_TRUE(exact.ok() && sketched.ok());
  EXPECT_EQ(exact->num_clusters, 2u);
  EXPECT_EQ(sketched->num_clusters, 2u);
  EXPECT_DOUBLE_EQ(
      eval::BestMatchAgreement(exact->assignment, sketched->assignment, 2),
      1.0);
}

TEST(DbscanTest, CountsDistanceEvaluations) {
  table::Matrix data = ScalarTiles({0, 1, 2});
  auto grid = table::TileGrid::Create(&data, 1, 1);
  ASSERT_TRUE(grid.ok());
  auto backend = ExactBackend::Create(&*grid, 1.0);
  ASSERT_TRUE(backend.ok());
  auto result = RunDbscan(&*backend, {.epsilon = 1.0, .min_points = 2});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->distance_evaluations, 0u);
  EXPECT_EQ(result->distance_evaluations, backend->distance_evaluations());
}

}  // namespace
}  // namespace tabsketch::cluster
