// Very sparse stable projections (Ping Li; DESIGN.md Section 16):
//   - counter-based derivation: the sparse gate + rescale primitive, its
//     dense (sparsity = 1) bit-identity, and O(1) random access agreeing
//     with bulk generation;
//   - CSR-style kernels: Dense() reproduces StableRandomMatrix bit-for-bit
//     and the O(nnz) correlation paths match the dense walks bit-for-bit;
//   - deterministic FFT-vs-direct path selection and the resulting
//     thread-count byte-identity of sparse pools;
//   - the empirical (eps, delta) envelope of sparse families on the same
//     swept guarantee grid the dense families pass.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "core/code_kernels.h"
#include "core/estimator.h"
#include "core/lp_distance.h"
#include "core/sketch_pool.h"
#include "core/sketcher.h"
#include "core/sparse_kernel.h"
#include "core/stable_matrix.h"
#include "fft/correlate.h"
#include "rng/stable.h"
#include "rng/xoshiro256.h"
#include "table/matrix.h"

namespace tabsketch {
namespace {

table::Matrix RandomTable(size_t rows, size_t cols, uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  table::Matrix out(rows, cols);
  for (double& v : out.Values()) v = gen.NextDouble() * 20.0 - 10.0;
  return out;
}

// --- counter-based derivation -----------------------------------------------

TEST(SparseStableTest, DenseSparsityIsBitIdenticalToDenseDraw) {
  // sparsity = 1 must short-circuit to the legacy dense draw, bit for bit:
  // every pre-sparsity family is the sparsity = 1 case of the new tier.
  for (const double alpha : {0.5, 1.0, 1.3, 2.0}) {
    for (uint64_t seed = 0; seed < 64; ++seed) {
      EXPECT_EQ(rng::SampleSparseStableAt(alpha, 1.0, seed),
                rng::SampleStableAt(alpha, seed))
          << "alpha=" << alpha << " seed=" << seed;
    }
  }
}

TEST(SparseStableTest, NonzeroDrawsAreRescaledDenseDraws) {
  // A surviving entry is the dense draw times sparsity^(-1/alpha); nothing
  // else about the value changes, so magnitude and membership stay
  // independently derived from the seed.
  const double alpha = 1.0, sparsity = 0.3;
  const double rescale = std::pow(sparsity, -1.0 / alpha);
  size_t nonzero = 0;
  constexpr uint64_t kSeeds = 20000;
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    const double value = rng::SampleSparseStableAt(alpha, sparsity, seed);
    if (value == 0.0) continue;
    ++nonzero;
    EXPECT_DOUBLE_EQ(value, rng::SampleStableAt(alpha, seed) * rescale);
  }
  // Support frequency tracks the gate probability (binomial noise on 20000
  // draws is ~0.3% at this level).
  const double rate = static_cast<double>(nonzero) / kSeeds;
  EXPECT_NEAR(rate, sparsity, 0.02);
}

TEST(SparseStableTest, RandomAccessMatchesBulkGeneration) {
  // StableEntry (the O(1) random-access primitive behind streaming updates)
  // and StableRandomMatrix (bulk generation) must agree bit-for-bit for
  // sparse families, exactly as they do for dense ones.
  const core::SketchParams params{
      .p = 1.0, .k = 3, .seed = 99, .sparsity = 0.2};
  for (size_t index = 0; index < params.k; ++index) {
    const table::Matrix bulk =
        core::StableRandomMatrix(params, index, 6, 9);
    for (size_t r = 0; r < 6; ++r) {
      for (size_t c = 0; c < 9; ++c) {
        EXPECT_EQ(core::StableEntry(params, index, 6, 9, r, c),
                  bulk.At(r, c))
            << "index=" << index << " (" << r << "," << c << ")";
      }
    }
  }
}

// --- CSR kernels ------------------------------------------------------------

TEST(SparseKernelTest, DenseReconstructionIsBitIdentical) {
  const core::SketchParams params{
      .p = 1.5, .k = 4, .seed = 7, .sparsity = 0.25};
  for (size_t index = 0; index < params.k; ++index) {
    const core::SparseKernel kernel =
        core::SparseStableKernel(params, index, 8, 8);
    const table::Matrix dense = kernel.Dense();
    const table::Matrix bulk = core::StableRandomMatrix(params, index, 8, 8);
    ASSERT_EQ(dense.rows(), bulk.rows());
    ASSERT_EQ(dense.cols(), bulk.cols());
    for (size_t r = 0; r < 8; ++r) {
      for (size_t c = 0; c < 8; ++c) {
        EXPECT_EQ(dense.At(r, c), bulk.At(r, c));
      }
    }
  }
}

TEST(SparseKernelTest, DenseFamilyKernelKeepsEveryEntry) {
  const core::SketchParams params{.p = 1.0, .k = 1, .seed = 3};
  const core::SparseKernel kernel =
      core::SparseStableKernel(params, 0, 5, 4);
  // SaS draws are continuous: a dense family's kernel is all-nonzero.
  EXPECT_EQ(kernel.nnz(), 20u);
}

TEST(SparseKernelTest, SparseCorrelationMatchesNaiveDenseBitForBit) {
  // The documented contract: per output element the sparse walk accumulates
  // in row-major storage order, so skipping exact zeros gives the same bits
  // as the dense naive correlation.
  const core::SketchParams params{
      .p = 1.0, .k = 2, .seed = 21, .sparsity = 0.3};
  const table::Matrix data = RandomTable(12, 10, 5);
  for (size_t index = 0; index < params.k; ++index) {
    const core::SparseKernel kernel =
        core::SparseStableKernel(params, index, 3, 4);
    const table::Matrix sparse = core::CrossCorrelateSparse(data, kernel);
    const table::Matrix naive =
        fft::CrossCorrelateNaive(data, kernel.Dense());
    ASSERT_EQ(sparse.rows(), naive.rows());
    ASSERT_EQ(sparse.cols(), naive.cols());
    for (size_t r = 0; r < sparse.rows(); ++r) {
      for (size_t c = 0; c < sparse.cols(); ++c) {
        EXPECT_EQ(sparse.At(r, c), naive.At(r, c))
            << "index=" << index << " (" << r << "," << c << ")";
      }
    }
  }
}

TEST(SparseKernelTest, PathSelectionIsDeterministicInSizesOnly) {
  // A near-empty kernel over many positions beats the FFT; a full kernel
  // over a padded grid does not. The rule depends only on (nnz, positions,
  // data shape) — asserting both directions pins the cost model's sign.
  EXPECT_TRUE(core::PreferSparsePath(/*nnz=*/2, /*positions=*/100, 64, 64));
  EXPECT_FALSE(
      core::PreferSparsePath(/*nnz=*/4096, /*positions=*/3969, 64, 64));
  // Same inputs, same answer: the selection is a pure function.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(core::PreferSparsePath(2, 100, 64, 64));
  }
}

// --- sketcher integration ---------------------------------------------------

TEST(SparseSketcherTest, SketchOfMatchesDenseKernelWalk) {
  // A sparse family's single-tile sketch equals the row-major dot product
  // against the densified kernels, bit for bit, and so equals the dense
  // position-major kernel (kernels::SketchDots) run over those kernels. k=33
  // leaves a one-kernel partial chunk after the 32-wide one.
  struct Case {
    size_t k, rows, cols;
  };
  for (const Case& tc : {Case{5, 7, 9}, Case{33, 5, 11}}) {
    const core::SketchParams params{
        .p = 0.5, .k = tc.k, .seed = 17, .sparsity = 0.4};
    auto sketcher = core::Sketcher::Create(params);
    ASSERT_TRUE(sketcher.ok());
    const table::Matrix data = RandomTable(tc.rows, tc.cols, 11);
    const core::Sketch sketch = sketcher->SketchOf(data.View());
    ASSERT_EQ(sketch.size(), params.k);
    const size_t positions = tc.rows * tc.cols;
    std::vector<double> position_major(positions * params.k);
    for (size_t i = 0; i < params.k; ++i) {
      const table::Matrix dense =
          core::SparseStableKernel(params, i, tc.rows, tc.cols).Dense();
      double acc = 0.0;
      for (size_t r = 0; r < tc.rows; ++r) {
        for (size_t c = 0; c < tc.cols; ++c) {
          acc += data.At(r, c) * dense.At(r, c);
        }
      }
      EXPECT_EQ(sketch.values[i], acc) << "k=" << tc.k << " component " << i;
      for (size_t pos = 0; pos < positions; ++pos) {
        position_major[pos * params.k + i] = dense.Values()[pos];
      }
    }
    std::vector<double> dense_path(params.k);
    core::kernels::SketchDots(data.Values().data(), tc.rows, tc.cols,
                              tc.cols, position_major.data(), params.k,
                              dense_path.data());
    EXPECT_EQ(std::memcmp(dense_path.data(), sketch.values.data(),
                          params.k * sizeof(double)),
              0)
        << "k=" << tc.k;
  }
}

struct SparseFieldCase {
  double sparsity;
  uint64_t seed;
  size_t rows, cols, window_rows, window_cols;
};

void ExpectAllAlgorithmsAgree(const SparseFieldCase& tc) {
  const core::SketchParams params{
      .p = 1.0, .k = 6, .seed = tc.seed, .sparsity = tc.sparsity};
  auto sketcher = core::Sketcher::Create(params);
  ASSERT_TRUE(sketcher.ok());
  const table::Matrix data = RandomTable(tc.rows, tc.cols, 31);
  auto field = [&](core::SketchAlgorithm algorithm) {
    return sketcher->SketchAllPositions(data, tc.window_rows, tc.window_cols,
                                        algorithm);
  };
  auto naive = field(core::SketchAlgorithm::kNaive);
  auto fft = field(core::SketchAlgorithm::kFft);
  auto auto_path = field(core::SketchAlgorithm::kAuto);
  ASSERT_TRUE(naive.ok() && fft.ok() && auto_path.ok());
  for (size_t r = 0; r < naive->position_rows(); ++r) {
    for (size_t c = 0; c < naive->position_cols(); ++c) {
      const core::Sketch sn = naive->SketchAt(r, c);
      const core::Sketch sf = fft->SketchAt(r, c);
      const core::Sketch sa = auto_path->SketchAt(r, c);
      for (size_t i = 0; i < params.k; ++i) {
        EXPECT_NEAR(sf.values[i], sn.values[i], 1e-9)
            << tc.rows << "x" << tc.cols << " at (" << r << "," << c << ")";
        EXPECT_NEAR(sa.values[i], sn.values[i], 1e-9)
            << tc.rows << "x" << tc.cols << " at (" << r << "," << c << ")";
      }
    }
  }
}

TEST(SparseSketcherTest, AllAlgorithmsAgreeOnSparseFields) {
  ExpectAllAlgorithmsAgree({0.15, 29, 24, 20, 4, 5});
}

TEST(SparseSeriesSketcherTest, AllAlgorithmsAgreeOnSparseFields) {
  // A time series is a 1 x n table: series windows are 1 x n windows of the
  // same 2-D family.
  ExpectAllAlgorithmsAgree({0.2, 41, 1, 160, 1, 12});
}

// --- pool byte-identity across thread counts --------------------------------

TEST(SparsePoolTest, BuildIsBitIdenticalAcrossThreadCounts) {
  // Path selection depends only on sizes and nnz, and each (size, kernel)
  // work item is computed identically regardless of which worker runs it —
  // so the pool's bytes cannot depend on the thread count.
  const table::Matrix data = RandomTable(32, 32, 47);
  const core::SketchParams params{
      .p = 1.0, .k = 8, .seed = 53, .sparsity = 0.1};
  core::PoolOptions options;
  options.log2_min_rows = 2;
  options.log2_min_cols = 2;
  options.threads = 1;
  auto reference = core::SketchPool::Build(data, params, options);
  ASSERT_TRUE(reference.ok());
  for (const size_t threads : {2u, 3u, 8u}) {
    options.threads = threads;
    auto pool = core::SketchPool::Build(data, params, options);
    ASSERT_TRUE(pool.ok());
    ASSERT_EQ(pool->CanonicalSizes(), reference->CanonicalSizes());
    for (const auto& [shape, field] : reference->fields()) {
      const auto it = pool->fields().find(shape);
      ASSERT_NE(it, pool->fields().end());
      for (size_t plane = 0; plane < field.k(); ++plane) {
        const auto got = it->second.plane(plane).Values();
        const auto want = field.plane(plane).Values();
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i], want[i])
              << "threads=" << threads << " plane=" << plane << " i=" << i;
        }
      }
    }
  }
}

TEST(SparsePoolTest, SparseQueriesStayComparableToDirectSketches) {
  // Canonical pool sketches of a sparse family must equal the single-tile
  // sketcher's output for the same window — the cross-producer invariant
  // that makes pools, saved sketch sets and on-demand sketching mutually
  // comparable within one family.
  const table::Matrix data = RandomTable(16, 16, 59);
  const core::SketchParams params{
      .p = 1.0, .k = 4, .seed = 61, .sparsity = 0.3};
  core::PoolOptions options;
  options.log2_min_rows = 2;
  options.log2_min_cols = 2;
  auto pool = core::SketchPool::Build(data, params, options);
  auto sketcher = core::Sketcher::Create(params);
  ASSERT_TRUE(pool.ok() && sketcher.ok());
  auto canonical = pool->CanonicalSketchAt(3, 5, 4, 4);
  ASSERT_TRUE(canonical.ok());
  const core::Sketch direct = sketcher->SketchOf(data.Window(3, 5, 4, 4));
  for (size_t i = 0; i < params.k; ++i) {
    EXPECT_NEAR(canonical->values[i], direct.values[i], 1e-9) << i;
  }
}

// --- (eps, delta) envelope on the swept guarantee grid ----------------------

/// Sparse counterpart of guarantees_test.cc's EpsilonDeltaGridTest: the same
/// coverage demand, swept over (p, sparsity). Li's analysis (DESIGN.md
/// Section 16) bounds the extra estimator noise of a sparsity-s family by
/// s^(-1/2) in the eps constant for data whose mass is spread over many
/// cells, so the demanded band is eps = C(p)/sqrt(k) * s^(-1/2). For the
/// spread-out random tables used here the empirical inflation is far
/// smaller; the test pins the guarantee, not the typical case.
class SparseEpsilonDeltaGridTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(SparseEpsilonDeltaGridTest, CoverageMeetsDelta) {
  const double p = std::get<0>(GetParam());
  const double sparsity = std::get<1>(GetParam());
  constexpr size_t kK = 400;
  const double c = (p < 0.75) ? 6.0 : 4.0;
  const double eps =
      c / std::sqrt(static_cast<double>(kK)) / std::sqrt(sparsity);
  constexpr int kTrials = 120;
  constexpr double kDelta = 0.15;  // 1 - delta = 85% demanded coverage

  rng::Xoshiro256 gen(2027);
  table::Matrix x(12, 12), y(12, 12);
  for (double& v : x.Values()) v = gen.NextDouble() * 100.0;
  for (double& v : y.Values()) v = gen.NextDouble() * 100.0;
  const double exact = core::LpDistance(x.View(), y.View(), p);

  int inside = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    core::SketchParams params{.p = p, .k = kK,
                              .seed = 7000 + static_cast<uint64_t>(trial),
                              .sparsity = sparsity};
    auto sketcher = core::Sketcher::Create(params);
    auto estimator = core::DistanceEstimator::Create(params);
    ASSERT_TRUE(sketcher.ok() && estimator.ok());
    const double approx = estimator->Estimate(
        sketcher->SketchOf(x.View()), sketcher->SketchOf(y.View()));
    if (std::fabs(approx / exact - 1.0) <= eps) ++inside;
  }
  EXPECT_GE(static_cast<double>(inside) / kTrials, 1.0 - kDelta)
      << "p=" << p << " sparsity=" << sparsity << " eps=" << eps;
}

INSTANTIATE_TEST_SUITE_P(
    PsGrid, SparseEpsilonDeltaGridTest,
    ::testing::Combine(::testing::Values(0.5, 1.0, 2.0),
                       ::testing::Values(0.5, 0.1)),
    [](const auto& info) {
      const double p = std::get<0>(info.param);
      const double s = std::get<1>(info.param);
      std::string name = "p";
      name += (p == 0.5) ? "05" : (p == 1.0 ? "1" : "2");
      name += (s == 0.5) ? "s05" : "s01";
      return name;
    });

}  // namespace
}  // namespace tabsketch
