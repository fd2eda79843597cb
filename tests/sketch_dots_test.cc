// Byte identity of the dense SketchOf kernel (core/sketch_dots_inl.h,
// DESIGN.md Section 17):
//   - Sketcher::SketchOf against the kernel-major reference loop it
//     replaced, memcmp-equal over strided windows of every shape class and
//     sizes k on both sides of the 32-accumulator chunk;
//   - the dispatched kernel against the baseline-ISA copy, on ordinary and
//     special (signed zero, subnormal, overflowing, non-finite) values;
//   - concurrent first calls on a fresh shape, which race to build the
//     position-major kernel copy.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "core/code_kernels.h"
#include "core/sketcher.h"
#include "rng/xoshiro256.h"
#include "table/matrix.h"

namespace tabsketch::core {
namespace {

table::Matrix RandomTable(size_t rows, size_t cols, uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  table::Matrix out(rows, cols);
  for (double& value : out.Values()) value = (gen.NextDouble() - 0.5) * 200.0;
  return out;
}

/// The kernel-major SketchOf loop the position-major kernel replaced: one
/// serial accumulation per kernel over the window in row-major order.
std::vector<double> KernelMajorReference(const Sketcher& sketcher,
                                         const table::TableView& view) {
  const auto& matrices = sketcher.MatricesFor(view.rows(), view.cols());
  std::vector<double> out(matrices.size());
  for (size_t i = 0; i < matrices.size(); ++i) {
    double acc = 0.0;
    for (size_t r = 0; r < view.rows(); ++r) {
      for (size_t c = 0; c < view.cols(); ++c) {
        acc += view.At(r, c) * matrices[i].At(r, c);
      }
    }
    out[i] = acc;
  }
  return out;
}

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

const size_t kSizes[] = {1, 31, 32, 33, 64, 65};

TEST(SketcherDotsTest, SketchOfMatchesKernelMajorLoopBitForBit) {
  // Windows are strided views into a larger parent, so the kernel's row
  // stride differs from the window width.
  const table::Matrix parent = RandomTable(80, 90, 3);
  const std::pair<size_t, size_t> shapes[] = {
      {1, 1}, {1, 13}, {13, 1}, {5, 7}, {8, 8}, {16, 16}, {64, 64}};
  for (const double p : {1.0, 0.5}) {
    for (const size_t k : kSizes) {
      auto sketcher = Sketcher::Create({.p = p, .k = k, .seed = 7 + k});
      ASSERT_TRUE(sketcher.ok());
      for (const auto& [rows, cols] : shapes) {
        const table::TableView view = parent.Window(3, 5, rows, cols);
        ASSERT_NE(view.row_stride(), view.cols());
        const Sketch sketch = sketcher->SketchOf(view);
        EXPECT_TRUE(SameBytes(sketch.values,
                              KernelMajorReference(*sketcher, view)))
            << "p=" << p << " k=" << k << " window " << rows << "x" << cols;
      }
    }
  }
}

TEST(SketcherDotsTest, DispatchedKernelMatchesBaselineCopy) {
  // Same contract as the code kernels: whatever variant the CPU selects, it
  // emits the baseline copy's bytes. Special values ride in the data so
  // signed zeros, subnormals, overflow to infinity and NaN products all
  // pass through both copies.
  const double specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::max(),
                             -std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()};
  rng::Xoshiro256 gen(11);
  const std::pair<size_t, size_t> shapes[] = {{1, 1}, {3, 9}, {8, 8}};
  for (const bool special : {false, true}) {
    for (const size_t k : kSizes) {
      for (const auto& [rows, cols] : shapes) {
        const size_t stride = cols + 2;
        std::vector<double> data(rows * stride);
        for (double& x : data) {
          x = special ? specials[gen.NextBounded(std::size(specials))]
                      : gen.NextDouble() - 0.5;
        }
        std::vector<double> kernels(rows * cols * k);
        for (double& t : kernels) t = (gen.NextDouble() - 0.5) * 4.0;
        std::vector<double> dispatched(k);
        std::vector<double> baseline(k);
        kernels::SketchDots(data.data(), rows, cols, stride, kernels.data(), k,
                            dispatched.data());
        kernels::scalar::SketchDots(data.data(), rows, cols, stride,
                                    kernels.data(), k, baseline.data());
        EXPECT_TRUE(SameBytes(dispatched, baseline))
            << "k=" << k << " " << rows << "x" << cols
            << (special ? " special values" : "");
      }
    }
  }
}

TEST(SketcherDotsTest, ConcurrentFirstCallsAgree) {
  // Every thread's first SketchOf on the shape races to build the
  // position-major copy; each must see the finished copy.
  auto sketcher = Sketcher::Create({.p = 1.0, .k = 33, .seed = 5});
  ASSERT_TRUE(sketcher.ok());
  const table::Matrix data = RandomTable(12, 10, 9);
  const std::vector<double> expected =
      KernelMajorReference(*sketcher, data.View());
  std::vector<Sketch> sketches(4);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < sketches.size(); ++t) {
    threads.emplace_back(
        [&, t] { sketches[t] = sketcher->SketchOf(data.View()); });
  }
  for (auto& thread : threads) thread.join();
  for (const Sketch& sketch : sketches) {
    EXPECT_TRUE(SameBytes(sketch.values, expected));
  }
}

}  // namespace
}  // namespace tabsketch::core
