#include "core/sketcher.h"

#include <sstream>
#include <utility>

#include "core/code_kernels.h"
#include "core/stable_matrix.h"
#include "fft/correlate.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace tabsketch::core {
namespace {

/// The satellite-crash fix: window-fit problems surface as InvalidArgument
/// with 1-based sizes (a "1x1 window" is the smallest, matching how users
/// write --tile-rows/--min-log2), instead of dying on a CHECK.
util::Status WindowFitError(size_t window_rows, size_t window_cols,
                            size_t data_rows, size_t data_cols) {
  std::ostringstream msg;
  msg << "window " << window_rows << "x" << window_cols
      << " does not fit the " << data_rows << "x" << data_cols
      << " table: window sides must be between 1 and the table's sides";
  return util::Status::InvalidArgument(msg.str());
}

}  // namespace

void Sketch::Add(const Sketch& other) {
  TABSKETCH_CHECK(values.size() == other.values.size())
      << "adding sketches of different sizes";
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] += other.values[i];
  }
}

void Sketch::Scale(double factor) {
  for (double& value : values) value *= factor;
}

SketchField::SketchField(size_t window_rows, size_t window_cols,
                         std::vector<table::Matrix> planes)
    : window_rows_(window_rows),
      window_cols_(window_cols),
      planes_(std::move(planes)) {
  TABSKETCH_CHECK(!planes_.empty()) << "sketch field needs at least one plane";
  for (const auto& plane : planes_) {
    TABSKETCH_CHECK(plane.rows() == planes_.front().rows() &&
                    plane.cols() == planes_.front().cols())
        << "sketch field planes must share dimensions";
  }
}

Sketch SketchField::SketchAt(size_t row, size_t col) const {
  Sketch out;
  out.values.resize(planes_.size());
  for (size_t i = 0; i < planes_.size(); ++i) {
    out.values[i] = planes_[i].At(row, col);
  }
  return out;
}

void SketchField::AccumulateAt(size_t row, size_t col, Sketch* sum) const {
  TABSKETCH_CHECK(sum->values.size() == planes_.size())
      << "accumulator size " << sum->values.size() << " != k "
      << planes_.size();
  for (size_t i = 0; i < planes_.size(); ++i) {
    sum->values[i] += planes_[i].At(row, col);
  }
}

util::Result<Sketcher> Sketcher::Create(const SketchParams& params) {
  TABSKETCH_RETURN_IF_ERROR(params.Validate());
  return Sketcher(params);
}

Sketcher::Sketcher(const SketchParams& params)
    : params_(params), cache_(std::make_shared<MatrixCache>()) {}

const Sketcher::DenseKernels& Sketcher::DenseKernelsFor(size_t rows,
                                                        size_t cols) const {
  const auto key = std::make_pair(rows, cols);
  {
    std::lock_guard<std::mutex> lock(cache_->mutex);
    auto it = cache_->entries.find(key);
    if (it != cache_->entries.end()) return *it->second;
  }
  // Generate outside the lock; on a race the first insert wins.
  auto generated = std::make_shared<DenseKernels>();
  generated->matrices = StableRandomMatrices(params_, rows, cols);
  std::lock_guard<std::mutex> lock(cache_->mutex);
  auto it = cache_->entries.emplace(key, std::move(generated)).first;
  return *it->second;
}

const std::vector<table::Matrix>& Sketcher::MatricesFor(size_t rows,
                                                        size_t cols) const {
  return DenseKernelsFor(rows, cols).matrices;
}

const std::vector<SparseKernel>& Sketcher::SparseKernelsFor(
    size_t rows, size_t cols) const {
  const auto key = std::make_pair(rows, cols);
  {
    std::lock_guard<std::mutex> lock(cache_->mutex);
    auto it = cache_->sparse_entries.find(key);
    if (it != cache_->sparse_entries.end()) return *it->second;
  }
  auto generated = std::make_shared<const std::vector<SparseKernel>>(
      SparseStableKernels(params_, rows, cols));
  std::lock_guard<std::mutex> lock(cache_->mutex);
  auto it = cache_->sparse_entries.emplace(key, std::move(generated)).first;
  return *it->second;
}

Sketch Sketcher::SketchOf(const table::TableView& view) const {
  TABSKETCH_CHECK(!view.empty()) << "cannot sketch an empty subtable";
  TABSKETCH_METRIC_COUNT("sketcher.sketch_of.calls");
  Sketch out;
  out.values.resize(params_.k);
  if (params_.sparsity < 1.0) {
    // O(nnz) walk over the kernels' support in storage (row-major) order —
    // bit-identical to the dense walk below, which only adds exact-zero
    // products on top of the same accumulation sequence.
    TABSKETCH_METRIC_COUNT("sparse.sketch_of.calls");
    const auto& kernels = SparseKernelsFor(view.rows(), view.cols());
    for (size_t i = 0; i < params_.k; ++i) {
      const SparseKernel& kernel = kernels[i];
      double acc = 0.0;
      for (size_t e = 0; e < kernel.nnz(); ++e) {
        acc += view.At(kernel.entry_rows[e], kernel.entry_cols[e]) *
               kernel.values[e];
      }
      out.values[i] = acc;
    }
    return out;
  }
  const DenseKernels& dense = DenseKernelsFor(view.rows(), view.cols());
  std::call_once(dense.position_major_once, [&] {
    // Position-outer, so the copy is written sequentially.
    const size_t positions = view.size();
    dense.position_major.resize(positions * params_.k);
    double* t = dense.position_major.data();
    for (size_t p = 0; p < positions; ++p) {
      for (size_t i = 0; i < params_.k; ++i) {
        *t++ = dense.matrices[i].Values()[p];
      }
    }
  });
  kernels::SketchDots(view.Row(0).data(), view.rows(), view.cols(),
                      view.row_stride(), dense.position_major.data(),
                      params_.k, out.values.data());
  return out;
}

util::Result<SketchField> Sketcher::SketchAllPositions(
    const table::Matrix& data, size_t window_rows, size_t window_cols,
    SketchAlgorithm algorithm, size_t threads) const {
  if (window_rows < 1 || window_cols < 1 || window_rows > data.rows() ||
      window_cols > data.cols()) {
    return WindowFitError(window_rows, window_cols, data.rows(), data.cols());
  }

  if (algorithm == SketchAlgorithm::kAuto && params_.sparsity < 1.0) {
    // Per-kernel predicted-cost routing (DESIGN.md Section 16). Kernels that
    // stay on the FFT path still ride CorrelatePair two at a time; a pair
    // whose other half went sparse-direct falls back to single-kernel
    // Correlate. The routing depends only on each kernel's nnz and the
    // sizes, so the planes are bit-identical for every thread count.
    const auto& kernels = SparseKernelsFor(window_rows, window_cols);
    const size_t positions = (data.rows() - window_rows + 1) *
                             (data.cols() - window_cols + 1);
    std::vector<bool> direct(params_.k);
    size_t fft_kernels = 0;
    for (size_t i = 0; i < params_.k; ++i) {
      direct[i] = PreferSparsePath(kernels[i].nnz(), positions, data.rows(),
                                   data.cols());
      if (!direct[i]) ++fft_kernels;
    }
    TABSKETCH_METRIC_COUNT_N("sparse.pool.direct_kernels",
                             params_.k - fft_kernels);
    TABSKETCH_METRIC_COUNT_N("sparse.pool.fft_kernels", fft_kernels);
    std::unique_ptr<const fft::CorrelationPlan> plan;
    if (fft_kernels > 0) {
      plan = std::make_unique<const fft::CorrelationPlan>(data);
      MatricesFor(window_rows, window_cols);
    }
    std::vector<table::Matrix> planes(params_.k);
    const size_t pairs = (params_.k + 1) / 2;
    util::ParallelFor(pairs, threads, [&](size_t j) {
      const size_t first = 2 * j;
      const size_t second = first + 1;
      const bool second_valid = second < params_.k;
      if (!direct[first] && second_valid && !direct[second]) {
        const auto& matrices = MatricesFor(window_rows, window_cols);
        auto [plane_a, plane_b] =
            plan->CorrelatePair(matrices[first], matrices[second]);
        planes[first] = std::move(plane_a);
        planes[second] = std::move(plane_b);
        return;
      }
      for (size_t i = first; i <= second && i < params_.k; ++i) {
        planes[i] = direct[i]
                        ? CrossCorrelateSparse(data, kernels[i])
                        : plan->Correlate(
                              MatricesFor(window_rows, window_cols)[i]);
      }
    });
    return SketchField(window_rows, window_cols, std::move(planes));
  }
  if (algorithm != SketchAlgorithm::kNaive) {
    // kFft, and kAuto over a dense family (where auto is exactly kFft).
    const fft::CorrelationPlan plan(data);
    return SketchAllPositions(plan, window_rows, window_cols, threads);
  }
  const auto& matrices = MatricesFor(window_rows, window_cols);
  std::vector<table::Matrix> planes(params_.k);
  util::ParallelFor(params_.k, threads, [&](size_t i) {
    planes[i] = fft::CrossCorrelateNaive(data, matrices[i]);
  });
  return SketchField(window_rows, window_cols, std::move(planes));
}

util::Result<SketchField> Sketcher::SketchAllPositions(
    const fft::CorrelationPlan& plan, size_t window_rows, size_t window_cols,
    size_t threads) const {
  if (window_rows < 1 || window_cols < 1 ||
      window_rows > plan.data_rows() || window_cols > plan.data_cols()) {
    return WindowFitError(window_rows, window_cols, plan.data_rows(),
                          plan.data_cols());
  }
  TABSKETCH_TRACE_SPAN("sketcher.all_positions");

  // Kernels ride the FFT two at a time (CorrelatePair real-pair packing);
  // index-fixed pairing keeps the planes bit-identical across thread counts.
  const auto& matrices = MatricesFor(window_rows, window_cols);
  std::vector<table::Matrix> planes(params_.k);
  const size_t pairs = (params_.k + 1) / 2;
  util::ParallelFor(pairs, threads, [&](size_t j) {
    const size_t first = 2 * j;
    const size_t second = first + 1;
    if (second < params_.k) {
      auto [plane_a, plane_b] =
          plan.CorrelatePair(matrices[first], matrices[second]);
      planes[first] = std::move(plane_a);
      planes[second] = std::move(plane_b);
    } else {
      planes[first] = plan.Correlate(matrices[first]);
    }
  });
  return SketchField(window_rows, window_cols, std::move(planes));
}

}  // namespace tabsketch::core
