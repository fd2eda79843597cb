#ifndef TABSKETCH_CORE_SKETCHER_H_
#define TABSKETCH_CORE_SKETCHER_H_

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/sketch_params.h"
#include "core/sparse_kernel.h"
#include "table/matrix.h"
#include "util/result.h"

namespace tabsketch::fft {
class CorrelationPlan;
}  // namespace tabsketch::fft

namespace tabsketch::core {

/// An Lp sketch: the k dot products of one object (a subtable, linearized
/// row-major) with the k random stable matrices of a sketch family
/// (paper Section 3.2). Constant-size regardless of the object's size —
/// that is the entire point.
struct Sketch {
  std::vector<double> values;

  size_t size() const { return values.size(); }

  /// Component-wise sum, used to assemble compound sketches (Definition 4)
  /// and, via linearity of the dot product, sketches of sums of objects.
  void Add(const Sketch& other);

  /// Multiplies every component by `factor` (linearity: the sketch of c*X is
  /// c*sketch(X)), used e.g. for centroid sketches as means of member
  /// sketches.
  void Scale(double factor);
};

/// Which all-positions algorithm to use (paper Section 3.3).
enum class SketchAlgorithm {
  /// Direct dot products at every position: O(k N M).
  kNaive,
  /// FFT cross-correlation: O(k N log M) (Theorem 3).
  kFft,
  /// Per-kernel predicted-cost choice between the FFT path and the O(nnz)
  /// sparse-direct path (core/sparse_kernel.h). For dense families
  /// (sparsity = 1) this is exactly kFft; the decision depends only on
  /// sizes and each kernel's nnz, never on threads, so results stay
  /// bit-identical across thread counts.
  kAuto,
};

/// All-positions sketch data for one window shape over one table: plane i
/// holds, at (r, c), the dot product of R[i] with the window whose top-left
/// corner is (r, c). SketchAt gathers one position's k values into a Sketch.
class SketchField {
 public:
  SketchField(size_t window_rows, size_t window_cols,
              std::vector<table::Matrix> planes);

  size_t window_rows() const { return window_rows_; }
  size_t window_cols() const { return window_cols_; }
  /// Number of valid window positions per dimension.
  size_t position_rows() const { return planes_.front().rows(); }
  size_t position_cols() const { return planes_.front().cols(); }
  size_t k() const { return planes_.size(); }

  const table::Matrix& plane(size_t i) const { return planes_[i]; }

  /// The sketch of the window anchored at (row, col).
  Sketch SketchAt(size_t row, size_t col) const;

  /// Appends the window's sketch values at (row, col) component-wise into
  /// `sum->values` (which must have size k). Allocation-free accumulation
  /// path for compound sketches.
  void AccumulateAt(size_t row, size_t col, Sketch* sum) const;

 private:
  size_t window_rows_;
  size_t window_cols_;
  std::vector<table::Matrix> planes_;
};

/// Produces Lp sketches for a fixed parameter family. The random stable
/// matrices for each window shape are generated deterministically from the
/// family seed on first use and cached, so every Sketcher (and SketchPool)
/// with equal params yields mutually comparable sketches.
///
/// Thread-safe for concurrent SketchOf calls.
class Sketcher {
 public:
  /// Validates `params` and builds a sketcher.
  static util::Result<Sketcher> Create(const SketchParams& params);

  Sketcher(Sketcher&&) = default;
  Sketcher& operator=(Sketcher&&) = default;

  const SketchParams& params() const { return params_; }

  /// Sketch of a single subtable: O(k * size) dense dot products — the
  /// "sketch on demand" cost of the paper's clustering scenario (2) — or
  /// O(k * nnz) sparse-kernel walks when the family's sparsity < 1,
  /// bit-identical to the dense walk (the skipped entries are exact zeros).
  Sketch SketchOf(const table::TableView& view) const;

  /// Sketches of all positions of a (window_rows x window_cols) window over
  /// `data` (paper Theorem 3). The FFT path and the naive path agree to
  /// floating-point rounding. The k per-kernel correlations are independent
  /// and fan out over `threads` workers; the result is bit-identical for
  /// every thread count. Returns InvalidArgument if the window is empty or
  /// does not fit the table.
  util::Result<SketchField> SketchAllPositions(const table::Matrix& data,
                                               size_t window_rows,
                                               size_t window_cols,
                                               SketchAlgorithm algorithm,
                                               size_t threads = 1) const;

  /// FFT-path SketchAllPositions against a caller-provided plan, so one
  /// forward FFT of the data can be shared across many window shapes (the
  /// dyadic pool build constructs the plan once for all canonical sizes).
  /// The plan must have been built over the same table the windows address.
  /// Returns InvalidArgument if the window is empty or does not fit.
  util::Result<SketchField> SketchAllPositions(
      const fft::CorrelationPlan& plan, size_t window_rows,
      size_t window_cols, size_t threads = 1) const;

  /// The k random matrices for a window shape (cached).
  const std::vector<table::Matrix>& MatricesFor(size_t rows,
                                                size_t cols) const;

  /// The k kernels of a window shape in sparse CSR-style form (cached).
  /// Bit-identical in content to MatricesFor (same derivation, zeros
  /// dropped); only worth storing for sparse families.
  const std::vector<SparseKernel>& SparseKernelsFor(size_t rows,
                                                    size_t cols) const;

 private:
  // The k dense kernels of one window shape. `position_major` is the same
  // entries laid out kernel-fastest, position_major[p * k + i] = R_i at
  // row-major position p: the layout the dense SketchOf loop streams
  // (DESIGN.md Section 17). It is filled on the shape's first dense
  // SketchOf, so shapes only ever correlated by FFT (pool builds) never hold
  // their kernels twice.
  struct DenseKernels {
    std::vector<table::Matrix> matrices;
    mutable std::once_flag position_major_once;
    mutable std::vector<double> position_major;
  };

  // Shape-keyed cache of generated stable matrices, shared so that Sketcher
  // remains cheap to move while the cache (which can hold tens of MB for
  // large windows) is built once.
  struct MatrixCache {
    std::mutex mutex;
    std::map<std::pair<size_t, size_t>, std::shared_ptr<const DenseKernels>>
        entries;
    std::map<std::pair<size_t, size_t>,
             std::shared_ptr<const std::vector<SparseKernel>>>
        sparse_entries;
  };

  explicit Sketcher(const SketchParams& params);

  const DenseKernels& DenseKernelsFor(size_t rows, size_t cols) const;

  SketchParams params_;
  std::shared_ptr<MatrixCache> cache_;
};

}  // namespace tabsketch::core

#endif  // TABSKETCH_CORE_SKETCHER_H_
