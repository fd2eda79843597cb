#ifndef TABSKETCH_CORE_SPARSE_KERNEL_H_
#define TABSKETCH_CORE_SPARSE_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/sketch_params.h"
#include "table/matrix.h"

namespace tabsketch::core {

/// One random stable matrix of a sparse family, stored as its nonzero
/// entries in row-major order (coordinate layout; rows are short enough that
/// explicit per-row offsets buy nothing over the flat walk).
///
/// Built by walking the same counter-based derivation as StableRandomMatrix
/// and keeping only the support, so Dense() reproduces the bulk matrix
/// bit-for-bit, and any accumulation that visits the nonzeros in storage
/// order matches the dense row-major dot product bit-for-bit as well: the
/// skipped entries are exact zeros, and adding a zero product never changes
/// a finite accumulator.
struct SparseKernel {
  size_t rows = 0;
  size_t cols = 0;
  /// Coordinates and value of nonzero e, sorted by (row, col).
  std::vector<uint32_t> entry_rows;
  std::vector<uint32_t> entry_cols;
  std::vector<double> values;

  size_t nnz() const { return values.size(); }

  /// Scatters the nonzeros into a dense rows x cols matrix. Bit-identical to
  /// StableRandomMatrix for the (params, index, shape) the kernel was built
  /// from.
  table::Matrix Dense() const;
};

/// Extracts the index-th kernel of the family in CSR-style form. Works for
/// any sparsity (a dense family just yields every entry); `params` must be
/// valid and the shape within the 32-bit coordinate range.
SparseKernel SparseStableKernel(const SketchParams& params, size_t index,
                                size_t rows, size_t cols);

/// All k kernels of the family for one shape.
std::vector<SparseKernel> SparseStableKernels(const SketchParams& params,
                                              size_t rows, size_t cols);

/// Valid-mode 2-D cross-correlation against a sparse kernel, O(nnz) per
/// output position:
///   out(i, j) = sum_e values[e] * data(i + entry_rows[e], j + entry_cols[e])
/// Output is (data.rows - rows + 1) x (data.cols - cols + 1); the kernel
/// must fit inside the data. Per output element the contributions accumulate
/// in storage (row-major) order, so the result is bit-identical to
/// fft::CrossCorrelateNaive(data, kernel.Dense()) for finite data.
table::Matrix CrossCorrelateSparse(const table::Matrix& data,
                                   const SparseKernel& kernel);

/// Deterministic dense-FFT vs sparse-direct choice for one kernel of an
/// all-positions sketch (DESIGN.md Section 16): direct time-domain work is
/// nnz * positions fused multiply-adds, while riding a shared CorrelationPlan
/// costs one forward + one inverse pass over the padded grid regardless of
/// the kernel, modeled as kFftKernelCostFactor * P * log2(P) with P the
/// padded element count. Depends only on sizes and the kernel's nnz — never
/// on thread count or timing — so path selection (and therefore the output)
/// is reproducible for a given family.
bool PreferSparsePath(size_t nnz, size_t positions, size_t data_rows,
                      size_t data_cols);

}  // namespace tabsketch::core

#endif  // TABSKETCH_CORE_SPARSE_KERNEL_H_
