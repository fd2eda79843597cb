#ifndef TABSKETCH_CORE_SKETCH_DOTS_INL_H_
#define TABSKETCH_CORE_SKETCH_DOTS_INL_H_

// The loop body of the dense SketchOf kernel (kernels::SketchDots), written
// once and compiled twice: by code_kernels.cc at the baseline ISA and by
// code_kernels_avx2.cc with -mavx2. Only those two files may include this
// header. Everything in it has internal linkage and calls nothing out of
// line, so the linker can never merge the AVX2 copy into the baseline one.
//
// Order contract: out[i] is produced by exactly the accumulation sequence of
// the kernel-major reference loop
//
//   acc = 0; for r: for c: acc += x(r, c) * R_i(r, c);
//
// positions in row-major order, one separately rounded multiply and one
// separately rounded add per position. A chunk runs that sequence for W
// kernels side by side, reading R_i(p) from the position-major copy
// T[p * k + i], so a compiler vectorizes across kernels and never within
// one. Built with -ffp-contract=off (no fused multiply-add), every non-NaN
// output is bit-identical to the reference loop, and every NaN output is the
// canonical quiet NaN.

#include <cstddef>

namespace tabsketch::core::kernels {
namespace {

/// Accumulators per pass over the window: enough independent add chains to
/// hide the add latency, few enough to stay in registers.
constexpr size_t kSketchDotsChunk = 32;

template <size_t W>
inline void SketchDotsChunk(const double* data, size_t rows, size_t cols,
                            size_t row_stride, const double* kernels,
                            size_t k, double* out) {
  double acc[W] = {};
  const double* t = kernels;
  for (size_t r = 0; r < rows; ++r) {
    const double* row = data + r * row_stride;
    for (size_t c = 0; c < cols; ++c, t += k) {
      const double x = row[c];
      for (size_t j = 0; j < W; ++j) acc[j] += x * t[j];
    }
  }
  // Which NaN an add propagates when both operands are NaN depends on the
  // operand order, which compilers treat as free; a NaN result therefore
  // leaves as the one canonical quiet NaN, the same from every copy.
  for (size_t j = 0; j < W; ++j) {
    out[j] = acc[j] == acc[j] ? acc[j] : __builtin_nan("");
  }
}

inline void SketchDotsBody(const double* data, size_t rows, size_t cols,
                           size_t row_stride, const double* kernels, size_t k,
                           double* out) {
  size_t i = 0;
  for (; i + kSketchDotsChunk <= k; i += kSketchDotsChunk) {
    SketchDotsChunk<kSketchDotsChunk>(data, rows, cols, row_stride,
                                      kernels + i, k, out + i);
  }
  // The last k mod 32 kernels, as at most one chunk of each power of two.
  if (k - i >= 16) {
    SketchDotsChunk<16>(data, rows, cols, row_stride, kernels + i, k, out + i);
    i += 16;
  }
  if (k - i >= 8) {
    SketchDotsChunk<8>(data, rows, cols, row_stride, kernels + i, k, out + i);
    i += 8;
  }
  if (k - i >= 4) {
    SketchDotsChunk<4>(data, rows, cols, row_stride, kernels + i, k, out + i);
    i += 4;
  }
  if (k - i >= 2) {
    SketchDotsChunk<2>(data, rows, cols, row_stride, kernels + i, k, out + i);
    i += 2;
  }
  if (k - i >= 1) {
    SketchDotsChunk<1>(data, rows, cols, row_stride, kernels + i, k, out + i);
  }
}

}  // namespace
}  // namespace tabsketch::core::kernels

#endif  // TABSKETCH_CORE_SKETCH_DOTS_INL_H_
