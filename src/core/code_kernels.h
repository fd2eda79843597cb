#ifndef TABSKETCH_CORE_CODE_KERNELS_H_
#define TABSKETCH_CORE_CODE_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tabsketch::core::kernels {

/// Reused buffers for the code-distance kernels. One per thread: the median
/// kernels fill `diff` with per-component |a - b| and select by counting
/// into the small histograms, so a warm scratch makes every call
/// allocation-free.
struct CodeScratch {
  std::vector<uint16_t> diff;
  std::vector<uint32_t> hist_hi;
  std::vector<uint32_t> hist_lo0;
  std::vector<uint32_t> hist_lo1;
};

/// Elementwise |a - b| over `k` codes into `*diff` (resized to k, element
/// order preserved). The AVX2 paths widen in-order (cvtepu8/16), so the
/// buffer contents are byte-identical to the scalar fallback — the layout a
/// NEON port must also preserve.
void AbsDiff(const uint8_t* a, const uint8_t* b, size_t k,
             std::vector<uint16_t>* diff);
void AbsDiff(const uint16_t* a, const uint16_t* b, size_t k,
             std::vector<uint16_t>* diff);

/// Median of the `k` integer differences in `diff`, selected by exact
/// counting (one 256-bucket pass for 8-bit diffs, a two-level high/low-byte
/// radix for 16-bit). Even k averages the two middle order statistics, so
/// the result is always an exact x.0 or x.5 — no float accumulation, hence
/// bit-identical across SIMD variants and platforms. k must be > 0.
double MedianOfDiffs8(const uint16_t* diff, size_t k, CodeScratch* scratch);
double MedianOfDiffs16(const uint16_t* diff, size_t k, CodeScratch* scratch);

/// median(|a - b|) over k codes: AbsDiff + MedianOfDiffs.
double MedianAbsDiff(const uint8_t* a, const uint8_t* b, size_t k,
                     CodeScratch* scratch);
double MedianAbsDiff(const uint16_t* a, const uint16_t* b, size_t k,
                     CodeScratch* scratch);

/// sum_i (a_i - b_i)^2 with exact 64-bit integer accumulation (no overflow
/// for any k below 2^32 even at the 16-bit extremes).
uint64_t SumSquaredDiff(const uint8_t* a, const uint8_t* b, size_t k);
uint64_t SumSquaredDiff(const uint16_t* a, const uint16_t* b, size_t k);

/// The dense sketch kernel behind Sketcher::SketchOf: for each of the k
/// kernels i, out[i] = sum over the rows x cols window at `data` (row stride
/// `row_stride`) of x_p * kernels[p * k + i], with p the row-major position
/// in the window and `kernels` the family's position-major copy
/// (T[p * k + i] = R_i at p). Each out[i] is accumulated in exactly the
/// order of the kernel-major loop `acc += x_p * R_i[p]`, so every variant is
/// bit-identical to it, except that a NaN result is always the canonical
/// quiet NaN (core/sketch_dots_inl.h). rows, cols and k must be > 0.
void SketchDots(const double* data, size_t rows, size_t cols,
                size_t row_stride, const double* kernels, size_t k,
                double* out);

/// True when the AVX2 kernel translation unit was compiled in
/// (TABSKETCH_SIMD=ON on an x86-64 toolchain).
bool Avx2CompiledIn();
/// True when the AVX2 kernels are compiled in AND this CPU supports AVX2 —
/// i.e. the dispatched entry points above take the vector path.
bool Avx2Active();

/// Scalar reference implementations, always available (SketchDots here is
/// the baseline-ISA copy of the shared loop body). The dispatched entry
/// points above must produce bit-identical results; the kernel tests assert
/// exactly that on whatever hardware they run.
namespace scalar {
void AbsDiff8(const uint8_t* a, const uint8_t* b, size_t k, uint16_t* out);
void AbsDiff16(const uint16_t* a, const uint16_t* b, size_t k, uint16_t* out);
uint64_t SumSquaredDiff8(const uint8_t* a, const uint8_t* b, size_t k);
uint64_t SumSquaredDiff16(const uint16_t* a, const uint16_t* b, size_t k);
void SketchDots(const double* data, size_t rows, size_t cols,
                size_t row_stride, const double* kernels, size_t k,
                double* out);
}  // namespace scalar

}  // namespace tabsketch::core::kernels

#endif  // TABSKETCH_CORE_CODE_KERNELS_H_
