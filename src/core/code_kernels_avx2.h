#ifndef TABSKETCH_CORE_CODE_KERNELS_AVX2_H_
#define TABSKETCH_CORE_CODE_KERNELS_AVX2_H_

// Internal declarations for the AVX2 kernel translation unit
// (code_kernels_avx2.cc, compiled with -mavx2). Only code_kernels.cc may
// include this header, and only under TABSKETCH_HAVE_AVX2 — the symbols do
// not exist in a TABSKETCH_SIMD=OFF build.

#include <cstddef>
#include <cstdint>

namespace tabsketch::core::kernels::avx2 {

void AbsDiff8(const uint8_t* a, const uint8_t* b, size_t k, uint16_t* out);
void AbsDiff16(const uint16_t* a, const uint16_t* b, size_t k, uint16_t* out);
uint64_t SumSquaredDiff8(const uint8_t* a, const uint8_t* b, size_t k);
uint64_t SumSquaredDiff16(const uint16_t* a, const uint16_t* b, size_t k);
void SketchDots(const double* data, size_t rows, size_t cols,
                size_t row_stride, const double* kernels, size_t k,
                double* out);

}  // namespace tabsketch::core::kernels::avx2

#endif  // TABSKETCH_CORE_CODE_KERNELS_AVX2_H_
