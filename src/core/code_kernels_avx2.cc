// AVX2 variants of the code-distance kernels and of the dense sketch kernel.
// This translation unit is the only one compiled with -mavx2 (see
// src/CMakeLists.txt); it is added to the build only when TABSKETCH_SIMD is
// ON and the target is x86-64, and its entry points are only called after a
// runtime __builtin_cpu_supports check (kernels::Avx2Active), so no AVX2
// instruction can leak onto an older CPU.
//
// Every kernel is integer-exact: widen/compare/accumulate only, no float
// math, so the results are bit-identical to the scalar reference — the
// property the query and k-means byte-identity guarantees rest on. The
// vector bodies process elements in order (cvtepu8/16 widening), and tails
// fall through to the scalar loops. SketchDots is the shared loop body of
// core/sketch_dots_inl.h compiled for AVX2: floating point, but in the
// reference accumulation order with no contraction, so equally bit-identical.

#include "core/code_kernels_avx2.h"

#if defined(TABSKETCH_HAVE_AVX2)

#include <immintrin.h>

#include "core/sketch_dots_inl.h"

namespace tabsketch::core::kernels::avx2 {
namespace {

uint64_t HorizontalSum64(__m256i acc) {
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

}  // namespace

void AbsDiff8(const uint8_t* a, const uint8_t* b, size_t k, uint16_t* out) {
  size_t i = 0;
  for (; i + 16 <= k; i += 16) {
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    // |a - b| for unsigned bytes: max - min, then widen in element order.
    const __m128i d8 =
        _mm_sub_epi8(_mm_max_epu8(va, vb), _mm_min_epu8(va, vb));
    const __m256i d16 = _mm256_cvtepu8_epi16(d8);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), d16);
  }
  for (; i < k; ++i) {
    const int d = static_cast<int>(a[i]) - static_cast<int>(b[i]);
    out[i] = static_cast<uint16_t>(d < 0 ? -d : d);
  }
}

void AbsDiff16(const uint16_t* a, const uint16_t* b, size_t k,
               uint16_t* out) {
  size_t i = 0;
  for (; i + 16 <= k; i += 16) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i d16 =
        _mm256_sub_epi16(_mm256_max_epu16(va, vb), _mm256_min_epu16(va, vb));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), d16);
  }
  for (; i < k; ++i) {
    const int d = static_cast<int>(a[i]) - static_cast<int>(b[i]);
    out[i] = static_cast<uint16_t>(d < 0 ? -d : d);
  }
}

uint64_t SumSquaredDiff8(const uint8_t* a, const uint8_t* b, size_t k) {
  // Per 16 bytes: |a-b| as u8, widen to 16 lanes of u16, then madd(d, d)
  // gives 8 pairwise i32 sums of squares (max 2 * 255^2, far below i32).
  // The i32 accumulator takes at most 2^14 iterations between flushes, so
  // each lane stays below 2^14 * 2 * 255^2 < 2^31.
  __m256i acc64 = _mm256_setzero_si256();
  const __m256i zero = _mm256_setzero_si256();
  size_t i = 0;
  while (i + 16 <= k) {
    __m256i acc32 = _mm256_setzero_si256();
    size_t block_end = i + (size_t{1} << 18);  // 2^14 iterations of 16
    if (block_end > k) block_end = k;
    for (; i + 16 <= block_end; i += 16) {
      const __m128i va =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
      const __m128i vb =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
      const __m128i d8 =
          _mm_sub_epi8(_mm_max_epu8(va, vb), _mm_min_epu8(va, vb));
      const __m256i d16 = _mm256_cvtepu8_epi16(d8);
      acc32 = _mm256_add_epi32(acc32, _mm256_madd_epi16(d16, d16));
    }
    // Flush: zero-extend the non-negative i32 lanes into the u64 accumulator.
    acc64 = _mm256_add_epi64(acc64, _mm256_unpacklo_epi32(acc32, zero));
    acc64 = _mm256_add_epi64(acc64, _mm256_unpackhi_epi32(acc32, zero));
  }
  uint64_t sum = HorizontalSum64(acc64);
  for (; i < k; ++i) {
    const int64_t d = static_cast<int64_t>(a[i]) - static_cast<int64_t>(b[i]);
    sum += static_cast<uint64_t>(d * d);
  }
  return sum;
}

uint64_t SumSquaredDiff16(const uint16_t* a, const uint16_t* b, size_t k) {
  // A 16-bit diff squares up to 65535^2 > i32, so madd is unsafe here.
  // Widen diffs to u32 and use mul_epu32 on the even/odd u32 lanes, which
  // multiplies into full u64 products.
  __m256i acc64 = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 8 <= k; i += 8) {
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    const __m128i d16 =
        _mm_sub_epi16(_mm_max_epu16(va, vb), _mm_min_epu16(va, vb));
    const __m256i d32 = _mm256_cvtepu16_epi32(d16);
    const __m256i even = _mm256_mul_epu32(d32, d32);
    const __m256i shifted = _mm256_srli_epi64(d32, 32);
    const __m256i odd = _mm256_mul_epu32(shifted, shifted);
    acc64 = _mm256_add_epi64(acc64, even);
    acc64 = _mm256_add_epi64(acc64, odd);
  }
  uint64_t sum = HorizontalSum64(acc64);
  for (; i < k; ++i) {
    const int64_t d = static_cast<int64_t>(a[i]) - static_cast<int64_t>(b[i]);
    sum += static_cast<uint64_t>(d * d);
  }
  return sum;
}

void SketchDots(const double* data, size_t rows, size_t cols,
                size_t row_stride, const double* kernels, size_t k,
                double* out) {
  SketchDotsBody(data, rows, cols, row_stride, kernels, k, out);
}

}  // namespace tabsketch::core::kernels::avx2

#endif  // TABSKETCH_HAVE_AVX2
