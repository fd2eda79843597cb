#include "core/code_kernels.h"

#include <cstdlib>

#include "core/sketch_dots_inl.h"
#include "util/logging.h"

#if defined(TABSKETCH_HAVE_AVX2)
#include "core/code_kernels_avx2.h"
#endif

namespace tabsketch::core::kernels {

namespace scalar {

void AbsDiff8(const uint8_t* a, const uint8_t* b, size_t k, uint16_t* out) {
  for (size_t i = 0; i < k; ++i) {
    const int d = static_cast<int>(a[i]) - static_cast<int>(b[i]);
    out[i] = static_cast<uint16_t>(d < 0 ? -d : d);
  }
}

void AbsDiff16(const uint16_t* a, const uint16_t* b, size_t k,
               uint16_t* out) {
  for (size_t i = 0; i < k; ++i) {
    const int d = static_cast<int>(a[i]) - static_cast<int>(b[i]);
    out[i] = static_cast<uint16_t>(d < 0 ? -d : d);
  }
}

uint64_t SumSquaredDiff8(const uint8_t* a, const uint8_t* b, size_t k) {
  uint64_t sum = 0;
  for (size_t i = 0; i < k; ++i) {
    const int64_t d = static_cast<int64_t>(a[i]) - static_cast<int64_t>(b[i]);
    sum += static_cast<uint64_t>(d * d);
  }
  return sum;
}

uint64_t SumSquaredDiff16(const uint16_t* a, const uint16_t* b, size_t k) {
  uint64_t sum = 0;
  for (size_t i = 0; i < k; ++i) {
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

}  // namespace scalar

bool Avx2CompiledIn() {
#if defined(TABSKETCH_HAVE_AVX2)
  return true;
#else
  return false;
#endif
}

bool Avx2Active() {
#if defined(TABSKETCH_HAVE_AVX2)
  static const bool active = __builtin_cpu_supports("avx2") > 0;
  return active;
#else
  return false;
#endif
}

void AbsDiff(const uint8_t* a, const uint8_t* b, size_t k,
             std::vector<uint16_t>* diff) {
  diff->resize(k);
#if defined(TABSKETCH_HAVE_AVX2)
  if (Avx2Active()) {
    avx2::AbsDiff8(a, b, k, diff->data());
    return;
  }
#endif
  scalar::AbsDiff8(a, b, k, diff->data());
}

void AbsDiff(const uint16_t* a, const uint16_t* b, size_t k,
             std::vector<uint16_t>* diff) {
  diff->resize(k);
#if defined(TABSKETCH_HAVE_AVX2)
  if (Avx2Active()) {
    avx2::AbsDiff16(a, b, k, diff->data());
    return;
  }
#endif
  scalar::AbsDiff16(a, b, k, diff->data());
}

uint64_t SumSquaredDiff(const uint8_t* a, const uint8_t* b, size_t k) {
#if defined(TABSKETCH_HAVE_AVX2)
  if (Avx2Active()) return avx2::SumSquaredDiff8(a, b, k);
#endif
  return scalar::SumSquaredDiff8(a, b, k);
}

uint64_t SumSquaredDiff(const uint16_t* a, const uint16_t* b, size_t k) {
#if defined(TABSKETCH_HAVE_AVX2)
  if (Avx2Active()) return avx2::SumSquaredDiff16(a, b, k);
#endif
  return scalar::SumSquaredDiff16(a, b, k);
}

void SketchDots(const double* data, size_t rows, size_t cols,
                size_t row_stride, const double* kernels, size_t k,
                double* out) {
#if defined(TABSKETCH_HAVE_AVX2)
  if (Avx2Active()) {
    avx2::SketchDots(data, rows, cols, row_stride, kernels, k, out);
    return;
  }
#endif
  scalar::SketchDots(data, rows, cols, row_stride, kernels, k, out);
}

namespace {

/// The value holding the r0-th and r1-th order statistics (0-based,
/// r0 <= r1, both < total count) of a 256-bucket count histogram, averaged.
/// Selection over exact integer counts: deterministic however the counts
/// were produced.
double SelectPairFromHistogram(const uint32_t* hist, size_t r0, size_t r1) {
  size_t cumulative = 0;
  size_t v0 = 256;  // sentinel: "not found yet"
  for (size_t value = 0; value < 256; ++value) {
    cumulative += hist[value];
    if (v0 == 256 && cumulative > r0) v0 = value;
    if (cumulative > r1) {
      return 0.5 * static_cast<double>(v0 + value);
    }
  }
  TABSKETCH_CHECK(false);  // ranks were < total count by construction
  std::abort();
}

}  // namespace

double MedianOfDiffs8(const uint16_t* diff, size_t k, CodeScratch* scratch) {
  TABSKETCH_CHECK(k > 0);
  scratch->hist_hi.assign(256, 0);
  uint32_t* hist = scratch->hist_hi.data();
  for (size_t i = 0; i < k; ++i) ++hist[diff[i]];
  return SelectPairFromHistogram(hist, (k - 1) / 2, k / 2);
}

double MedianOfDiffs16(const uint16_t* diff, size_t k, CodeScratch* scratch) {
  TABSKETCH_CHECK(k > 0);
  const size_t r0 = (k - 1) / 2;
  const size_t r1 = k / 2;

  // Pass 1: histogram of high bytes locates the bucket(s) holding the two
  // middle order statistics.
  scratch->hist_hi.assign(256, 0);
  uint32_t* hi = scratch->hist_hi.data();
  for (size_t i = 0; i < k; ++i) ++hi[diff[i] >> 8];
  size_t cumulative = 0;
  size_t bucket0 = 256, bucket1 = 256;
  size_t rank0 = 0, rank1 = 0;  // ranks within their buckets
  for (size_t bucket = 0; bucket < 256; ++bucket) {
    const size_t next = cumulative + hi[bucket];
    if (bucket0 == 256 && next > r0) {
      bucket0 = bucket;
      rank0 = r0 - cumulative;
    }
    if (next > r1) {
      bucket1 = bucket;
      rank1 = r1 - cumulative;
      break;
    }
    cumulative = next;
  }
  TABSKETCH_CHECK(bucket0 < 256 && bucket1 < 256);

  // Pass 2: low-byte histograms for just the bucket(s) that matter.
  scratch->hist_lo0.assign(256, 0);
  uint32_t* lo0 = scratch->hist_lo0.data();
  uint32_t* lo1 = lo0;
  if (bucket1 != bucket0) {
    scratch->hist_lo1.assign(256, 0);
    lo1 = scratch->hist_lo1.data();
  }
  for (size_t i = 0; i < k; ++i) {
    const size_t high = diff[i] >> 8;
    if (high == bucket0) {
      ++lo0[diff[i] & 0xff];
    } else if (high == bucket1) {
      ++lo1[diff[i] & 0xff];
    }
  }
  auto low_select = [](const uint32_t* lo, size_t rank) -> size_t {
    size_t seen = 0;
    for (size_t value = 0; value < 256; ++value) {
      seen += lo[value];
      if (seen > rank) return value;
    }
    TABSKETCH_CHECK(false);
    std::abort();
  };
  const size_t v0 = (bucket0 << 8) | low_select(lo0, rank0);
  const size_t v1 = (bucket1 << 8) | low_select(lo1, rank1);
  return 0.5 * static_cast<double>(v0 + v1);
}

double MedianAbsDiff(const uint8_t* a, const uint8_t* b, size_t k,
                     CodeScratch* scratch) {
  AbsDiff(a, b, k, &scratch->diff);
  return MedianOfDiffs8(scratch->diff.data(), k, scratch);
}

double MedianAbsDiff(const uint16_t* a, const uint16_t* b, size_t k,
                     CodeScratch* scratch) {
  AbsDiff(a, b, k, &scratch->diff);
  return MedianOfDiffs16(scratch->diff.data(), k, scratch);
}

}  // namespace tabsketch::core::kernels
