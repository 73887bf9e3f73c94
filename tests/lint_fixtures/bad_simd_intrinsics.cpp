// Known-bad fixture for simd-intrinsics-confined: raw AVX2 intrinsics in
// an ordinary translation unit instead of behind the word kernels of
// src/util/bitplane.h. This file is linted, never compiled — it
// demonstrates the shape the check must catch: a hand-rolled vector loop
// that no per-bit model test holds to a reference.
// salsa-lint: expect(simd-intrinsics-confined)
#include <immintrin.h>

#include <cstdint>

namespace salsa {

void or_rows_unconfined(uint64_t* acc, const uint64_t* row, int n) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i),
                        _mm256_or_si256(a, b));
  }
  for (; i < n; ++i) acc[i] |= row[i];
}

}  // namespace salsa
