// AVX2 kernels.  Compiled with -mavx2 (per-file, so the rest of the build
// stays portable); only ever called through the dispatch table after a
// runtime __builtin_cpu_supports("avx2") check.
//
// Bit-exactness vs the scalar canonical kernels: vmulpd/vaddpd are the same
// IEEE-754 operations as the scalar multiplies/adds, lane j of the ymm
// accumulator is exactly the scalar lane-j accumulator (stride-4 slot
// positions), and the final combine spells out (l0 + l2) + (l1 + l3).
// Intrinsics are never contraction-fused by the compiler (and the build
// adds -ffp-contract=off besides), so there is no FMA rounding hazard.

#include "core/score_simd.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && !defined(ACCU_SCALAR_ONLY)

#include <immintrin.h>

namespace accu::simd {

namespace {

double row_gather_mul_avx2(const double* values, const NodeId* nodes,
                           const double* table, std::uint32_t s0,
                           std::uint32_t s1) {
  __m256d acc = _mm256_setzero_pd();
  // The masked gather with a zeroed source and an all-ones mask loads the
  // same four lanes as _mm256_i32gather_pd, whose GCC expansion reads an
  // uninitialized source register (-Wmaybe-uninitialized).
  const __m256d zero = _mm256_setzero_pd();
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  std::uint32_t s = s0;
  for (; s + 4 <= s1; s += 4) {
    const __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(nodes + s));
    const __m256d t = _mm256_mask_i32gather_pd(zero, table, idx, all, 8);
    const __m256d v = _mm256_loadu_pd(values + s);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(v, t));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  for (; s < s1; ++s) {
    lanes[(s - s0) & 3] += values[s] * table[nodes[s]];
  }
  return (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
}

void bernoulli_pack_avx2(const std::uint64_t* raw, const std::uint64_t* thr,
                         std::size_t n, std::uint64_t* out_words) {
  // (raw >> 11) < thr as a *signed* 64-bit compare: both sides are < 2^53
  // (53 mantissa bits / ceil(p·2^53) with p < 1), so the sign bit is never
  // set and signed == unsigned.
  std::size_t i = 0;
  std::size_t w = 0;
  for (; i + 64 <= n; i += 64, ++w) {
    std::uint64_t bits = 0;
    for (unsigned j = 0; j < 64; j += 4) {
      const __m256i r = _mm256_srli_epi64(
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(raw + i + j)),
          11);
      const __m256i t = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(thr + i + j));
      const __m256i lt = _mm256_cmpgt_epi64(t, r);
      bits |= static_cast<std::uint64_t>(
                  _mm256_movemask_pd(_mm256_castsi256_pd(lt)))
              << j;
    }
    out_words[w] = bits;
  }
  if (i < n) {
    std::uint64_t bits = 0;
    for (unsigned j = 0; i + j < n; ++j) {
      bits |= static_cast<std::uint64_t>((raw[i + j] >> 11) < thr[i + j]) << j;
    }
    out_words[w] = bits;
  }
}

constexpr ScoreKernels kAvx2Kernels{Isa::kAvx2, &row_gather_mul_avx2,
                                    &bernoulli_pack_avx2};

}  // namespace

const ScoreKernels& avx2_kernels() noexcept { return kAvx2Kernels; }

}  // namespace accu::simd

#endif  // x86
