// NEON (AArch64 Advanced SIMD) kernels.  Two 2-lane f64 accumulators model
// the four canonical stride-4 lanes: acc01 holds (l0, l1), acc23 holds
// (l2, l3); vaddq_f64(acc01, acc23) = (l0+l2, l1+l3) and the final scalar
// add spells out (l0 + l2) + (l1 + l3) — bit-identical to the scalar
// canonical kernels (vmulq/vaddq are plain IEEE multiplies/adds; no fused
// intrinsics are used and the build adds -ffp-contract=off).

#include "core/score_simd.hpp"

#if defined(__aarch64__) && !defined(ACCU_SCALAR_ONLY)

#include <arm_neon.h>

namespace accu::simd {

namespace {

double row_gather_mul_neon(const double* values, const NodeId* nodes,
                           const double* table, std::uint32_t s0,
                           std::uint32_t s1) {
  float64x2_t acc01 = vdupq_n_f64(0.0);
  float64x2_t acc23 = vdupq_n_f64(0.0);
  std::uint32_t s = s0;
  for (; s + 4 <= s1; s += 4) {
    // NEON has no gather; assemble the table lanes with scalar loads.
    const float64x2_t t01 =
        vcombine_f64(vld1_f64(table + nodes[s]), vld1_f64(table + nodes[s + 1]));
    const float64x2_t t23 = vcombine_f64(vld1_f64(table + nodes[s + 2]),
                                         vld1_f64(table + nodes[s + 3]));
    const float64x2_t v01 = vld1q_f64(values + s);
    const float64x2_t v23 = vld1q_f64(values + s + 2);
    acc01 = vaddq_f64(acc01, vmulq_f64(v01, t01));
    acc23 = vaddq_f64(acc23, vmulq_f64(v23, t23));
  }
  double lanes[4] = {vgetq_lane_f64(acc01, 0), vgetq_lane_f64(acc01, 1),
                     vgetq_lane_f64(acc23, 0), vgetq_lane_f64(acc23, 1)};
  for (; s < s1; ++s) {
    lanes[(s - s0) & 3] += values[s] * table[nodes[s]];
  }
  return (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
}

void bernoulli_pack_neon(const std::uint64_t* raw, const std::uint64_t* thr,
                         std::size_t n, std::uint64_t* out_words) {
  std::size_t i = 0;
  std::size_t w = 0;
  for (; i + 64 <= n; i += 64, ++w) {
    std::uint64_t bits = 0;
    for (unsigned j = 0; j < 64; j += 2) {
      const uint64x2_t r = vshrq_n_u64(vld1q_u64(raw + i + j), 11);
      const uint64x2_t t = vld1q_u64(thr + i + j);
      const uint64x2_t lt = vcltq_u64(r, t);
      bits |= (vgetq_lane_u64(lt, 0) & 1u) << j;
      bits |= (vgetq_lane_u64(lt, 1) & 1u) << (j + 1);
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

constexpr ScoreKernels kNeonKernels{Isa::kNeon, &row_gather_mul_neon,
                                    &bernoulli_pack_neon};

}  // namespace

const ScoreKernels& neon_kernels() noexcept { return kNeonKernels; }

}  // namespace accu::simd

#endif  // __aarch64__
