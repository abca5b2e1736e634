// Portable-scalar kernels + the runtime ISA dispatch table.
//
// The scalar kernels below ARE the canonical reduction-order definition
// (see score_simd.hpp): four stride-4 lane accumulators combined as
// (l0 + l2) + (l1 + l3).  The vector TUs (score_simd_avx2.cpp,
// score_simd_neon.cpp) must reproduce these bit for bit — the Score suite
// pins them against each other under every forced ISA.

#include "core/score_simd.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

#include "util/error.hpp"

namespace accu::simd {

namespace {

double row_gather_mul_scalar(const double* values, const NodeId* nodes,
                             const double* table, std::uint32_t s0,
                             std::uint32_t s1) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  std::uint32_t s = s0;
  for (; s + 4 <= s1; s += 4) {
    l0 += values[s] * table[nodes[s]];
    l1 += values[s + 1] * table[nodes[s + 1]];
    l2 += values[s + 2] * table[nodes[s + 2]];
    l3 += values[s + 3] * table[nodes[s + 3]];
  }
  double lanes[4] = {l0, l1, l2, l3};
  for (; s < s1; ++s) {
    lanes[(s - s0) & 3] += values[s] * table[nodes[s]];
  }
  return (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
}

void bernoulli_pack_scalar(const std::uint64_t* raw, const std::uint64_t* thr,
                           std::size_t n, std::uint64_t* out_words) {
  std::size_t i = 0;
  std::size_t w = 0;
  for (; i + 64 <= n; i += 64, ++w) {
    std::uint64_t bits = 0;
    for (unsigned j = 0; j < 64; ++j) {
      bits |= static_cast<std::uint64_t>((raw[i + j] >> 11) < thr[i + j]) << j;
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

constexpr ScoreKernels kScalarKernels{Isa::kScalar, &row_gather_mul_scalar,
                                      &bernoulli_pack_scalar};

std::atomic<const ScoreKernels*> g_active{nullptr};

}  // namespace

// Defined in the per-ISA TUs; only referenced when the build includes them
// (an ACCU_SCALAR_ONLY build compiles those TUs to empty stubs, so the
// scalar table is the only dispatch tail and vector ISAs are unsupported).
#if (defined(__x86_64__) || defined(__i386__)) && !defined(ACCU_SCALAR_ONLY)
const ScoreKernels& avx2_kernels() noexcept;
#endif
#if defined(__aarch64__) && !defined(ACCU_SCALAR_ONLY)
const ScoreKernels& neon_kernels() noexcept;
#endif

bool isa_supported(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#if (defined(__x86_64__) || defined(__i386__)) && !defined(ACCU_SCALAR_ONLY)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Isa::kNeon:
#if defined(__aarch64__) && !defined(ACCU_SCALAR_ONLY)
      return true;  // AArch64 mandates Advanced SIMD
#else
      return false;
#endif
  }
  return false;
}

Isa best_isa() noexcept {
  if (isa_supported(Isa::kAvx2)) return Isa::kAvx2;
  if (isa_supported(Isa::kNeon)) return Isa::kNeon;
  return Isa::kScalar;
}

namespace {

const ScoreKernels& table_for(Isa isa) noexcept {
  switch (isa) {
#if (defined(__x86_64__) || defined(__i386__)) && !defined(ACCU_SCALAR_ONLY)
    case Isa::kAvx2:
      return avx2_kernels();
#endif
#if defined(__aarch64__) && !defined(ACCU_SCALAR_ONLY)
    case Isa::kNeon:
      return neon_kernels();
#endif
    default:
      return kScalarKernels;
  }
}

/// The auto choice: a valid + supported ACCU_SIMD wins, else best_isa().
Isa resolve_auto() noexcept {
  if (const char* env = std::getenv("ACCU_SIMD")) {
    const std::string_view spec(env);
    if (spec == "scalar") return Isa::kScalar;
    if (spec == "avx2" && isa_supported(Isa::kAvx2)) return Isa::kAvx2;
    if (spec == "neon" && isa_supported(Isa::kNeon)) return Isa::kNeon;
    // Unknown or unsupported: fall through to the hardware default — a
    // stale env var must not crash or silently de-vectorize a run on a
    // different box.
  }
  return best_isa();
}

}  // namespace

const char* isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
  }
  return "?";
}

std::optional<Isa> parse_isa(std::string_view spec) {
  if (spec == "auto") return std::nullopt;
  if (spec == "scalar") return Isa::kScalar;
  if (spec == "avx2") return Isa::kAvx2;
  if (spec == "neon") return Isa::kNeon;
  throw InvalidArgument("simd: expected auto|scalar|avx2|neon, got '" +
                              std::string(spec) + "'");
}

void select_isa(Isa isa) {
  if (!isa_supported(isa)) {
    throw InvalidArgument(std::string("simd: ISA '") + isa_name(isa) +
                                "' is not supported on this host");
  }
  g_active.store(&table_for(isa), std::memory_order_release);
}

void select_auto() noexcept {
  g_active.store(&table_for(resolve_auto()), std::memory_order_release);
}

void select(std::optional<Isa> choice) {
  if (choice.has_value()) {
    select_isa(*choice);
  } else {
    select_auto();
  }
}

const ScoreKernels& kernels() noexcept {
  const ScoreKernels* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    k = &table_for(resolve_auto());
    g_active.store(k, std::memory_order_release);
  }
  return *k;
}

Isa active_isa() noexcept { return kernels().id; }

}  // namespace accu::simd
