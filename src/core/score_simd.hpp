// The SIMD kernel seam for the score/sampling hot loops (DESIGN.md §16).
//
// Two data-parallel kernels sit under the potential stack and the
// realization sampler:
//
//   row_gather_mul — Σ_s values[s] · table[nodes[s]] over one CSR row: the
//     P_D multiply-mask sum (values = d_init, table = active mask) and the
//     P_I sum (values = i_gain, table = 1/(θ−m) gaps) of both `score_batch`
//     and the incremental ScoreEngine's refresh over its node tables.
//   bernoulli_pack — bits[i] = (raw[i] >> 11) < thr[i], packed 64 per word:
//     the batched Bernoulli compare of `Realization::resample`
//     (see util::Rng::bernoulli_threshold for the exactness proof).
//
// Determinism contract.  Every implementation — portable scalar, AVX2,
// NEON — produces bit-identical doubles, because all of them evaluate the
// *canonical reduction order*: four stride-4 lane accumulators
// (lane = slot position mod 4, each term rounded exactly as written, no
// FMA contraction) combined as (l0 + l2) + (l1 + l3).  The scalar
// reference (AbmStrategy::direct_gain / indirect_gain), the incremental
// ScoreEngine, and score_batch all share this order, so switching ISAs,
// chunking a batch, or changing `cell_threads` never changes a single
// reported bit.  The build enforces `-ffp-contract=off` so `-march=native`
// builds cannot silently fuse the scalar lanes into FMAs.
//
// Runtime dispatch.  A process-wide kernel table selected once (lazily, or
// explicitly via `select_isa` from config/CLI): `auto` resolves to the best
// ISA the CPU supports, overridable by the ACCU_SIMD environment variable
// (scalar|avx2|neon; unknown or unsupported values fall back to auto so a
// stale env var can't crash a run — config/CLI selection, by contrast,
// throws on unsupported ISAs).  The table pointer is atomic; selection is
// meant to happen before worker threads spin up (the experiment harness
// selects in run_experiment, serve workers inherit the descriptor's choice).

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#include "core/types.hpp"

namespace accu::simd {

enum class Isa : std::uint8_t { kScalar = 0, kAvx2 = 1, kNeon = 2 };

/// The kernel table of one ISA.  All entries obey the canonical reduction
/// order above; swapping tables never changes results, only speed.
struct ScoreKernels {
  Isa id;
  /// Canonical lane-reduced Σ values[s]·table[nodes[s]] for s in [s0, s1).
  double (*row_gather_mul)(const double* values, const NodeId* nodes,
                           const double* table, std::uint32_t s0,
                           std::uint32_t s1);
  /// out_words bit i = (raw[i] >> 11) < thr[i], LSB-first, for i in [0, n);
  /// tail bits of the last word are zeroed.
  void (*bernoulli_pack)(const std::uint64_t* raw, const std::uint64_t* thr,
                         std::size_t n, std::uint64_t* out_words);
};

/// Whether this build + CPU can run `isa`'s kernels.
[[nodiscard]] bool isa_supported(Isa isa) noexcept;

/// The fastest supported ISA (kScalar is always supported).
[[nodiscard]] Isa best_isa() noexcept;

/// The ISA of the currently active kernel table.
[[nodiscard]] Isa active_isa() noexcept;

/// Parses "auto" / "scalar" / "avx2" / "neon"; nullopt means auto.
/// Throws InvalidArgument on anything else.  Accepts every ISA name on
/// every platform (a serve descriptor written on an ARM box must parse on
/// x86); support is checked at select time.
[[nodiscard]] std::optional<Isa> parse_isa(std::string_view spec);

/// Display name ("scalar", "avx2", "neon").
[[nodiscard]] const char* isa_name(Isa isa) noexcept;

/// Activates `isa`'s kernel table; throws InvalidArgument when unsupported.
void select_isa(Isa isa);

/// Activates the automatic choice: ACCU_SIMD when set to something valid
/// and supported, otherwise best_isa().
void select_auto() noexcept;

/// Convenience: nullopt → select_auto(), value → select_isa(*choice).
void select(std::optional<Isa> choice);

/// The active kernel table (resolved via select_auto on first use).
[[nodiscard]] const ScoreKernels& kernels() noexcept;

}  // namespace accu::simd
