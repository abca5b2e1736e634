// Out-of-core synthetic instance generator: emits the binary ".accui"
// format (core/instance_format.hpp) directly, in batched section writes,
// with resident memory bounded by O(n) per-node arrays plus one bucket
// buffer — never the O(m) edge set.  A 10M-node twitter-like instance
// packs on a laptop.
//
// Pipeline (details in stream_gen.cpp):
//
//   1. Generate edges row by row (rank-weighted power-law partners, each
//      row's stream an independent CounterRng-seeded Rng, so output is
//      independent of batching) into a sorted (lo,hi) uint32 spool file.
//   2. One spool scan selects cautious users (greedy by id over the
//      degree-window pool, never two adjacent — the streaming analogue of
//      datasets.hpp's protocol).
//   3. Stream the format's sections through BinaryInstanceWriter: the CSR
//      adjacency is produced by repeated sequential spool scans scattering
//      into row-aligned buckets of at most `batch_bytes`; the endpoints
//      section is the spool itself; everything per-node streams from the
//      O(n) arrays; edge probabilities and acceptance draws are
//      counter-based (util::CounterRng), so any subrange regenerates
//      independently.
//
// Determinism: the output file is byte-identical for a fixed config
// regardless of `batch_bytes` — bucket boundaries only choose which pass
// writes a slot, never its value.  All I/O goes through util::IoEnv
// (AtomicFileWriter for the spool and the target), so the FaultyFs suite
// covers ENOSPC / crash mid-generation: the target path either appears
// complete or not at all.

#pragma once

#include <cstdint>
#include <string>

#include "util/error.hpp"

namespace accu::datasets {

struct StreamGenConfig {
  std::uint64_t num_nodes = 1'000'000;
  /// Target mean total degree (edges ≈ n·avg_degree/2).
  double avg_degree = 16.0;
  /// Degree-tail exponent of the rank-weighted row rates; (2, 8].
  double alpha = 2.5;
  /// Cautious-selection protocol (same knobs as datasets::DatasetConfig).
  std::uint32_t num_cautious = 100;
  std::uint32_t cautious_degree_min = 10;
  std::uint32_t cautious_degree_max = 100;
  double threshold_fraction = 0.3;
  double cautious_friend_benefit = 50.0;
  double reckless_friend_benefit = 2.0;
  double fof_benefit = 1.0;
  std::uint64_t seed = 1;
  /// Bucket buffer cap for the scatter passes (floored at 64 KiB; a single
  /// hub row larger than the cap gets a bucket of its own).
  std::uint64_t batch_bytes = 64ull << 20;

  /// Throws InvalidArgument on out-of-range knobs.
  void validate() const;
};

struct StreamGenStats {
  std::uint64_t num_nodes = 0;
  std::uint64_t num_edges = 0;
  std::uint32_t num_cautious = 0;
  /// Sequential scans of the edge spool (observability for the batching
  /// trade-off: smaller buckets -> more scans).
  std::uint64_t spool_scans = 0;
};

/// Generates the configured instance into `path` (binary format, atomic
/// publish).  The edge spool lives at `path + ".spool"` for the duration
/// and is unlinked before returning.  Throws InvalidArgument for bad
/// configs and IoError (DiskFullError / SyncFailedError) for I/O failures.
StreamGenStats generate_instance_stream(const StreamGenConfig& config,
                                        const std::string& path);

}  // namespace accu::datasets
