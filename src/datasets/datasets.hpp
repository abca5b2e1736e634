// Dataset factory reproducing the paper's experimental setup (§IV-A).
//
// The paper evaluates on four SNAP snapshots (Table I):
//
//     Network    Nodes   Edges   Kind
//     Facebook   4k      88k     Social
//     Slashdot   77k     905k    Social
//     Twitter    81k     1.77M   Social
//     DBLP       317k    1.05M   Collaboration
//
// The raw snapshots are not redistributable here, so each dataset is
// substituted by a synthetic generator tuned to the snapshot's size, mean
// degree, degree-tail and clustering (the properties the paper's phenomena
// depend on — see DESIGN.md §4):
//
//     facebook  — Holme–Kim, 4,039 nodes, mean degree ≈ 43.7, high
//                 clustering (the FB ego networks are locally dense);
//     slashdot  — power-law configuration model (γ ≈ 2.5), 77,360 nodes,
//                 mean degree ≈ 23.4;
//     twitter   — Holme–Kim with moderate clustering, 81,306 nodes, mean
//                 degree ≈ 43.6;
//     dblp      — overlapping communities (co-authorship cliques),
//                 317,080 nodes, mean degree ≈ 6.6.
//
// `scale` shrinks node counts (mean degree is preserved) so the full bench
// suite stays laptop-fast; `--scale=1` reproduces paper-sized networks.
//
// On top of the topology the factory applies the paper's §IV-A protocol:
//   * edge existence probabilities  p_uv ~ U[0,1);
//   * acceptance probabilities      q_u  ~ U[0,1) for reckless users;
//   * benefits B_f = 2 (reckless) / `cautious_friend_benefit` (cautious),
//     B_fof = 1 for everyone;
//   * cautious users drawn uniformly among nodes of degree ∈ [10,100],
//     iteratively, skipping any node adjacent to an already-selected one
//     (so no cautious–cautious edges exist), 100 users at full scale;
//   * thresholds θ_v = max(1, round(`threshold_fraction` · deg(v))).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "util/rng.hpp"

namespace accu::datasets {

struct DatasetSpec {
  std::string name;          ///< factory key
  std::string kind;          ///< "Social" / "Collaboration" (Table I)
  NodeId paper_nodes;        ///< Table I node count
  std::uint64_t paper_edges; ///< Table I edge count
};

/// The four paper datasets, in Table I order.
[[nodiscard]] const std::vector<DatasetSpec>& paper_datasets();

/// Looks a spec up by name; throws InvalidArgument for unknown names.
[[nodiscard]] const DatasetSpec& dataset_spec(const std::string& name);

struct DatasetConfig {
  /// Linear node-count scale relative to the paper's snapshot (mean degree
  /// is preserved).  1.0 = paper-sized.
  double scale = 1.0;
  /// Number of cautious users to select (paper: 100).  Clamped to the
  /// eligible pool size.
  std::uint32_t num_cautious = 100;
  /// Cautious users' friend benefit B_f (paper sweeps 20..100; Fig. 2 uses
  /// 50).
  double cautious_friend_benefit = 50.0;
  /// θ_v as a fraction of deg(v) (paper: 0.3).
  double threshold_fraction = 0.3;
  /// Reckless users' friend benefit (paper: 2).
  double reckless_friend_benefit = 2.0;
  /// Everyone's friend-of-friend benefit (paper: 1).
  double fof_benefit = 1.0;
  /// Cautious-eligibility degree window (paper: [10, 100]).
  std::uint32_t cautious_degree_min = 10;
  std::uint32_t cautious_degree_max = 100;
  /// Generalized cautious model (§III-B): acceptance probability below /
  /// at-or-above the threshold.  The defaults (0, 1) are the paper's
  /// deterministic linear-threshold model.
  double cautious_below_prob = 0.0;
  double cautious_above_prob = 1.0;
};

/// Builds one sample network of the named dataset.  All randomness
/// (topology, probabilities, cautious selection) comes from `rng`.
[[nodiscard]] AccuInstance make_dataset(const std::string& name,
                                        const DatasetConfig& config,
                                        util::Rng& rng);

/// Generates only the topology of the named dataset at `scale` (edge
/// probabilities all 1, no partition) — used by Table I reporting and the
/// generator statistics tests.
[[nodiscard]] Graph make_topology(const std::string& name, double scale,
                                  util::Rng& rng);

/// Builds an instance from a real edge-list snapshot (e.g. an actual SNAP
/// file, which this repo cannot ship): reads the file with graph::
/// read_edge_list_file semantics, re-draws every edge probability from
/// U[0,1) per the paper's §IV-A protocol (any probabilities in the file
/// are ignored), then applies the same cautious-selection / q / benefit /
/// threshold pipeline as the synthetic factories.  `config.scale` is
/// ignored — the file defines the topology.
[[nodiscard]] AccuInstance make_dataset_from_edge_list(
    const std::string& path, const DatasetConfig& config, util::Rng& rng);

/// Selects cautious users per the paper's protocol on an arbitrary graph:
/// uniformly among nodes with degree in [degree_min, degree_max],
/// iteratively, never selecting two adjacent nodes.  Returns ascending
/// node ids; the result may be shorter than `count` if the pool is small.
[[nodiscard]] std::vector<NodeId> select_cautious_users(
    const Graph& graph, std::uint32_t count, std::uint32_t degree_min,
    std::uint32_t degree_max, util::Rng& rng);

/// Assembles an AccuInstance from a topology and a cautious-user set,
/// applying the §IV-A acceptance/benefit/threshold protocol (edge
/// probabilities are taken from `graph` as-is).  The graph is taken by
/// value: move it in to hand its CSR arrays to the instance uncopied.
[[nodiscard]] AccuInstance assemble_instance(Graph graph,
                                             const std::vector<NodeId>& cautious,
                                             const DatasetConfig& config,
                                             util::Rng& rng);

}  // namespace accu::datasets
