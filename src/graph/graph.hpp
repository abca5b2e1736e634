// Immutable undirected graph with per-edge existence probabilities.
//
// This is the network substrate of the reproduction: the paper models an OSN
// as G = (V, E, p) where E is the set of *potential* friendships and
// p : E -> [0,1] gives each edge's existence probability (§II-A).  The
// attacker's prior knowledge is exactly this object; ground-truth networks
// are sampled from it (core/realization.hpp).
//
// Storage is compressed sparse rows (CSR) with sorted adjacency, so
// neighborhood scans are cache-friendly and `find_edge` is a binary search.
// Each undirected edge has a single EdgeId shared by both directions, which
// lets per-edge observation state live in flat arrays indexed by EdgeId.
//
// Graphs are built through GraphBuilder (which validates and deduplicates)
// and never mutated afterwards; every policy/simulator structure keeps a
// `const Graph&`.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace accu::graph {

/// Node index in [0, num_nodes).
using NodeId = std::uint32_t;
/// Undirected edge index in [0, num_edges); shared by both directions.
using EdgeId = std::uint32_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);
inline constexpr EdgeId kInvalidEdge = static_cast<EdgeId>(-1);

/// One adjacency entry: the neighbor and the undirected edge reaching it.
struct Neighbor {
  NodeId node;
  EdgeId edge;
};

/// Endpoints of an undirected edge, normalized so `lo < hi`.
struct EdgeEndpoints {
  NodeId lo;
  NodeId hi;
};

class GraphBuilder;

class Graph {
 public:
  /// Empty graph (0 nodes); useful as a default-constructed placeholder.
  Graph() = default;

  [[nodiscard]] NodeId num_nodes() const noexcept {
    return static_cast<NodeId>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }
  [[nodiscard]] EdgeId num_edges() const noexcept {
    return static_cast<EdgeId>(endpoints_.size());
  }

  [[nodiscard]] ACCU_ALWAYS_INLINE std::uint32_t degree(NodeId v) const {
    ACCU_ASSERT(v < num_nodes());
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Adjacency of `v`, sorted by neighbor id.
  [[nodiscard]] ACCU_ALWAYS_INLINE std::span<const Neighbor> neighbors(
      NodeId v) const {
    ACCU_ASSERT(v < num_nodes());
    return {adjacency_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// Existence probability of edge `e` (the paper's p_uv).
  [[nodiscard]] ACCU_ALWAYS_INLINE double edge_prob(EdgeId e) const {
    ACCU_ASSERT(e < num_edges());
    return probs_[e];
  }

  [[nodiscard]] EdgeEndpoints endpoints(EdgeId e) const {
    ACCU_ASSERT(e < num_edges());
    return endpoints_[e];
  }

  /// Binary-searches `u`'s adjacency for `v`; O(log deg(u)).
  [[nodiscard]] std::optional<EdgeId> find_edge(NodeId u, NodeId v) const;

  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const {
    return find_edge(u, v).has_value();
  }

  /// Sum of incident edge probabilities — the attacker's *expected* degree
  /// of `v` under the prior; used by the MaxDegree baseline.
  [[nodiscard]] double expected_degree(NodeId v) const;

  /// Total probability mass of all edges (expected edge count).
  [[nodiscard]] double expected_num_edges() const;

  // --- raw CSR views + trusted-load factory (binary instance format) ------

  /// Raw CSR arrays, exposed for serialization (core/instance_format):
  /// row offsets into `raw_adjacency` (size n+1), one Neighbor per
  /// direction (size 2m, sorted per row), per-edge priors and normalized
  /// endpoints in EdgeId order.
  [[nodiscard]] std::span<const std::size_t> raw_offsets() const noexcept {
    return offsets_;
  }
  [[nodiscard]] std::span<const Neighbor> raw_adjacency() const noexcept {
    return adjacency_;
  }
  [[nodiscard]] std::span<const double> raw_probs() const noexcept {
    return probs_;
  }
  [[nodiscard]] std::span<const EdgeEndpoints> raw_endpoints()
      const noexcept {
    return endpoints_;
  }

  /// Adopts pre-built CSR arrays after a single linear validation pass —
  /// the zero-parse load path of the binary instance format.  Checks, in
  /// O(V + E) with no hashing or sorting: offsets start at 0, are
  /// monotonic, stay within adjacency.size() == 2·endpoints.size() (each
  /// row is bounds-checked before it is scanned) and end there; every
  /// row is strictly ascending by neighbor id (which excludes duplicate
  /// edges and self-loops); every slot's edge id is in range and its
  /// endpoints entry matches the slot's (row, neighbor) pair — which,
  /// with strict sortedness, forces each edge to appear exactly once per
  /// direction; endpoints are normalized (lo < hi) and probabilities lie
  /// in [0,1].  Throws InvalidArgument naming the first violation.
  [[nodiscard]] static Graph from_csr(NodeId num_nodes,
                                      std::vector<std::size_t> offsets,
                                      std::vector<Neighbor> adjacency,
                                      std::vector<double> probs,
                                      std::vector<EdgeEndpoints> endpoints);

 private:
  friend class GraphBuilder;

  std::vector<std::size_t> offsets_;    // size num_nodes + 1
  std::vector<Neighbor> adjacency_;     // size 2 * num_edges, sorted per row
  std::vector<double> probs_;           // size num_edges
  std::vector<EdgeEndpoints> endpoints_;  // size num_edges, lo < hi
};

/// Accumulates edges, validates them, and produces an immutable Graph.
///
/// Duplicate undirected edges and self-loops are rejected (generators that
/// may propose duplicates use `try_add_edge`; callers that emit each pair
/// once by construction use `append_edge`, which skips the duplicate set).
/// Edge probabilities default to 1 (a certain edge) and can be reassigned
/// in bulk before `build`, which is how the dataset factory applies the
/// paper's uniform-[0,1) priors without regenerating topology.
///
/// A builder is a plain value: copies own their edge lists and duplicate
/// sets, so edges added to one copy never affect another.
class GraphBuilder {
 public:
  explicit GraphBuilder(NodeId num_nodes);

  [[nodiscard]] NodeId num_nodes() const noexcept { return num_nodes_; }
  [[nodiscard]] std::size_t num_edges() const noexcept { return us_.size(); }

  /// Adds edge (u,v) with probability `p`.  Throws InvalidArgument on
  /// out-of-range endpoints, self-loops, p outside [0,1], or duplicates.
  void add_edge(NodeId u, NodeId v, double p = 1.0);

  /// Adds the edge unless it already exists; returns whether it was added.
  bool try_add_edge(NodeId u, NodeId v, double p = 1.0);

  /// Adds edge (u,v) without consulting the duplicate set.  Precondition:
  /// (u,v) is not in the builder yet.  Range, self-loop and probability
  /// checks still throw; a broken precondition is caught later, by the
  /// next `has_edge`/`try_add_edge`/`add_edge` or by `build`, which throw
  /// InvalidArgument rather than produce a corrupt Graph.
  void append_edge(NodeId u, NodeId v, double p = 1.0);

  /// Reserves room for `edges` edges in total.
  void reserve(std::size_t edges);

  /// Whether (u,v) was added.  Indexes any appended edges first, so even
  /// this const lookup must not race another call on the same builder.
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  /// Endpoints of the i-th added edge (insertion order).
  [[nodiscard]] EdgeEndpoints edge_at(std::size_t i) const;

  /// Overwrites the probability of the i-th added edge.
  void set_prob(std::size_t i, double p);

  /// Assigns every edge an independent probability uniform in [lo, hi)
  /// — the paper's §IV-A edge-probability protocol with [lo,hi) = [0,1).
  template <typename RngT>
  void assign_uniform_probs(RngT& rng, double lo = 0.0, double hi = 1.0) {
    for (auto& p : ps_) p = rng.uniform(lo, hi);
  }

  /// Finalizes into CSR form in O(V + E) with no sorting; edge ids are
  /// insertion indices.  Throws InvalidArgument if an appended edge
  /// repeated an earlier one.  The builder may be reused afterwards (its
  /// edge list is left intact).
  [[nodiscard]] Graph build() const;

 private:
  [[nodiscard]] static std::uint64_t key(NodeId u, NodeId v) noexcept;
  /// Throws InvalidArgument unless (u,v,p) is an in-range, loop-free edge
  /// with p in [0,1].
  void check_edge(NodeId u, NodeId v, double p) const;
  /// Slot holding `k`, or the empty slot where probing for it stopped.
  [[nodiscard]] std::size_t probe(std::uint64_t k) const noexcept;
  /// Extends the duplicate set over every edge in the list, growing it to
  /// hold at least `edges` keys at most half full; throws InvalidArgument
  /// if an appended edge is already present.
  void index(std::size_t edges) const;

  NodeId num_nodes_;
  std::vector<NodeId> us_, vs_;
  std::vector<double> ps_;
  // Duplicate set: packed (lo,hi) keys in a flat open-addressing table —
  // power-of-two size, Fibonacci hash, linear probing, at most half full.
  // lo < hi, so no edge packs to 0 and 0 marks an empty slot.  It covers
  // the first `indexed_` edges of the list; edges appended past them are
  // indexed on the next lookup, so a builder fed only by `append_edge`
  // never fills it.  The lookups are const, hence `mutable`.
  mutable std::vector<std::uint64_t> slots_;
  mutable int shift_ = 64;  // 64 - log2(slots_.size())
  mutable std::size_t indexed_ = 0;
};

}  // namespace accu::graph
