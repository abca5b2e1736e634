#include "graph/graph.hpp"

#include <algorithm>
#include <bit>
#include <string>

namespace accu::graph {

std::optional<EdgeId> Graph::find_edge(NodeId u, NodeId v) const {
  ACCU_ASSERT(u < num_nodes() && v < num_nodes());
  // Search the smaller adjacency row.
  if (degree(v) < degree(u)) std::swap(u, v);
  const auto adj = neighbors(u);
  const auto it = std::lower_bound(
      adj.begin(), adj.end(), v,
      [](const Neighbor& n, NodeId target) { return n.node < target; });
  if (it != adj.end() && it->node == v) return it->edge;
  return std::nullopt;
}

double Graph::expected_degree(NodeId v) const {
  double sum = 0.0;
  for (const Neighbor& n : neighbors(v)) sum += probs_[n.edge];
  return sum;
}

double Graph::expected_num_edges() const {
  double sum = 0.0;
  for (const double p : probs_) sum += p;
  return sum;
}

Graph Graph::from_csr(NodeId num_nodes, std::vector<std::size_t> offsets,
                      std::vector<Neighbor> adjacency,
                      std::vector<double> probs,
                      std::vector<EdgeEndpoints> endpoints) {
  const auto fail = [](const std::string& what) {
    throw InvalidArgument("Graph::from_csr: " + what);
  };
  if (num_nodes == kInvalidNode) fail("node count out of range");
  if (offsets.size() != static_cast<std::size_t>(num_nodes) + 1) {
    fail("offsets size " + std::to_string(offsets.size()) + " != n+1 = " +
         std::to_string(static_cast<std::size_t>(num_nodes) + 1));
  }
  const std::size_t m = endpoints.size();
  if (m >= static_cast<std::size_t>(kInvalidEdge)) fail("edge count overflow");
  if (probs.size() != m) {
    fail("probs size " + std::to_string(probs.size()) + " != m = " +
         std::to_string(m));
  }
  if (adjacency.size() != 2 * m) {
    fail("adjacency size " + std::to_string(adjacency.size()) +
         " != 2m = " + std::to_string(2 * m));
  }
  if (offsets.front() != 0 || offsets.back() != 2 * m) {
    fail("offsets must start at 0 and end at 2m");
  }
  for (std::size_t e = 0; e < m; ++e) {
    const auto [lo, hi] = endpoints[e];
    if (!(lo < hi && hi < num_nodes)) {
      fail("edge " + std::to_string(e) + " endpoints (" + std::to_string(lo) +
           "," + std::to_string(hi) + ") not normalized in-range");
    }
    if (!(probs[e] >= 0.0 && probs[e] <= 1.0)) {
      fail("edge " + std::to_string(e) + " probability outside [0,1]");
    }
  }
  // One linear sweep establishes everything else.  Per row: offsets
  // monotonic, neighbors strictly ascending (no duplicates), no self-loops,
  // edge ids in range, and each slot's endpoints entry equal to its own
  // (row, neighbor) pair.  Since endpoints[e] pins exactly one (lo,hi) and
  // strict sortedness forbids repeating a pair within a row, edge e can
  // label at most the slot lo->hi and the slot hi->lo — at most twice over
  // the whole adjacency.  With sum(row lengths) == 2m slots total and m
  // distinct edges that "at most twice" is forced to "exactly twice", so no
  // per-edge counter array is needed.
  for (NodeId u = 0; u < num_nodes; ++u) {
    const std::size_t begin = offsets[u];
    const std::size_t end = offsets[u + 1];
    if (begin > end) {
      fail("offsets not monotonic at node " + std::to_string(u));
    }
    // Bound the row *before* indexing it: pairwise monotonicity alone lets
    // offsets like [0, huge, 2m] send the inner loop far past adjacency.
    if (end > adjacency.size()) {
      fail("offsets exceed 2m at node " + std::to_string(u));
    }
    NodeId prev = kInvalidNode;
    for (std::size_t s = begin; s < end; ++s) {
      const auto [v, e] = adjacency[s];
      if (v == u) fail("self-loop on node " + std::to_string(u));
      if (v >= num_nodes) {
        fail("neighbor out of range in row " + std::to_string(u));
      }
      if (prev != kInvalidNode && v <= prev) {
        fail("row " + std::to_string(u) +
             " not strictly ascending (duplicate or unsorted neighbor " +
             std::to_string(v) + ")");
      }
      prev = v;
      if (e >= m) {
        fail("edge id " + std::to_string(e) + " out of range in row " +
             std::to_string(u));
      }
      if (endpoints[e].lo != std::min(u, v) ||
          endpoints[e].hi != std::max(u, v)) {
        fail("slot (" + std::to_string(u) + "," + std::to_string(v) +
             ") disagrees with endpoints of edge " + std::to_string(e));
      }
    }
  }
  Graph g;
  g.offsets_ = std::move(offsets);
  g.adjacency_ = std::move(adjacency);
  g.probs_ = std::move(probs);
  g.endpoints_ = std::move(endpoints);
  return g;
}

GraphBuilder::GraphBuilder(NodeId num_nodes) : num_nodes_(num_nodes) {
  if (num_nodes == kInvalidNode) {
    throw InvalidArgument("GraphBuilder: node count out of range");
  }
}

std::uint64_t GraphBuilder::key(NodeId u, NodeId v) noexcept {
  const NodeId lo = std::min(u, v);
  const NodeId hi = std::max(u, v);
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

void GraphBuilder::check_edge(NodeId u, NodeId v, double p) const {
  if (u >= num_nodes_ || v >= num_nodes_) {
    throw InvalidArgument("GraphBuilder: endpoint out of range");
  }
  if (u == v) {
    throw InvalidArgument("GraphBuilder: self-loop on node " +
                          std::to_string(u));
  }
  if (!(p >= 0.0 && p <= 1.0)) {
    throw InvalidArgument("GraphBuilder: edge probability outside [0,1]");
  }
}

std::size_t GraphBuilder::probe(std::uint64_t k) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  auto i = static_cast<std::size_t>((k * 0x9E3779B97F4A7C15ULL) >> shift_);
  while (slots_[i] != k && slots_[i] != 0) i = (i + 1) & mask;
  return i;
}

void GraphBuilder::index(std::size_t edges) const {
  if (2 * edges > slots_.size()) {
    std::size_t size = slots_.empty() ? 16 : 2 * slots_.size();
    while (2 * edges > size) size *= 2;
    slots_.assign(size, 0);
    shift_ = 64 - std::countr_zero(size);
    for (std::size_t e = 0; e < indexed_; ++e) {
      const std::uint64_t k = key(us_[e], vs_[e]);
      slots_[probe(k)] = k;
    }
  }
  for (; indexed_ < us_.size(); ++indexed_) {
    const std::uint64_t k = key(us_[indexed_], vs_[indexed_]);
    const std::size_t slot = probe(k);
    if (slots_[slot] == k) {
      throw InvalidArgument("GraphBuilder: appended edge (" +
                            std::to_string(us_[indexed_]) + "," +
                            std::to_string(vs_[indexed_]) +
                            ") is a duplicate");
    }
    slots_[slot] = k;
  }
}

void GraphBuilder::add_edge(NodeId u, NodeId v, double p) {
  if (!try_add_edge(u, v, p)) {
    throw InvalidArgument("GraphBuilder: duplicate edge (" +
                          std::to_string(u) + "," + std::to_string(v) + ")");
  }
}

bool GraphBuilder::try_add_edge(NodeId u, NodeId v, double p) {
  check_edge(u, v, p);
  index(us_.size() + 1);
  const std::uint64_t k = key(u, v);
  const std::size_t slot = probe(k);
  if (slots_[slot] == k) return false;
  slots_[slot] = k;
  us_.push_back(std::min(u, v));
  vs_.push_back(std::max(u, v));
  ps_.push_back(p);
  ++indexed_;
  return true;
}

void GraphBuilder::append_edge(NodeId u, NodeId v, double p) {
  check_edge(u, v, p);
  us_.push_back(std::min(u, v));
  vs_.push_back(std::max(u, v));
  ps_.push_back(p);
}

void GraphBuilder::reserve(std::size_t edges) {
  us_.reserve(edges);
  vs_.reserve(edges);
  ps_.reserve(edges);
}

bool GraphBuilder::has_edge(NodeId u, NodeId v) const {
  // (u,u) would pack to the empty-slot marker 0 when u == 0.
  if (u == v) return false;
  index(us_.size());
  if (slots_.empty()) return false;
  const std::uint64_t k = key(u, v);
  return slots_[probe(k)] == k;
}

EdgeEndpoints GraphBuilder::edge_at(std::size_t i) const {
  ACCU_ASSERT(i < us_.size());
  return {us_[i], vs_[i]};
}

void GraphBuilder::set_prob(std::size_t i, double p) {
  ACCU_ASSERT(i < ps_.size());
  if (!(p >= 0.0 && p <= 1.0)) {
    throw InvalidArgument("GraphBuilder: edge probability outside [0,1]");
  }
  ps_[i] = p;
}

Graph GraphBuilder::build() const {
  Graph g;
  const std::size_t m = us_.size();
  g.offsets_.assign(static_cast<std::size_t>(num_nodes_) + 1, 0);
  g.probs_ = ps_;
  g.endpoints_.resize(m);
  for (std::size_t e = 0; e < m; ++e) {
    g.endpoints_[e] = {us_[e], vs_[e]};
    ++g.offsets_[us_[e] + 1];
    ++g.offsets_[vs_[e] + 1];
  }
  for (std::size_t v = 0; v < num_nodes_; ++v) {
    g.offsets_[v + 1] += g.offsets_[v];
  }
  // Two scatter passes instead of a per-row sort.  First bucket every edge
  // under both endpoints, in edge order; then walk the buckets by ascending
  // node w and append {w, e} to the row of each of w's neighbors.  Rows
  // fill in ascending neighbor order, so each comes out strictly sorted.
  std::vector<Neighbor> buckets(2 * m);
  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (std::size_t e = 0; e < m; ++e) {
    const auto eid = static_cast<EdgeId>(e);
    buckets[cursor[us_[e]]++] = {vs_[e], eid};
    buckets[cursor[vs_[e]]++] = {us_[e], eid};
  }
  // An edge appended twice puts w twice in a row of u, next to each other,
  // so one look at the slot before catches it.
  g.adjacency_.resize(2 * m);
  std::copy(g.offsets_.begin(), g.offsets_.end() - 1, cursor.begin());
  for (NodeId w = 0; w < num_nodes_; ++w) {
    for (std::size_t s = g.offsets_[w]; s < g.offsets_[w + 1]; ++s) {
      const auto [u, e] = buckets[s];
      const std::size_t slot = cursor[u]++;
      if (slot > g.offsets_[u] && g.adjacency_[slot - 1].node == w) {
        throw InvalidArgument("GraphBuilder: duplicate edge (" +
                              std::to_string(std::min(u, w)) + "," +
                              std::to_string(std::max(u, w)) + ")");
      }
      g.adjacency_[slot] = {w, e};
    }
  }
  return g;
}

}  // namespace accu::graph
