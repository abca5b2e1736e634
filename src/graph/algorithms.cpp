#include "graph/algorithms.hpp"

#include <algorithm>
#include <deque>
#include <numeric>

namespace accu::graph {

std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId source) {
  ACCU_ASSERT(source < g.num_nodes());
  std::vector<std::uint32_t> dist(g.num_nodes(), kUnreachable);
  std::deque<NodeId> queue;
  dist[source] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (const Neighbor& n : g.neighbors(u)) {
      if (dist[n.node] == kUnreachable) {
        dist[n.node] = dist[u] + 1;
        queue.push_back(n.node);
      }
    }
  }
  return dist;
}

Components connected_components(const Graph& g) {
  Components out;
  out.label.assign(g.num_nodes(), kUnreachable);
  std::vector<NodeId> stack;
  for (NodeId start = 0; start < g.num_nodes(); ++start) {
    if (out.label[start] != kUnreachable) continue;
    const std::uint32_t id = out.count++;
    out.label[start] = id;
    stack.push_back(start);
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (const Neighbor& n : g.neighbors(u)) {
        if (out.label[n.node] == kUnreachable) {
          out.label[n.node] = id;
          stack.push_back(n.node);
        }
      }
    }
  }
  return out;
}

std::vector<NodeId> largest_component(const Graph& g) {
  const Components comps = connected_components(g);
  if (comps.count == 0) return {};
  std::vector<std::size_t> size(comps.count, 0);
  for (const std::uint32_t label : comps.label) ++size[label];
  const std::uint32_t best = static_cast<std::uint32_t>(
      std::max_element(size.begin(), size.end()) - size.begin());
  std::vector<NodeId> nodes;
  nodes.reserve(size[best]);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (comps.label[v] == best) nodes.push_back(v);
  }
  return nodes;
}

InducedSubgraph induced_subgraph(const Graph& g,
                                 const std::vector<NodeId>& nodes) {
  ACCU_ASSERT_MSG(std::is_sorted(nodes.begin(), nodes.end()) &&
                      std::adjacent_find(nodes.begin(), nodes.end()) ==
                          nodes.end(),
                  "induced_subgraph expects sorted unique node ids");
  std::vector<NodeId> new_id(g.num_nodes(), kInvalidNode);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    ACCU_ASSERT(nodes[i] < g.num_nodes());
    new_id[nodes[i]] = static_cast<NodeId>(i);
  }
  GraphBuilder builder(static_cast<NodeId>(nodes.size()));
  for (const NodeId old_u : nodes) {
    for (const Neighbor& n : g.neighbors(old_u)) {
      if (n.node > old_u && new_id[n.node] != kInvalidNode) {
        builder.append_edge(new_id[old_u], new_id[n.node],
                            g.edge_prob(n.edge));
      }
    }
  }
  return {builder.build(), nodes};
}

DegreeStats degree_stats(const Graph& g) {
  DegreeStats stats;
  const NodeId n = g.num_nodes();
  if (n == 0) return stats;
  std::vector<std::uint32_t> degrees(n);
  for (NodeId v = 0; v < n; ++v) degrees[v] = g.degree(v);
  stats.min = *std::min_element(degrees.begin(), degrees.end());
  stats.max = *std::max_element(degrees.begin(), degrees.end());
  stats.mean = 2.0 * static_cast<double>(g.num_edges()) /
               static_cast<double>(n);
  std::sort(degrees.begin(), degrees.end());
  if (n % 2 == 1) {
    stats.median = degrees[n / 2];
  } else {
    stats.median =
        (static_cast<double>(degrees[n / 2 - 1]) + degrees[n / 2]) / 2.0;
  }
  return stats;
}

double degree_window_fraction(const Graph& g, std::uint32_t lo,
                              std::uint32_t hi) {
  if (g.num_nodes() == 0) return 0.0;
  std::size_t hits = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::uint32_t d = g.degree(v);
    if (d >= lo && d <= hi) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(g.num_nodes());
}

std::uint64_t triangles_at(const Graph& g, NodeId v) {
  std::uint64_t triangles = 0;
  const auto adj = g.neighbors(v);
  for (std::size_t i = 0; i < adj.size(); ++i) {
    for (std::size_t j = i + 1; j < adj.size(); ++j) {
      if (g.has_edge(adj[i].node, adj[j].node)) ++triangles;
    }
  }
  return triangles;
}

double clustering_coefficient(const Graph& g, std::size_t samples,
                              util::Rng& rng) {
  std::vector<NodeId> eligible;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.degree(v) >= 2) eligible.push_back(v);
  }
  if (eligible.empty()) return 0.0;
  if (samples < eligible.size()) {
    // Sample a subset (without replacement) to bound cost on large graphs.
    const auto picks =
        rng.sample_without_replacement(eligible.size(), samples);
    std::vector<NodeId> subset;
    subset.reserve(samples);
    for (const std::size_t i : picks) subset.push_back(eligible[i]);
    eligible = std::move(subset);
  }
  double sum = 0.0;
  for (const NodeId v : eligible) {
    const double d = g.degree(v);
    const double wedges = d * (d - 1.0) / 2.0;
    sum += static_cast<double>(triangles_at(g, v)) / wedges;
  }
  return sum / static_cast<double>(eligible.size());
}

std::vector<std::uint32_t> core_numbers(const Graph& g) {
  // Batagelj–Zaveršnik bucket peeling, O(V + E).
  const NodeId n = g.num_nodes();
  std::vector<std::uint32_t> degree(n);
  std::uint32_t max_degree = 0;
  for (NodeId v = 0; v < n; ++v) {
    degree[v] = g.degree(v);
    max_degree = std::max(max_degree, degree[v]);
  }
  // Counting sort of nodes by degree.
  std::vector<std::size_t> bin(max_degree + 2, 0);
  for (NodeId v = 0; v < n; ++v) ++bin[degree[v] + 1];
  std::partial_sum(bin.begin(), bin.end(), bin.begin());
  std::vector<NodeId> order(n);
  std::vector<std::size_t> pos(n);
  {
    std::vector<std::size_t> cursor(bin.begin(), bin.end() - 1);
    for (NodeId v = 0; v < n; ++v) {
      pos[v] = cursor[degree[v]]++;
      order[pos[v]] = v;
    }
  }
  std::vector<std::uint32_t> core(degree);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId v = order[i];
    for (const Neighbor& nb : g.neighbors(v)) {
      const NodeId u = nb.node;
      if (core[u] > core[v]) {
        // Move u one bucket down: swap it with the first node of its bucket.
        const std::uint32_t du = core[u];
        const std::size_t first = bin[du];
        const NodeId head = order[first];
        if (head != u) {
          std::swap(order[pos[u]], order[first]);
          std::swap(pos[u], pos[head]);
        }
        ++bin[du];
        --core[u];
      }
    }
  }
  return core;
}

}  // namespace accu::graph
