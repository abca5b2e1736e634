#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace accu::graph {

namespace {

void require(bool ok, const char* message) {
  if (!ok) throw InvalidArgument(message);
}

}  // namespace

GraphBuilder erdos_renyi(NodeId n, double p, util::Rng& rng) {
  require(p >= 0.0 && p <= 1.0, "erdos_renyi: p outside [0,1]");
  GraphBuilder builder(n);
  if (n < 2 || p == 0.0) return builder;
  if (p >= 1.0) {
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) builder.append_edge(u, v);
    }
    return builder;
  }
  // Skip-sampling over the lexicographic enumeration of all pairs (u,v),
  // u < v: draw the gap to the next present edge geometrically.  Positions
  // strictly increase, so no pair repeats.
  const auto total = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  std::uint64_t pos = rng.geometric_skips(p);
  while (pos < total) {
    // Invert pair index -> (u, v).  Row u starts at offset
    // u*n - u*(u+1)/2 and holds n-1-u pairs.
    const auto fpos = static_cast<double>(pos);
    const auto fn = static_cast<double>(n);
    auto u = static_cast<std::uint64_t>(
        fn - 0.5 - std::sqrt((fn - 0.5) * (fn - 0.5) - 2.0 * fpos));
    // Guard against floating-point rounding of the row inversion.
    auto row_start = [&](std::uint64_t r) {
      return r * n - r * (r + 1) / 2;
    };
    while (u > 0 && row_start(u) > pos) --u;
    while (row_start(u + 1) <= pos) ++u;
    const std::uint64_t v = u + 1 + (pos - row_start(u));
    builder.append_edge(static_cast<NodeId>(u), static_cast<NodeId>(v));
    pos += 1 + rng.geometric_skips(p);
  }
  return builder;
}

GraphBuilder barabasi_albert(NodeId n, std::uint32_t edges_per_node,
                             util::Rng& rng) {
  require(edges_per_node >= 1, "barabasi_albert: edges_per_node must be >=1");
  require(n > edges_per_node, "barabasi_albert: need n > edges_per_node");
  const std::size_t edges = static_cast<std::size_t>(n) * edges_per_node;
  GraphBuilder builder(n);
  builder.reserve(edges);
  // Urn of endpoints: every endpoint of every edge appears once, so a
  // uniform draw lands on a node with probability proportional to degree.
  // Each edge joins the arriving node to distinct earlier targets, so none
  // repeats and the builder's duplicate set is never needed.
  std::vector<NodeId> urn;
  urn.reserve(2 * edges);
  // Seed: a star on the first edges_per_node+1 nodes gives every early node
  // nonzero degree.
  for (NodeId v = 1; v <= edges_per_node; ++v) {
    builder.append_edge(0, v);
    urn.push_back(0);
    urn.push_back(v);
  }
  std::vector<NodeId> targets;
  for (NodeId v = edges_per_node + 1; v < n; ++v) {
    targets.clear();
    while (targets.size() < edges_per_node) {
      const NodeId candidate = urn[rng.index(urn.size())];
      if (std::find(targets.begin(), targets.end(), candidate) ==
          targets.end()) {
        targets.push_back(candidate);
      }
    }
    for (const NodeId t : targets) {
      builder.append_edge(v, t);
      urn.push_back(v);
      urn.push_back(t);
    }
  }
  return builder;
}

GraphBuilder holme_kim(NodeId n, std::uint32_t edges_per_node,
                       double triad_prob, util::Rng& rng) {
  require(edges_per_node >= 1, "holme_kim: edges_per_node must be >= 1");
  require(n > edges_per_node, "holme_kim: need n > edges_per_node");
  require(triad_prob >= 0.0 && triad_prob <= 1.0,
          "holme_kim: triad_prob outside [0,1]");
  const std::size_t edges = static_cast<std::size_t>(n) * edges_per_node;
  GraphBuilder builder(n);
  builder.reserve(edges);
  std::vector<NodeId> urn;
  urn.reserve(2 * edges);
  std::vector<std::vector<NodeId>> adj(n);
  // Every edge joins the arriving node to an earlier one, so the only pairs
  // a step can repeat are its own links: linked_to[t] == v marks them, and
  // the builder's duplicate set is never needed.
  std::vector<NodeId> linked_to(n, kInvalidNode);
  auto link = [&](NodeId a, NodeId b) {
    builder.append_edge(a, b);
    linked_to[b] = a;
    urn.push_back(a);
    urn.push_back(b);
    adj[a].push_back(b);
    adj[b].push_back(a);
  };
  for (NodeId v = 1; v <= edges_per_node; ++v) link(0, v);
  for (NodeId v = edges_per_node + 1; v < n; ++v) {
    NodeId last_target = kInvalidNode;
    std::uint32_t formed = 0;
    // Guard against pathological rejection loops on tiny graphs.  The first
    // attempt always links (no triad yet, and the urn holds only earlier
    // nodes, none linked to v), so every node gets at least one edge.
    std::uint32_t attempts = 0;
    const std::uint32_t max_attempts = 50 * (edges_per_node + 1);
    while (formed < edges_per_node && attempts < max_attempts) {
      ++attempts;
      NodeId target = kInvalidNode;
      if (last_target != kInvalidNode && rng.bernoulli(triad_prob)) {
        // Triad closure: link to a random neighbor of the last PA target
        // (never empty: it holds v).
        target = adj[last_target][rng.index(adj[last_target].size())];
        if (target == v || linked_to[target] == v) {
          // Fall back to preferential attachment below.
          target = kInvalidNode;
        }
      }
      if (target == kInvalidNode) {
        target = urn[rng.index(urn.size())];
        if (target == v || linked_to[target] == v) continue;
      }
      link(v, target);
      ++formed;
      last_target = target;
    }
  }
  return builder;
}

GraphBuilder watts_strogatz(NodeId n, std::uint32_t k, double beta,
                            util::Rng& rng) {
  require(n >= 3, "watts_strogatz: need at least 3 nodes");
  require(k >= 1 && 2ull * k < n, "watts_strogatz: need 1 <= k and 2k < n");
  require(beta >= 0.0 && beta <= 1.0, "watts_strogatz: beta outside [0,1]");
  GraphBuilder builder(n);
  for (NodeId u = 0; u < n; ++u) {
    for (std::uint32_t j = 1; j <= k; ++j) {
      NodeId v = static_cast<NodeId>((u + j) % n);
      if (rng.bernoulli(beta)) {
        // Rewire: pick a uniform non-self target not already linked.
        // Bounded retry keeps determinism; fall back to the lattice edge.
        NodeId candidate = v;
        for (int attempt = 0; attempt < 32; ++attempt) {
          const auto draw = static_cast<NodeId>(rng.index(n));
          if (draw != u && !builder.has_edge(u, draw)) {
            candidate = draw;
            break;
          }
        }
        v = candidate;
      }
      if (u != v) builder.try_add_edge(u, v);
    }
  }
  return builder;
}

GraphBuilder powerlaw_configuration(NodeId n, double gamma,
                                    std::uint32_t min_degree,
                                    std::uint32_t max_degree,
                                    util::Rng& rng) {
  require(n >= 2, "powerlaw_configuration: need at least 2 nodes");
  require(gamma > 1.0, "powerlaw_configuration: gamma must exceed 1");
  require(min_degree >= 1 && min_degree <= max_degree,
          "powerlaw_configuration: bad degree bounds");
  require(max_degree < n, "powerlaw_configuration: max_degree must be < n");
  // Discrete power-law CDF on [min_degree, max_degree].
  std::vector<double> cdf;
  cdf.reserve(max_degree - min_degree + 1);
  double mass = 0.0;
  for (std::uint32_t d = min_degree; d <= max_degree; ++d) {
    mass += std::pow(static_cast<double>(d), -gamma);
    cdf.push_back(mass);
  }
  for (double& c : cdf) c /= mass;

  std::vector<NodeId> stubs;
  for (NodeId v = 0; v < n; ++v) {
    const double u = rng.uniform();
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    const auto offset =
        static_cast<std::uint32_t>(std::distance(cdf.begin(), it));
    const std::uint32_t d = min_degree + std::min<std::uint32_t>(
                                             offset, max_degree - min_degree);
    for (std::uint32_t i = 0; i < d; ++i) stubs.push_back(v);
  }
  if (stubs.size() % 2 == 1) stubs.push_back(static_cast<NodeId>(rng.index(n)));
  rng.shuffle(stubs);
  GraphBuilder builder(n);
  for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
    const NodeId a = stubs[i];
    const NodeId b = stubs[i + 1];
    if (a == b) continue;                 // erase self-loops
    builder.try_add_edge(a, b);           // erase multi-edges
  }
  return builder;
}

GraphBuilder forest_fire(NodeId n, double forward_prob, util::Rng& rng) {
  require(n >= 2, "forest_fire: need at least 2 nodes");
  require(forward_prob >= 0.0 && forward_prob < 1.0,
          "forest_fire: forward_prob must be in [0, 1)");
  GraphBuilder builder(n);
  std::vector<std::vector<NodeId>> adj(n);
  auto link = [&](NodeId a, NodeId b) {
    if (builder.try_add_edge(a, b)) {
      adj[a].push_back(b);
      adj[b].push_back(a);
    }
  };
  std::vector<bool> burned(n, false);
  std::vector<NodeId> frontier, burn_list;
  for (NodeId v = 1; v < n; ++v) {
    const auto ambassador = static_cast<NodeId>(rng.index(v));
    // Burn outward from the ambassador.
    burn_list.clear();
    frontier.clear();
    burned[ambassador] = true;
    burn_list.push_back(ambassador);
    frontier.push_back(ambassador);
    while (!frontier.empty()) {
      const NodeId w = frontier.back();
      frontier.pop_back();
      // Number of fresh neighbors to burn: geometric with mean p/(1-p).
      std::uint64_t quota =
          forward_prob > 0.0 ? rng.geometric_skips(1.0 - forward_prob) : 0;
      for (const NodeId nb : adj[w]) {
        if (quota == 0) break;
        if (burned[nb]) continue;
        burned[nb] = true;
        burn_list.push_back(nb);
        frontier.push_back(nb);
        --quota;
      }
    }
    for (const NodeId target : burn_list) {
      link(v, target);
      burned[target] = false;  // reset for the next arrival
    }
  }
  return builder;
}

GraphBuilder community_affiliation(NodeId n, double mean_community_size,
                                   std::uint32_t memberships_per_node,
                                   double intra_prob, util::Rng& rng) {
  require(mean_community_size >= 2.0,
          "community_affiliation: mean size must be >= 2");
  require(memberships_per_node >= 1,
          "community_affiliation: memberships must be >= 1");
  require(intra_prob >= 0.0 && intra_prob <= 1.0,
          "community_affiliation: intra_prob outside [0,1]");
  const auto num_communities = static_cast<std::uint32_t>(std::max(
      1.0, std::round(static_cast<double>(n) * memberships_per_node /
                      mean_community_size)));
  std::vector<std::vector<NodeId>> members(num_communities);
  for (NodeId v = 0; v < n; ++v) {
    for (std::uint32_t i = 0; i < memberships_per_node; ++i) {
      members[rng.index(num_communities)].push_back(v);
    }
  }
  GraphBuilder builder(n);
  for (auto& community : members) {
    std::sort(community.begin(), community.end());
    community.erase(std::unique(community.begin(), community.end()),
                    community.end());
    for (std::size_t i = 0; i < community.size(); ++i) {
      for (std::size_t j = i + 1; j < community.size(); ++j) {
        if (rng.bernoulli(intra_prob)) {
          builder.try_add_edge(community[i], community[j]);
        }
      }
    }
  }
  return builder;
}

}  // namespace accu::graph
