#include "datasets/datasets.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace accu::datasets {

namespace {

using graph::GraphBuilder;

/// Scaled node count; tiny scales are clamped so generator parameters
/// (attachment counts, degree windows) stay meaningful.
NodeId scaled_nodes(NodeId paper_nodes, double scale) {
  if (!(scale > 0.0)) throw InvalidArgument("dataset scale must be > 0");
  const double n = std::round(static_cast<double>(paper_nodes) * scale);
  return static_cast<NodeId>(std::max(120.0, n));
}

/// Generator recipes matched to each snapshot's mean degree / structure;
/// see the header comment for the correspondence.
GraphBuilder topology_builder(const std::string& name, double scale,
                              util::Rng& rng) {
  const DatasetSpec& spec = dataset_spec(name);
  const NodeId n = scaled_nodes(spec.paper_nodes, scale);
  if (name == "facebook") {
    return graph::holme_kim(n, 22, 0.60, rng);
  }
  if (name == "slashdot") {
    const auto cap = std::min<std::uint32_t>(1000, n - 1);
    return graph::powerlaw_configuration(n, 2.5, 8, cap, rng);
  }
  if (name == "twitter") {
    return graph::holme_kim(n, 22, 0.35, rng);
  }
  if (name == "dblp") {
    return graph::community_affiliation(n, 8.0, 2, 0.45, rng);
  }
  throw InvalidArgument("unknown dataset: " + name);  // unreachable
}

}  // namespace

const std::vector<DatasetSpec>& paper_datasets() {
  static const std::vector<DatasetSpec> specs = {
      {"facebook", "Social", 4039, 88234},
      {"slashdot", "Social", 77360, 905468},
      {"twitter", "Social", 81306, 1768149},
      {"dblp", "Collaboration", 317080, 1049866},
  };
  return specs;
}

const DatasetSpec& dataset_spec(const std::string& name) {
  for (const DatasetSpec& spec : paper_datasets()) {
    if (spec.name == name) return spec;
  }
  throw InvalidArgument("unknown dataset: " + name +
                        " (expected facebook|slashdot|twitter|dblp)");
}

Graph make_topology(const std::string& name, double scale, util::Rng& rng) {
  return topology_builder(name, scale, rng).build();
}

std::vector<NodeId> select_cautious_users(const Graph& graph,
                                          std::uint32_t count,
                                          std::uint32_t degree_min,
                                          std::uint32_t degree_max,
                                          util::Rng& rng) {
  std::vector<NodeId> pool;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const std::uint32_t d = graph.degree(v);
    if (d >= degree_min && d <= degree_max) pool.push_back(v);
  }
  rng.shuffle(pool);
  std::vector<bool> blocked(graph.num_nodes(), false);
  std::vector<NodeId> cautious;
  for (const NodeId v : pool) {
    if (cautious.size() >= count) break;
    if (blocked[v]) continue;  // adjacent to an already-selected user
    cautious.push_back(v);
    blocked[v] = true;
    for (const graph::Neighbor& nb : graph.neighbors(v)) {
      blocked[nb.node] = true;
    }
  }
  std::sort(cautious.begin(), cautious.end());
  return cautious;
}

AccuInstance assemble_instance(Graph graph,
                               const std::vector<NodeId>& cautious,
                               const DatasetConfig& config, util::Rng& rng) {
  const NodeId n = graph.num_nodes();
  std::vector<UserClass> classes(n, UserClass::kReckless);
  for (const NodeId v : cautious) {
    ACCU_ASSERT(v < n);
    classes[v] = UserClass::kCautious;
  }
  std::vector<double> accept_prob(n, 0.0);
  for (NodeId u = 0; u < n; ++u) {
    // q_u ~ U[0,1) for reckless users; cautious users never use q but a
    // value is still stored (the realization draws a coin per node).
    accept_prob[u] = classes[u] == UserClass::kReckless ? rng.uniform() : 0.0;
  }
  std::vector<std::uint32_t> threshold(n, 1);
  for (const NodeId v : cautious) {
    const auto deg = graph.degree(v);
    const auto raw = static_cast<std::uint32_t>(
        std::round(config.threshold_fraction * deg));
    threshold[v] = std::clamp<std::uint32_t>(raw, 1, deg);
  }
  BenefitModel benefits = BenefitModel::paper_default(
      classes, config.reckless_friend_benefit, config.cautious_friend_benefit,
      config.fof_benefit);
  GeneralizedCautiousParams cautious_params{
      std::vector<double>(n, config.cautious_below_prob),
      std::vector<double>(n, config.cautious_above_prob)};
  return AccuInstance(std::move(graph), std::move(classes),
                      std::move(accept_prob), std::move(threshold),
                      std::move(benefits), std::move(cautious_params));
}

AccuInstance make_dataset_from_edge_list(const std::string& path,
                                         const DatasetConfig& config,
                                         util::Rng& rng) {
  const Graph raw = graph::read_edge_list_file(path);
  // Rebuild with fresh uniform edge probabilities (§IV-A).
  GraphBuilder builder(raw.num_nodes());
  builder.reserve(raw.num_edges());
  for (graph::EdgeId e = 0; e < raw.num_edges(); ++e) {
    const graph::EdgeEndpoints ep = raw.endpoints(e);
    builder.append_edge(ep.lo, ep.hi);  // a Graph's edges are distinct
  }
  builder.assign_uniform_probs(rng);
  Graph graph = builder.build();
  const std::vector<NodeId> cautious = select_cautious_users(
      graph, config.num_cautious, config.cautious_degree_min,
      config.cautious_degree_max, rng);
  return assemble_instance(std::move(graph), cautious, config, rng);
}

AccuInstance make_dataset(const std::string& name,
                          const DatasetConfig& config, util::Rng& rng) {
  GraphBuilder builder = topology_builder(name, config.scale, rng);
  builder.assign_uniform_probs(rng);  // p_uv ~ U[0,1), §IV-A
  Graph graph = builder.build();
  const std::vector<NodeId> cautious = select_cautious_users(
      graph, config.num_cautious, config.cautious_degree_min,
      config.cautious_degree_max, rng);
  return assemble_instance(std::move(graph), cautious, config, rng);
}

}  // namespace accu::datasets
