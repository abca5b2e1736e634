#include "core/realization.hpp"

#include <algorithm>

#include "core/artifacts.hpp"
#include "core/score_simd.hpp"

namespace accu {

namespace {

/// OR-copies bits src[src_off .. src_off+n) onto dst[dst_off ..); the
/// destination range must hold zeros (the drawn positions of a draw-plan
/// template do).  Word-at-a-time with a funnel shift once dst is aligned.
void or_bit_range(const std::uint64_t* src, std::size_t src_off,
                  std::uint64_t* dst, std::size_t dst_off, std::size_t n) {
  std::size_t i = 0;
  for (; i < n && ((dst_off + i) & 63) != 0; ++i) {
    const std::size_t s = src_off + i;
    const std::uint64_t bit = (src[s >> 6] >> (s & 63)) & 1u;
    dst[(dst_off + i) >> 6] |= bit << ((dst_off + i) & 63);
  }
  for (; i + 64 <= n; i += 64) {
    const std::size_t s = src_off + i;
    const std::size_t w = s >> 6;
    const unsigned b = static_cast<unsigned>(s & 63);
    std::uint64_t bits = src[w] >> b;
    // When b > 0 the 64 bits span two source words, and i + 64 <= n
    // guarantees word w+1 exists.
    if (b != 0) bits |= src[w + 1] << (64 - b);
    dst[(dst_off + i) >> 6] |= bits;
  }
  for (; i < n; ++i) {
    const std::size_t s = src_off + i;
    const std::uint64_t bit = (src[s >> 6] >> (s & 63)) & 1u;
    dst[(dst_off + i) >> 6] |= bit << ((dst_off + i) & 63);
  }
}

}  // namespace

Realization::Realization(std::vector<bool> edge_present,
                         std::vector<bool> accepts) {
  edge_present_.copy_from(edge_present);
  accepts_.copy_from(accepts);
  cautious_below_.assign(accepts_.size(), false);
  cautious_above_.assign(accepts_.size(), true);
}

Realization::Realization(std::vector<bool> edge_present,
                         std::vector<bool> accepts,
                         std::vector<bool> cautious_below_accepts,
                         std::vector<bool> cautious_above_accepts) {
  edge_present_.copy_from(edge_present);
  accepts_.copy_from(accepts);
  cautious_below_.copy_from(cautious_below_accepts);
  cautious_above_.copy_from(cautious_above_accepts);
  ACCU_ASSERT(cautious_below_.size() == accepts_.size());
  ACCU_ASSERT(cautious_above_.size() == accepts_.size());
}

Realization Realization::from_bits(const util::BitVec& edge_present,
                                   const util::BitVec& accepts) {
  Realization r;
  r.assign(edge_present, accepts);
  return r;
}

Realization Realization::sample(const AccuInstance& instance,
                                util::Rng& rng) {
  Realization r;
  r.resample(instance, rng);
  return r;
}

void Realization::resample_reference(const AccuInstance& instance,
                                     util::Rng& rng) {
  const Graph& g = instance.graph();
  edge_present_.resize(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    edge_present_.set(e, rng.bernoulli(g.edge_prob(e)));
  }
  accepts_.resize(g.num_nodes());
  cautious_below_.assign(g.num_nodes(), false);
  cautious_above_.assign(g.num_nodes(), true);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    // Coins are drawn for every node to keep the realization's shape
    // independent of the partition; coins outside a user's model are never
    // read by the simulator.
    accepts_.set(u, rng.bernoulli(instance.accept_prob(u)));
    if (instance.is_cautious(u)) {
      cautious_below_.set(
          u, rng.bernoulli(instance.cautious_accept_prob(u, false)));
      cautious_above_.set(
          u, rng.bernoulli(instance.cautious_accept_prob(u, true)));
    }
  }
}

void Realization::DrawPlan::build(const AccuInstance& instance) {
  const Graph& g = instance.graph();
  const NodeId n = g.num_nodes();
  tmpl_[0].assign(util::BitVec::num_words(g.num_edges()), 0);
  tmpl_[1].assign(util::BitVec::num_words(n), 0);
  tmpl_[2].assign(util::BitVec::num_words(n), 0);
  tmpl_[3].assign(util::BitVec::num_words(n), ~0ull);  // reference default
  if (const std::size_t tail = n & 63; tail != 0 && !tmpl_[3].empty()) {
    tmpl_[3].back() &= (~0ull) >> (64 - tail);
  }

  // Replays the reference loop's event order, splitting each bernoulli(p)
  // into a deterministic template bit (p ≤ 0 / p ≥ 1 — no draw consumed)
  // or a thresholded draw appended to the schedule.
  const auto event = [&](std::uint8_t array, std::size_t bit, double p) {
    if (p <= 0.0) return;  // template already holds 0
    if (p >= 1.0) {
      tmpl_[array][bit >> 6] |= 1ull << (bit & 63);
      return;
    }
    const std::size_t draw = thresholds.size();
    thresholds.push_back(util::Rng::bernoulli_threshold(p));
    if (!runs.empty()) {
      Run& last = runs.back();
      if (last.array == array && last.dest_begin + last.count == bit) {
        // draw indices are consecutive by construction
        ++last.count;
        return;
      }
    }
    runs.push_back(Run{draw, 1, bit, array});
  };
  const auto clear_tmpl = [&](std::uint8_t array, std::size_t bit) {
    tmpl_[array][bit >> 6] &= ~(1ull << (bit & 63));
  };

  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    event(0, e, g.edge_prob(e));
  }
  for (NodeId u = 0; u < n; ++u) {
    event(1, u, instance.accept_prob(u));
    if (instance.is_cautious(u)) {
      // The above-template defaults to 1 (the reference's assign(n, true));
      // a drawn or never-accepting q2 must start from 0.
      event(2, u, instance.cautious_accept_prob(u, false));
      const double q2 = instance.cautious_accept_prob(u, true);
      if (q2 < 1.0) clear_tmpl(3, u);
      event(3, u, q2);
    }
  }
  num_draws = thresholds.size();
}

const Realization::DrawPlan& Realization::plan(const AccuInstance& instance) {
  return instance.artifacts().get<DrawPlan>({typeid(DrawPlan)}, [&] {
    DrawPlan built;
    built.build(instance);
    return built;
  });
}

void Realization::resample(const AccuInstance& instance, util::Rng& rng) {
  const Graph& g = instance.graph();
  const DrawPlan& plan = Realization::plan(instance);
  const NodeId n = g.num_nodes();
  edge_present_.resize(g.num_edges());
  accepts_.resize(n);
  cautious_below_.resize(n);
  cautious_above_.resize(n);

  // Deterministic outcomes first; drawn positions are zero in the templates
  // so the scatter below can OR the packed bits straight in.
  std::uint64_t* dest[4] = {
      edge_present_.words().data(), accepts_.words().data(),
      cautious_below_.words().data(), cautious_above_.words().data()};
  for (int a = 0; a < 4; ++a) {
    std::copy(plan.tmpl_[a].begin(), plan.tmpl_[a].end(), dest[a]);
  }

  raw_.resize(plan.num_draws);
  packed_.resize(util::BitVec::num_words(plan.num_draws));
  rng.fill_raw(raw_.data(), plan.num_draws);  // same stream + end state as
                                              // the reference's draw loop
  simd::kernels().bernoulli_pack(raw_.data(), plan.thresholds.data(),
                                 plan.num_draws, packed_.data());
  for (const DrawPlan::Run& run : plan.runs) {
    or_bit_range(packed_.data(), run.draw_begin, dest[run.array],
                 run.dest_begin, run.count);
  }
}

void Realization::assign(const std::vector<bool>& edge_present,
                         const std::vector<bool>& accepts) {
  edge_present_.copy_from(edge_present);
  accepts_.copy_from(accepts);
  cautious_below_.assign(accepts_.size(), false);
  cautious_above_.assign(accepts_.size(), true);
}

void Realization::assign(const util::BitVec& edge_present,
                         const util::BitVec& accepts) {
  edge_present_.copy_from(edge_present);
  accepts_.copy_from(accepts);
  cautious_below_.assign(accepts_.size(), false);
  cautious_above_.assign(accepts_.size(), true);
}

Realization Realization::certain(const AccuInstance& instance) {
  const NodeId n = instance.graph().num_nodes();
  std::vector<bool> below(n, false);
  std::vector<bool> above(n, true);
  for (NodeId v = 0; v < n; ++v) {
    if (!instance.is_cautious(v)) continue;
    below[v] = instance.cautious_accept_prob(v, false) > 0.0;
    above[v] = instance.cautious_accept_prob(v, true) > 0.0;
  }
  return Realization(std::vector<bool>(instance.graph().num_edges(), true),
                     std::vector<bool>(n, true), std::move(below),
                     std::move(above));
}

std::uint32_t Realization::realized_degree(const Graph& g, NodeId v) const {
  std::uint32_t degree = 0;
  for (const graph::Neighbor& nb : g.neighbors(v)) {
    if (edge_present(nb.edge)) ++degree;
  }
  return degree;
}

Graph realized_graph(const Graph& prior, const Realization& truth) {
  ACCU_ASSERT(truth.num_edges() == prior.num_edges());
  graph::GraphBuilder builder(prior.num_nodes());
  for (EdgeId e = 0; e < prior.num_edges(); ++e) {
    if (!truth.edge_present(e)) continue;
    const graph::EdgeEndpoints ep = prior.endpoints(e);
    builder.append_edge(ep.lo, ep.hi, 1.0);  // prior edges are distinct
  }
  return builder.build();
}

double Realization::probability(const AccuInstance& instance) const {
  const Graph& g = instance.graph();
  ACCU_ASSERT(edge_present_.size() == g.num_edges());
  ACCU_ASSERT(accepts_.size() == g.num_nodes());
  double prob = 1.0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const double p = g.edge_prob(e);
    prob *= edge_present_.get(e) ? p : (1.0 - p);
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (instance.is_cautious(u)) {
      const double q1 = instance.cautious_accept_prob(u, false);
      const double q2 = instance.cautious_accept_prob(u, true);
      prob *= cautious_below_.get(u) ? q1 : (1.0 - q1);
      prob *= cautious_above_.get(u) ? q2 : (1.0 - q2);
      continue;
    }
    const double q = instance.accept_prob(u);
    prob *= accepts_.get(u) ? q : (1.0 - q);
  }
  return prob;
}

}  // namespace accu
