#include "core/score.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "core/artifacts.hpp"
#include "core/score_simd.hpp"
#include "core/task_pool.hpp"

namespace accu {

namespace {
/// Calls f(v) for every cautious v, in id order, walking the bitset words
/// instead of all n nodes.
template <class F>
void for_each_cautious(const ScorePack& pack, F&& f) {
  const std::span<const std::uint64_t> words = pack.cautious_words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      f(static_cast<NodeId>((w << 6) +
                            static_cast<unsigned>(std::countr_zero(bits))));
    }
  }
}
}  // namespace

const ScorePack& ScorePack::of(const AccuInstance& instance) {
  return instance.artifacts().get<ScorePack>(
      {typeid(ScorePack)}, [&instance] {
        ScorePack pack;
        pack.build(instance);
        return pack;
      });
}

void ScorePack::build(const AccuInstance& instance) {
  const Graph& g = instance.graph();
  const NodeId n = g.num_nodes();
  const std::size_t slots = 2ull * g.num_edges();
  if (slots >= std::numeric_limits<std::uint32_t>::max()) {
    throw InvalidArgument("ScorePack: instance too large for 32-bit slots");
  }
  uid_ = instance.uid();
  num_nodes_ = n;

  row_begin_.resize(n + 1);
  cautious_bits_.assign((static_cast<std::size_t>(n) + 63) / 64, 0);
  friend_b_.resize(n);
  fof_b_.resize(n);
  q_reckless_.resize(n);
  q_below_.resize(n);
  q_above_.resize(n);
  theta_.resize(n);
  adj_node_.resize(slots);
  d_init_.resize(slots);
  i_gain_.resize(slots);

  const BenefitModel& benefits = instance.benefits();
  for (NodeId u = 0; u < n; ++u) {
    friend_b_[u] = benefits.friend_benefit(u);
    fof_b_[u] = benefits.fof_benefit(u);
    q_reckless_[u] = instance.accept_prob(u);
    if (instance.is_cautious(u)) {
      cautious_bits_[u >> 6] |= 1ull << (u & 63);
      theta_[u] = instance.threshold(u);
      q_below_[u] = instance.cautious_accept_prob(u, false);
      q_above_[u] = instance.cautious_accept_prob(u, true);
    } else {
      theta_[u] = 0;
      q_below_[u] = 0.0;
      q_above_[u] = 1.0;
    }
  }

  // One flat pass over the CSR slots, reading the raw adjacency and priors
  // and the per-node columns filled above.  The live term values (header
  // invariant: active terms always carry the prior), with the scalar code's
  // exact operation order (upgrade_gain is B_f - B_fof).
  const std::span<const std::size_t> offsets = g.raw_offsets();
  row_begin_[0] = 0;
  for (NodeId u = 0; u < n; ++u) {
    row_begin_[u + 1] = static_cast<std::uint32_t>(offsets[u + 1]);
  }
  const std::span<const graph::Neighbor> adj = g.raw_adjacency();
  const std::span<const double> probs = g.raw_probs();
  for (std::size_t s = 0; s < slots; ++s) {
    const NodeId v = adj[s].node;
    const double prior = probs[adj[s].edge];
    adj_node_[s] = v;
    d_init_[s] = prior * fof_b_[v];
    i_gain_[s] = is_cautious(v) ? prior * (friend_b_[v] - fof_b_[v]) : 0.0;
  }
}

// ---------------------------------------------------------------------------
// Batched rescore
// ---------------------------------------------------------------------------

void score_batch_prepare(const ScorePack& pack, const AttackerView& view,
                         bool want_indirect, ScoreBatchScratch& scratch) {
  ACCU_ASSERT_MSG(pack.built_for(view.instance()),
                  "score_batch_prepare: pack does not match the view");
  const NodeId n = pack.num_nodes();
  const RequestState* rs = view.request_states().data();
  const std::uint32_t* mutual = view.mutual_counts().data();

  // P_D mask: a neighbor term is live until its node is an accepted friend
  // or a (believed) FOF.  Deactivated terms multiply to an exact +0.0,
  // which is a bit-exact stand-in for the scalar reference's skip.
  scratch.active.resize(n);
  double* active = scratch.active.data();
  for (NodeId v = 0; v < n; ++v) {
    active[v] = static_cast<double>(
        (rs[v] != RequestState::kAccepted) & (mutual[v] == 0));
  }

  // P_I reciprocal gaps: only cautious nodes can carry one.
  if (want_indirect) {
    scratch.inv_gap.assign(n, 0.0);
    double* inv_gap = scratch.inv_gap.data();
    for_each_cautious(pack, [&](NodeId v) {
      if (rs[v] != RequestState::kUnknown) return;  // spent or rejected
      const std::uint32_t theta = pack.theta(v);
      const std::uint32_t m = mutual[v];
      if (m < theta) inv_gap[v] = 1.0 / static_cast<double>(theta - m);
    });
  } else {
    scratch.inv_gap.resize(n);  // keep sized for the ranged call's pointers
  }
}

void score_batch_ranged(const ScorePack& pack, const AttackerView& view,
                        const PotentialWeights& weights,
                        const ScoreBatchScratch& scratch, NodeId begin,
                        NodeId end, double* out) {
  ACCU_ASSERT_MSG(pack.built_for(view.instance()),
                  "score_batch: pack does not match the view's instance");
  ACCU_ASSERT(begin <= end && end <= pack.num_nodes());
  ACCU_ASSERT(scratch.active.size() >= pack.num_nodes());
  const RequestState* rs = view.request_states().data();
  const std::uint32_t* mutual = view.mutual_counts().data();
  const double* d_init = pack.d_init_all().data();
  const double* i_gain = pack.i_gain_all().data();
  const NodeId* nodes = pack.slot_nodes_all().data();
  const double* active = scratch.active.data();
  const double* inv_gap = scratch.inv_gap.data();
  const bool want_indirect = weights.indirect > 0.0;
  const simd::ScoreKernels& kernels = simd::kernels();

  for (NodeId u = begin; u < end; ++u) {
    double& result = out[u - begin];
    if (rs[u] != RequestState::kUnknown) {
      result = 0.0;
      continue;
    }
    const bool cautious = pack.is_cautious(u);
    const double q = cautious ? (mutual[u] >= pack.theta(u) ? pack.q_above(u)
                                                            : pack.q_below(u))
                              : pack.q_reckless(u);
    if (q <= 0.0) {
      result = 0.0;
      continue;
    }
    const std::uint32_t s0 = pack.row_begin(u);
    const std::uint32_t s1 = pack.row_begin(u + 1);
    // P_D: mask-multiply gather in the canonical lane order; a deactivated
    // term (friend or FOF neighbor) contributes an exact +0.0, matching the
    // scalar reference's skip bit for bit.
    double direct = pack.friend_benefit(u);
    if (mutual[u] > 0) direct -= pack.fof_benefit(u);  // u un-requested ⇒ FOF
    direct += kernels.row_gather_mul(d_init, nodes, active, s0, s1);
    double value = weights.direct * direct;
    if (want_indirect && !cautious) {
      // P_I: slots with a reckless neighbor carry i_gain = 0.0; neighbors
      // with no indirect value left carry inv_gap = 0.0 — either factor
      // zeroes the term exactly, so the full-row gather matches the scalar
      // reference's conditional loop.  (Cautious u: indirect ≡ 0, and
      // adding weights.indirect * 0.0 is a no-op — skip the row entirely.)
      value +=
          weights.indirect * kernels.row_gather_mul(i_gain, nodes, inv_gap,
                                                    s0, s1);
    }
    result = q * value;
  }
}

void score_batch(const ScorePack& pack, const AttackerView& view,
                 const PotentialWeights& weights, NodeId begin, NodeId end,
                 double* out) {
  ScoreBatchScratch scratch;
  score_batch_prepare(pack, view, weights.indirect > 0.0, scratch);
  score_batch_ranged(pack, view, weights, scratch, begin, end, out);
}

void score_batch_all(const ScorePack& pack, const AttackerView& view,
                     const PotentialWeights& weights,
                     ScoreBatchScratch& scratch, TaskPool* pool, double* out) {
  score_batch_prepare(pack, view, weights.indirect > 0.0, scratch);
  const NodeId n = pack.num_nodes();
  // Below this many candidates per chunk the fan-out/join overhead beats
  // the row work; chunking never changes values, only wall-clock.
  constexpr NodeId kMinChunk = 256;
  const unsigned threads = pool != nullptr ? pool->threads() : 1;
  if (threads <= 1 || n < 2 * kMinChunk) {
    score_batch_ranged(pack, view, weights, scratch, 0, n, out);
    return;
  }
  const NodeId chunk = std::max(kMinChunk, (n + threads - 1) / threads);
  const std::size_t num_chunks = (n + chunk - 1) / chunk;
  pool->run(num_chunks, [&](std::size_t c) {
    const NodeId begin = static_cast<NodeId>(c) * chunk;
    const NodeId end = std::min<NodeId>(begin + chunk, n);
    score_batch_ranged(pack, view, weights, scratch, begin, end, out + begin);
  });
}

// ---------------------------------------------------------------------------
// Incremental engine
// ---------------------------------------------------------------------------

void ScoreEngine::reset(const ScorePack& pack,
                        const PotentialWeights& weights) {
  pack_ = &pack;
  weights_ = weights;
  maintain_indirect_ = weights.indirect > 0.0;

  const NodeId n = pack.num_nodes();
  active_.assign(n, 1.0);
  if (maintain_indirect_) {
    // Blank state: mutual = 0, so every cautious gap is θ_v (reckless
    // entries stay exactly 0.0).  Reciprocal form (numerator · 1/gap) — the
    // canonical P_I operation order shared with score_batch and the scalar
    // reference.
    inv_gap_.assign(n, 0.0);
    for_each_cautious(pack, [&](NodeId v) {
      inv_gap_[v] = 1.0 / static_cast<double>(pack.theta(v));
    });
  } else {
    inv_gap_.clear();
  }
  mutual_.assign(n, 0);
  requested_.assign(n, 0);
  dirty_.assign(n, 0);
  eager_.clear();
  eager_stamp_.assign(n, 0);
  eager_round_ = 0;
}

double ScoreEngine::score(NodeId u) const {
  const ScorePack& pack = *pack_;
  ACCU_ASSERT_MSG(requested_[u] == 0,
                  "score() is defined for un-requested candidates only");
  const bool cautious = pack.is_cautious(u);
  const double q = cautious ? (mutual_[u] >= pack.theta(u) ? pack.q_above(u)
                                                           : pack.q_below(u))
                            : pack.q_reckless(u);
  if (q <= 0.0) return 0.0;
  const std::uint32_t s0 = pack.row_begin(u);
  const std::uint32_t s1 = pack.row_begin(u + 1);
  // The same canonical lane-order gathers as score_batch (score_simd.hpp),
  // over the engine's own node tables.
  const simd::ScoreKernels& kernels = simd::kernels();
  const NodeId* nodes = pack.slot_nodes_all().data();
  double direct = pack.friend_benefit(u);
  if (active_[u] == 0.0) direct -= pack.fof_benefit(u);  // un-requested ⇒ FOF
  direct += kernels.row_gather_mul(pack.d_init_all().data(), nodes,
                                   active_.data(), s0, s1);
  double value = weights_.direct * direct;
  if (maintain_indirect_ && !cautious) {
    value += weights_.indirect *
             kernels.row_gather_mul(pack.i_gain_all().data(), nodes,
                                    inv_gap_.data(), s0, s1);
  }
  return q * value;
}

void ScoreEngine::add_eager(NodeId u) {
  if (requested_[u] != 0 || eager_stamp_[u] == eager_round_) return;
  eager_stamp_[u] = eager_round_;
  eager_.push_back(u);
}

void ScoreEngine::mark_row_dirty(NodeId v) {
  const ScorePack& pack = *pack_;
  const std::uint32_t s1 = pack.row_begin(v + 1);
  for (std::uint32_t s = pack.row_begin(v); s < s1; ++s) {
    mark_dirty(pack.slot_node(s));
  }
}

void ScoreEngine::begin_event() {
  ++eager_round_;
  eager_.clear();
}

void ScoreEngine::apply_acceptance(
    NodeId target, const AttackerView::AcceptanceEffects& effects) {
  begin_event();
  requested_[target] = 1;
  // The new friend leaves every neighbor's P_D sum (friend skip) and P_I
  // sum (requested skip).
  active_[target] = 0.0;
  if (maintain_indirect_) inv_gap_[target] = 0.0;
  mark_row_dirty(target);
  fold_effects(effects);
}

void ScoreEngine::apply_revelation(
    const AttackerView::AcceptanceEffects& effects) {
  // The source's own terms left every sum when its acceptance was observed.
  begin_event();
  fold_effects(effects);
}

void ScoreEngine::fold_effects(
    const AttackerView::AcceptanceEffects& effects) {
  const ScorePack& pack = *pack_;

  // Nodes entering FOF: their (1 − 1_FOF) factor vanishes from every
  // neighbor's P_D sum, and their own head gains the −B_fof term.
  for (const NodeId w : effects.new_fof) {
    active_[w] = 0.0;
    mark_dirty(w);
    mark_row_dirty(w);
  }

  // Mutual-count advances.  Only cautious users carry θ-dependent state;
  // the FOF consequences of a first mutual friend are the loop above.
  for (const NodeId v : effects.mutual_increased) {
    ++mutual_[v];
    if (requested_[v] != 0 || !pack.is_cautious(v)) continue;
    const std::uint32_t theta = pack.theta(v);
    const std::uint32_t m = mutual_[v];
    if (m == theta) {
      // Crossed the threshold: q(v) jumps q1 → q2 (never down, q1 <= q2) —
      // re-score v eagerly; v's indirect value is spent, so it leaves its
      // neighbors' P_I sums.
      add_eager(v);
      if (maintain_indirect_) {
        inv_gap_[v] = 0.0;
        mark_row_dirty(v);
      }
    } else if (m < theta && maintain_indirect_) {
      // Denominator θ_v − m shrank: every neighbor's P_I term for v grows —
      // re-score the owners eagerly.
      inv_gap_[v] = 1.0 / static_cast<double>(theta - m);
      const std::uint32_t s1 = pack.row_begin(v + 1);
      for (std::uint32_t s = pack.row_begin(v); s < s1; ++s) {
        add_eager(pack.slot_node(s));
      }
    }
    // m > θ: crossed earlier — table entry already zero, q already q2.
  }
}

void ScoreEngine::apply_rejection(NodeId target) {
  begin_event();
  requested_[target] = 1;
  // A rejection reveals nothing, but a rejected *cautious* target can never
  // be befriended anymore, so it leaves its neighbors' P_I sums.  (Its P_D
  // term stays: a rejected node can still become a believed FOF.)
  if (maintain_indirect_ && pack_->is_cautious(target)) {
    inv_gap_[target] = 0.0;
    mark_row_dirty(target);
  }
}

}  // namespace accu
