// Property suite for the SoA score engine (core/score.hpp) — PR 4.
//
// Pins the flat kernels to the scalar reference in strategies/abm.cpp
// BIT-EXACTLY (EXPECT_EQ on doubles, no tolerances):
//
//   * ScorePackTest    — the per-instance pack: mirror involution,
//     slot-constant term numerators, cautious bitset/threshold columns,
//     uid-based identity.
//   * ScoreBatchTest   — score_batch vs AbmStrategy::potential across
//     random instances evolved request-by-request, all four population
//     mixes (all-reckless, sparse-cautious, dense-cautious, generalized
//     q1 > 0) and three weight settings.
//   * ScoreEngineTest  — the incremental delta caches vs a scalar rescan
//     at every step of full simulations, plus full-trace equality of the
//     incremental ABM against the reference mode.
//   * ScoreHeapTest    — the satellite-1 heap-hygiene regression: over a
//     long adversarial run the selection heap stays within the 4x-live
//     compaction bound instead of growing with the refresh count.
//
// Exact equality is feasible because a live potential term always carries
// the edge prior (see the invariant in core/score.hpp) and the kernels sum
// rows in the same CSR order as the scalar loops — identical operations in
// identical order produce identical doubles.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/score.hpp"
#include "core/strategies/abm.hpp"
#include "graph/generators.hpp"

namespace accu {
namespace {

// ---------------------------------------------------------------------------
// Instance factory: Holme–Kim small worlds with a configurable cautious
// population (greedily chosen to respect the no-cautious-edge assumption)
// and optional generalized q1 > 0 acceptance.
// ---------------------------------------------------------------------------

struct MixConfig {
  const char* label;
  NodeId n = 80;
  std::size_t max_cautious = 0;
  std::uint32_t theta = 2;
  double q1 = 0.0;  // > 0 switches to the generalized cautious model
  std::uint64_t seed = 1;
};

AccuInstance make_instance(const MixConfig& c) {
  util::Rng rng(c.seed);
  graph::GraphBuilder b = graph::holme_kim(c.n, 4, 0.35, rng);
  b.assign_uniform_probs(rng);
  const Graph g = b.build();
  std::vector<UserClass> classes(c.n, UserClass::kReckless);
  std::vector<std::uint32_t> thresholds(c.n, 1);
  std::vector<NodeId> cautious;
  for (NodeId v = 0; v < c.n && cautious.size() < c.max_cautious; ++v) {
    if (g.degree(v) < c.theta + 1) continue;
    bool adjacent = false;
    for (const NodeId x : cautious) adjacent |= g.has_edge(v, x);
    if (adjacent) continue;
    classes[v] = UserClass::kCautious;
    thresholds[v] = c.theta;
    cautious.push_back(v);
  }
  std::vector<double> q(c.n);
  for (auto& x : q) x = rng.uniform();
  BenefitModel benefits = BenefitModel::paper_default(classes);
  if (c.q1 > 0.0) {
    GeneralizedCautiousParams params{std::vector<double>(c.n, c.q1),
                                     std::vector<double>(c.n, 1.0)};
    return AccuInstance(g, classes, q, thresholds, std::move(benefits),
                        std::move(params));
  }
  return AccuInstance(g, classes, q, thresholds, std::move(benefits));
}

const MixConfig kMixes[] = {
    {"all_reckless", 80, 0, 2, 0.0, 11},
    {"sparse_cautious", 80, 6, 2, 0.0, 22},
    {"dense_cautious", 80, 80, 2, 0.0, 33},
    {"generalized_q1", 80, 10, 2, 0.35, 44},
};

const PotentialWeights kWeightSettings[] = {{1.0, 0.0}, {0.5, 0.5}, {0.3, 0.7}};

bool resolve_acceptance(const AccuInstance& instance, const Realization& truth,
                        const AttackerView& view, NodeId target) {
  if (instance.is_cautious(target)) {
    const bool reached = view.cautious_would_accept(target);
    return reached ? truth.cautious_above_accepts(target)
                   : truth.cautious_below_accepts(target);
  }
  return truth.reckless_accepts(target);
}

/// Deterministic request sequence covering accepts, rejects, cautious and
/// reckless targets: walks a fixed stride over the unrequested population.
NodeId pick_target(const AttackerView& view, std::uint32_t step) {
  const NodeId n = view.instance().num_nodes();
  for (NodeId k = 0; k < n; ++k) {
    const NodeId u = static_cast<NodeId>((step * 13 + k * 7 + 3) % n);
    if (!view.is_requested(u)) return u;
  }
  return kInvalidNode;
}

AbmStrategy make_scalar(const PotentialWeights& weights) {
  AbmStrategy::Config config;
  config.weights = weights;
  config.incremental = false;
  return AbmStrategy(config);
}

// ---------------------------------------------------------------------------
// ScorePackTest
// ---------------------------------------------------------------------------

TEST(ScorePackTest, ColumnsAndSlotsMatchTheInstance) {
  for (const MixConfig& mix : kMixes) {
    const AccuInstance instance = make_instance(mix);
    const Graph& g = instance.graph();
    const BenefitModel& benefits = instance.benefits();
    ScorePack pack;
    pack.build(instance);
    ASSERT_TRUE(pack.built_for(instance)) << mix.label;
    ASSERT_EQ(pack.num_nodes(), instance.num_nodes()) << mix.label;
    ASSERT_EQ(pack.num_slots(), 2 * g.num_edges()) << mix.label;

    std::uint32_t slot = 0;
    for (NodeId u = 0; u < instance.num_nodes(); ++u) {
      EXPECT_EQ(pack.row_begin(u), slot) << mix.label << " node " << u;
      EXPECT_EQ(pack.is_cautious(u), instance.is_cautious(u)) << u;
      EXPECT_EQ(pack.friend_benefit(u), benefits.friend_benefit(u)) << u;
      EXPECT_EQ(pack.fof_benefit(u), benefits.fof_benefit(u)) << u;
      if (instance.is_cautious(u)) {
        EXPECT_EQ(pack.theta(u), instance.threshold(u)) << u;
        EXPECT_EQ(pack.q_below(u), instance.cautious_accept_prob(u, false))
            << u;
        EXPECT_EQ(pack.q_above(u), instance.cautious_accept_prob(u, true))
            << u;
      } else {
        EXPECT_EQ(pack.theta(u), 0u) << u;
        EXPECT_EQ(pack.q_reckless(u), instance.accept_prob(u)) << u;
      }
      for (const graph::Neighbor& nb : g.neighbors(u)) {
        EXPECT_EQ(pack.slot_node(slot), nb.node) << u;
        // Slot-constant term numerators.
        const double prior = g.edge_prob(nb.edge);
        EXPECT_EQ(pack.d_init(slot), prior * benefits.fof_benefit(nb.node))
            << u;
        if (instance.is_cautious(nb.node)) {
          EXPECT_EQ(pack.i_gain(slot), prior * benefits.upgrade_gain(nb.node))
              << u;
        } else {
          EXPECT_EQ(pack.i_gain(slot), 0.0) << u;
        }
        ++slot;
      }
    }
    EXPECT_EQ(pack.row_begin(instance.num_nodes()), slot) << mix.label;
  }
}

TEST(ScorePackTest, IdentityTracksInstanceUidNotJustAddress) {
  const AccuInstance a = make_instance(kMixes[1]);
  ScorePack pack;
  pack.build(a);
  EXPECT_TRUE(pack.built_for(a));

  // A copy shares contents and uid, so the pack describes it too (copies
  // share one pack through the instance's artifact cache); a fresh
  // construction (new uid) must be rejected even if the allocator reuses
  // the address.
  const AccuInstance copy_of_a = a;
  EXPECT_TRUE(pack.built_for(copy_of_a));
  const AccuInstance b = make_instance(kMixes[2]);
  EXPECT_FALSE(pack.built_for(b));
  pack.build(b);
  EXPECT_FALSE(pack.built_for(a));
  EXPECT_TRUE(pack.built_for(b));
}

TEST(ScorePackTest, RebuildReusesWithoutShrinking) {
  ScorePack pack;
  const AccuInstance big = make_instance({"big", 120, 10, 2, 0.0, 5});
  const AccuInstance small = make_instance({"small", 40, 4, 2, 0.0, 6});
  pack.build(big);
  const std::uint32_t big_slots = pack.num_slots();
  pack.build(small);
  EXPECT_TRUE(pack.built_for(small));
  EXPECT_LT(pack.num_slots(), big_slots);
  pack.build(big);
  EXPECT_TRUE(pack.built_for(big));
  EXPECT_EQ(pack.num_slots(), big_slots);
}

// ---------------------------------------------------------------------------
// ScoreBatchTest — the stateless batched rescore vs the scalar potential.
// ---------------------------------------------------------------------------

TEST(ScoreBatchTest, MatchesScalarPotentialThroughEvolvingSimulations) {
  for (const MixConfig& mix : kMixes) {
    const AccuInstance instance = make_instance(mix);
    const NodeId n = instance.num_nodes();
    ScorePack pack;
    pack.build(instance);
    for (const PotentialWeights& weights : kWeightSettings) {
      const AbmStrategy scalar = make_scalar(weights);
      util::Rng truth_rng(mix.seed * 100 + 1);
      const Realization truth = Realization::sample(instance, truth_rng);
      AttackerView view(instance);
      std::vector<double> scores(n);
      for (std::uint32_t step = 0; step <= 50; ++step) {
        score_batch(pack, view, weights, 0, n, scores.data());
        for (NodeId u = 0; u < n; ++u) {
          const double expected =
              view.is_requested(u) ? 0.0 : scalar.potential(view, u);
          // Exact: same doubles, not approximately equal.
          EXPECT_EQ(scores[u], expected)
              << mix.label << " wD=" << weights.direct << " step " << step
              << " node " << u;
        }
        const NodeId target = pick_target(view, step);
        if (target == kInvalidNode) break;
        if (resolve_acceptance(instance, truth, view, target)) {
          view.record_acceptance(target, truth);
        } else {
          view.record_rejection(target);
        }
      }
    }
  }
}

TEST(ScoreBatchTest, SubRangeMatchesFullBatch) {
  const AccuInstance instance = make_instance(kMixes[3]);
  const NodeId n = instance.num_nodes();
  ScorePack pack;
  pack.build(instance);
  util::Rng truth_rng(9);
  const Realization truth = Realization::sample(instance, truth_rng);
  AttackerView view(instance);
  for (std::uint32_t step = 0; step < 10; ++step) {
    const NodeId target = pick_target(view, step);
    if (resolve_acceptance(instance, truth, view, target)) {
      view.record_acceptance(target, truth);
    } else {
      view.record_rejection(target);
    }
  }
  const PotentialWeights weights{0.5, 0.5};
  std::vector<double> full(n);
  score_batch(pack, view, weights, 0, n, full.data());
  const NodeId begin = n / 4, end = (3 * n) / 4;
  std::vector<double> part(end - begin);
  score_batch(pack, view, weights, begin, end, part.data());
  for (NodeId u = begin; u < end; ++u) {
    EXPECT_EQ(part[u - begin], full[u]) << u;
  }
}

// ---------------------------------------------------------------------------
// ScoreEngineTest — incremental caches vs scalar rescan at every step.
// ---------------------------------------------------------------------------

TEST(ScoreEngineTest, IncrementalScoresMatchScalarRescanAtEveryStep) {
  for (const MixConfig& mix : kMixes) {
    const AccuInstance instance = make_instance(mix);
    const NodeId n = instance.num_nodes();
    ScorePack pack;
    pack.build(instance);
    for (const PotentialWeights& weights : kWeightSettings) {
      const AbmStrategy scalar = make_scalar(weights);
      util::Rng truth_rng(mix.seed * 100 + 2);
      const Realization truth = Realization::sample(instance, truth_rng);
      AttackerView view(instance);
      ScoreEngine engine;
      engine.reset(pack, weights);
      for (std::uint32_t step = 0; step <= 60; ++step) {
        for (NodeId u = 0; u < n; ++u) {
          if (view.is_requested(u)) {
            EXPECT_TRUE(engine.is_requested(u)) << u;
            continue;
          }
          EXPECT_EQ(engine.score(u), scalar.potential(view, u))
              << mix.label << " wI=" << weights.indirect << " step " << step
              << " node " << u;
        }
        const NodeId target = pick_target(view, step);
        if (target == kInvalidNode) break;
        if (resolve_acceptance(instance, truth, view, target)) {
          const AttackerView::AcceptanceEffects effects =
              view.record_acceptance(target, truth);
          engine.apply_acceptance(target, effects);
        } else {
          view.record_rejection(target);
          engine.apply_rejection(target);
        }
        // Eager nodes (potential may have increased) are always live
        // candidates — requested nodes never need a re-push.
        for (const NodeId u : engine.pending_eager()) {
          EXPECT_FALSE(engine.is_requested(u)) << u;
        }
      }
    }
  }
}

TEST(ScoreEngineTest, ResetRearmsAfterAFullRun) {
  const AccuInstance instance = make_instance(kMixes[1]);
  const NodeId n = instance.num_nodes();
  ScorePack pack;
  pack.build(instance);
  const PotentialWeights weights{0.5, 0.5};
  const AbmStrategy scalar = make_scalar(weights);
  ScoreEngine engine;
  for (int round = 0; round < 2; ++round) {
    util::Rng truth_rng(40 + round);
    const Realization truth = Realization::sample(instance, truth_rng);
    AttackerView view(instance);
    engine.reset(pack, weights);
    for (std::uint32_t step = 0; step < 25; ++step) {
      const NodeId target = pick_target(view, step);
      if (resolve_acceptance(instance, truth, view, target)) {
        engine.apply_acceptance(target, view.record_acceptance(target, truth));
      } else {
        view.record_rejection(target);
        engine.apply_rejection(target);
      }
    }
    for (NodeId u = 0; u < n; ++u) {
      if (view.is_requested(u)) continue;
      EXPECT_EQ(engine.score(u), scalar.potential(view, u))
          << "round " << round << " node " << u;
    }
  }
}

TEST(ScoreEngineTest, IncrementalAbmTraceEqualsReferenceMode) {
  // End-to-end: the ScoreEngine-backed policy must pick the same node as
  // the O(n·Σdeg) rescan policy at every round, over every mix.
  for (const MixConfig& mix : kMixes) {
    const AccuInstance instance = make_instance(mix);
    for (const PotentialWeights& weights : kWeightSettings) {
      AbmStrategy::Config reference_config;
      reference_config.weights = weights;
      reference_config.incremental = false;
      AbmStrategy incremental(weights.direct, weights.indirect);
      AbmStrategy reference(reference_config);
      util::Rng truth_rng(mix.seed * 100 + 3);
      const Realization truth = Realization::sample(instance, truth_rng);
      util::Rng rng_a(5), rng_b(5);
      const SimulationResult a =
          simulate(instance, truth, incremental, instance.num_nodes(), rng_a);
      const SimulationResult b =
          simulate(instance, truth, reference, instance.num_nodes(), rng_b);
      ASSERT_EQ(a.trace.size(), b.trace.size()) << mix.label;
      for (std::size_t i = 0; i < a.trace.size(); ++i) {
        EXPECT_EQ(a.trace[i].target, b.trace[i].target)
            << mix.label << " wI=" << weights.indirect << " @" << i;
        EXPECT_EQ(a.trace[i].benefit_after, b.trace[i].benefit_after)
            << mix.label << " @" << i;
      }
      EXPECT_EQ(a.total_benefit, b.total_benefit) << mix.label;
    }
  }
}

// ---------------------------------------------------------------------------
// ScoreHeapTest — satellite 1: heap hygiene over long adversarial runs.
// ---------------------------------------------------------------------------

TEST(ScoreHeapTest, HeapStaysWithinCompactionBoundOnLongAdversarialRun) {
  // Generalized q1 > 0 with a dense cautious population maximizes eager
  // re-pushes (every mutual increase under θ re-scores neighbors; rejected
  // cautious targets purge P_I rows), which is what used to grow the heap
  // linearly with the refresh count.  The compaction bound must hold after
  // every selection, over a full exhaustion run.
  const AccuInstance instance = make_instance({"adversarial", 300, 300, 2,
                                               0.3, 77});
  const NodeId n = instance.num_nodes();
  util::Rng truth_rng(1);
  const Realization truth = Realization::sample(instance, truth_rng);
  AbmStrategy strategy(0.5, 0.5);
  util::Rng rng(2);
  strategy.reset(instance, rng);
  AttackerView view(instance);
  std::size_t max_heap = 0;
  std::uint32_t accepted_count = 0;
  for (std::uint32_t round = 0; round < n; ++round) {
    const NodeId target = strategy.select(view, rng);
    ASSERT_NE(target, kInvalidNode) << round;
    const std::size_t live = n - view.num_requests();
    EXPECT_LE(strategy.heap_size(), 4 * live + 16) << "round " << round;
    max_heap = std::max(max_heap, strategy.heap_size());
    if (resolve_acceptance(instance, truth, view, target)) {
      ++accepted_count;
      const AttackerView::AcceptanceEffects effects =
          view.record_acceptance(target, truth);
      strategy.observe(target, true, view, &effects);
    } else {
      view.record_rejection(target);
      strategy.observe(target, false, view, nullptr);
    }
  }
  EXPECT_EQ(view.num_requests(), n);
  // The run must actually exercise both event paths and the bound must be
  // a real constraint (a trivial run would never push past the seed size).
  EXPECT_GT(accepted_count, 0u);
  EXPECT_LT(accepted_count, n);
  EXPECT_GT(max_heap, static_cast<std::size_t>(n));
}

}  // namespace
}  // namespace accu
