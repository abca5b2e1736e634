// Feedback-model property tests (DESIGN.md §15).
//
// The feedback refactor made the revelation pipeline a pluggable
// FeedbackModel policy.  These tests pin it from four sides:
//
//   1. Full feedback is the status quo, byte-for-byte: a verbatim copy of
//      the pre-refactor simulation loop must produce bit-identical traces
//      through the engine for every shipped strategy, and the degenerate
//      parameters (delayed d=0, batched b<=1) must take the identical code
//      path via FeedbackModel::is_full.
//   2. Model semantics: myopic never reveals a neighborhood (an
//      instrumented probe asserts the observed layer stays dark), delayed
//      revelations land exactly d rounds late, batched ones at batch
//      boundaries, and the observed/true benefit layers each stay
//      internally consistent.
//   3. The incremental ScoreEngine consumes late-arriving deltas without
//      breaking its bit-exact pinning against the scalar oracle: ABM
//      incremental vs ABM reference traces must match under every model.
//   4. The experiment harness: a non-full sweep checkpoints, resumes,
//      shards, and merges bit-identically; the feedback model is part of
//      the checkpoint fingerprint; full-mode checkpoint bytes carry no
//      feedback line (format stability).

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "core/feedback.hpp"
#include "core/strategies/abm.hpp"
#include "core/strategies/baselines.hpp"
#include "core/strategies/batched.hpp"
#include "core/strategies/lookahead.hpp"
#include "core/strategies/retrying.hpp"
#include "core/theory/estimator.hpp"
#include "datasets/datasets.hpp"
#include "test_paths.hpp"

namespace accu {
namespace {

using test::temp_path;

// ---------------------------------------------------------------------------
// Reference implementation: the pre-feedback-refactor reliable loop, copied
// verbatim (the same legacy copy engine_test.cpp keeps).  Its value is
// being the old code — do not modernize it.
// ---------------------------------------------------------------------------

bool ref_resolve_acceptance(const AccuInstance& instance,
                            const Realization& truth, const AttackerView& view,
                            NodeId target) {
  if (instance.is_cautious(target)) {
    const bool reached = view.cautious_would_accept(target);
    return reached ? truth.cautious_above_accepts(target)
                   : truth.cautious_below_accepts(target);
  }
  return truth.reckless_accepts(target);
}

SimulationResult reference_simulate(const AccuInstance& instance,
                                    const Realization& truth,
                                    Strategy& strategy, std::uint32_t budget,
                                    util::Rng& rng) {
  AttackerView view(instance);
  SimulationResult result;
  result.trace.reserve(budget);
  strategy.reset(instance, rng);

  while (view.num_requests() < budget) {
    const NodeId target = strategy.select(view, rng);
    if (target == kInvalidNode) break;

    RequestRecord record;
    record.target = target;
    record.cautious_target = instance.is_cautious(target);
    record.benefit_before = view.current_benefit();

    const bool accepted = ref_resolve_acceptance(instance, truth, view, target);
    record.accepted = accepted;

    if (accepted) {
      const AttackerView::AcceptanceEffects effects =
          view.record_acceptance(target, truth);
      record.benefit_after = view.current_benefit();
      strategy.observe(target, true, view, &effects);
    } else {
      view.record_rejection(target);
      record.benefit_after = view.current_benefit();
      strategy.observe(target, false, view, nullptr);
    }
    result.trace.push_back(record);
  }

  result.total_benefit = view.current_benefit();
  result.num_accepted = static_cast<std::uint32_t>(view.friends().size());
  result.num_cautious_friends = view.num_cautious_friends();
  result.friends = view.friends();
  return result;
}

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

AccuInstance facebook_instance(double scale = 0.05) {
  util::Rng rng(7);
  datasets::DatasetConfig config;
  config.scale = scale;
  config.num_cautious = 10;
  return datasets::make_dataset("facebook", config, rng);
}

struct NamedFactory {
  std::string name;
  std::function<std::unique_ptr<Strategy>()> make;
};

/// Every single-bot strategy the library ships (the engine_test roster).
std::vector<NamedFactory> all_strategies() {
  std::vector<NamedFactory> out;
  out.push_back({"Random", [] { return std::make_unique<RandomStrategy>(); }});
  out.push_back(
      {"MaxDegree", [] { return std::make_unique<MaxDegreeStrategy>(); }});
  out.push_back(
      {"PageRank", [] { return std::make_unique<PageRankStrategy>(); }});
  out.push_back(
      {"ABM", [] { return std::make_unique<AbmStrategy>(0.5, 0.5); }});
  out.push_back({"ABM-reference", [] {
                   AbmStrategy::Config config;
                   config.incremental = false;
                   return std::make_unique<AbmStrategy>(config);
                 }});
  out.push_back({"BatchedABM", [] {
                   return std::make_unique<BatchedAbmStrategy>(
                       PotentialWeights{0.5, 0.5}, 5);
                 }});
  out.push_back({"Lookahead", [] {
                   LookaheadStrategy::Config config;
                   config.beam = 4;
                   config.scenario_samples = 2;
                   return std::make_unique<LookaheadStrategy>(config);
                 }});
  out.push_back({"ABM+retry", [] {
                   return std::make_unique<RetryingStrategy>(
                       std::make_unique<AbmStrategy>(0.5, 0.5),
                       util::RetryPolicy::exponential_jitter(3));
                 }});
  return out;
}

void expect_same(const SimulationResult& a, const SimulationResult& b,
                 const std::string& label) {
  ASSERT_EQ(a.trace.size(), b.trace.size()) << label;
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    const RequestRecord& x = a.trace[i];
    const RequestRecord& y = b.trace[i];
    EXPECT_EQ(x.target, y.target) << label << " @" << i;
    EXPECT_EQ(x.accepted, y.accepted) << label << " @" << i;
    EXPECT_EQ(x.cautious_target, y.cautious_target) << label << " @" << i;
    EXPECT_EQ(x.benefit_before, y.benefit_before) << label << " @" << i;
    EXPECT_EQ(x.benefit_after, y.benefit_after) << label << " @" << i;
    EXPECT_EQ(x.fault, y.fault) << label << " @" << i;
    EXPECT_EQ(x.attempt, y.attempt) << label << " @" << i;
  }
  EXPECT_EQ(a.total_benefit, b.total_benefit) << label;
  EXPECT_EQ(a.num_accepted, b.num_accepted) << label;
  EXPECT_EQ(a.num_cautious_friends, b.num_cautious_friends) << label;
  EXPECT_EQ(a.friends, b.friends) << label;
  EXPECT_EQ(a.num_faulted, b.num_faulted) << label;
  EXPECT_EQ(a.num_retries, b.num_retries) << label;
  EXPECT_EQ(a.rounds_suspended, b.rounds_suspended) << label;
  EXPECT_EQ(a.num_abandoned, b.num_abandoned) << label;
}

// ---------------------------------------------------------------------------
// FeedbackModel parsing and arithmetic.
// ---------------------------------------------------------------------------

TEST(FeedbackModelTest, SpecRoundTripsEveryModel) {
  const FeedbackModel full;
  EXPECT_EQ(full.spec(), "full");
  EXPECT_TRUE(FeedbackModel::parse("full") == full);

  const FeedbackModel myopic{FeedbackKind::kMyopic, 0};
  EXPECT_EQ(myopic.spec(), "myopic");
  EXPECT_TRUE(FeedbackModel::parse("myopic") == myopic);

  const FeedbackModel delayed{FeedbackKind::kDelayed, 3};
  EXPECT_EQ(delayed.spec(), "delayed:3");
  EXPECT_TRUE(FeedbackModel::parse("delayed", 3) == delayed);
  EXPECT_TRUE(FeedbackModel::parse("delayed:3") == delayed);
  EXPECT_TRUE(FeedbackModel::parse(delayed.spec()) == delayed);

  const FeedbackModel batched{FeedbackKind::kBatched, 10};
  EXPECT_EQ(batched.spec(), "batched:10");
  EXPECT_TRUE(FeedbackModel::parse("batched", 10) == batched);
  EXPECT_TRUE(FeedbackModel::parse(batched.spec()) == batched);
}

TEST(FeedbackModelTest, DegenerateParametersNormalizeToFull) {
  EXPECT_TRUE((FeedbackModel{FeedbackKind::kDelayed, 0}).is_full());
  EXPECT_TRUE((FeedbackModel{FeedbackKind::kBatched, 0}).is_full());
  EXPECT_TRUE((FeedbackModel{FeedbackKind::kBatched, 1}).is_full());
  EXPECT_FALSE((FeedbackModel{FeedbackKind::kDelayed, 1}).is_full());
  EXPECT_FALSE((FeedbackModel{FeedbackKind::kBatched, 2}).is_full());
  EXPECT_FALSE((FeedbackModel{FeedbackKind::kMyopic, 0}).is_full());
  // Normalizing equality: every full-equivalent model compares equal and
  // prints as "full".
  EXPECT_TRUE((FeedbackModel{FeedbackKind::kDelayed, 0}) == FeedbackModel{});
  EXPECT_TRUE((FeedbackModel{FeedbackKind::kBatched, 1}) == FeedbackModel{});
  EXPECT_EQ((FeedbackModel{FeedbackKind::kBatched, 1}).spec(), "full");
}

TEST(FeedbackModelTest, RejectsInvalidSpecsWithDiagnostics) {
  // Zero-parameter delayed/batched must be an explicit error, not a silent
  // full run (a forgotten --feedback-delay should not pass).
  EXPECT_THROW((void)FeedbackModel::parse("delayed", 0), InvalidArgument);
  EXPECT_THROW((void)FeedbackModel::parse("batched", 0), InvalidArgument);
  // A parameter on full/myopic is equally suspicious.
  EXPECT_THROW((void)FeedbackModel::parse("full", 2), InvalidArgument);
  EXPECT_THROW((void)FeedbackModel::parse("myopic", 2), InvalidArgument);
  // Unknown names carry a did-you-mean hint.
  try {
    (void)FeedbackModel::parse("delyed", 1);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("delayed"), std::string::npos);
  }
  EXPECT_THROW((void)FeedbackModel::parse(""), InvalidArgument);
  EXPECT_THROW((void)FeedbackModel::parse("delayed:"), InvalidArgument);
  EXPECT_THROW((void)FeedbackModel::parse("delayed:x"), InvalidArgument);
}

TEST(FeedbackModelTest, DueRoundArithmetic) {
  const FeedbackModel delayed{FeedbackKind::kDelayed, 3};
  EXPECT_EQ(delayed.due_round(0), 3u);
  EXPECT_EQ(delayed.due_round(5), 8u);
  // Batched: the first boundary strictly after the acceptance round.
  const FeedbackModel batched{FeedbackKind::kBatched, 10};
  EXPECT_EQ(batched.due_round(0), 10u);
  EXPECT_EQ(batched.due_round(9), 10u);
  EXPECT_EQ(batched.due_round(10), 20u);
  EXPECT_EQ(batched.due_round(19), 20u);
}

// ---------------------------------------------------------------------------
// 1. Full feedback is the status quo, bit-for-bit.
// ---------------------------------------------------------------------------

TEST(FeedbackEquivalenceTest, FullFeedbackMatchesLegacyLoopForAllStrategies) {
  const AccuInstance instance = facebook_instance();
  for (std::uint64_t world = 0; world < 3; ++world) {
    util::Rng truth_rng(100 + world);
    const Realization truth = Realization::sample(instance, truth_rng);
    for (const NamedFactory& factory : all_strategies()) {
      auto legacy = factory.make();
      auto refactored = factory.make();
      util::Rng rng_a(world * 31 + 5);
      util::Rng rng_b(world * 31 + 5);
      const SimulationResult a =
          reference_simulate(instance, truth, *legacy, 40, rng_a);
      const SimulationResult b =
          simulate(instance, truth, *refactored, 40, rng_b,
                   {.feedback = FeedbackModel{}});
      expect_same(a, b, factory.name + " world " + std::to_string(world));
    }
  }
}

TEST(FeedbackEquivalenceTest, DegenerateParametersShareTheFullPath) {
  const AccuInstance instance = facebook_instance();
  util::Rng truth_rng(42);
  const Realization truth = Realization::sample(instance, truth_rng);
  const FeedbackModel degenerate[] = {
      FeedbackModel{FeedbackKind::kDelayed, 0},
      FeedbackModel{FeedbackKind::kBatched, 1},
  };
  for (const NamedFactory& factory : all_strategies()) {
    auto full = factory.make();
    util::Rng rng_full(9);
    const SimulationResult expected =
        simulate(instance, truth, *full, 40, rng_full);
    for (const FeedbackModel& model : degenerate) {
      auto strategy = factory.make();
      util::Rng rng(9);
      const SimulationResult got =
          simulate(instance, truth, *strategy, 40, rng, {.feedback = model});
      expect_same(expected, got, factory.name + " " + model.spec());
    }
  }
}

// ---------------------------------------------------------------------------
// 2. Model semantics.
// ---------------------------------------------------------------------------

/// Deterministic probe: requests the lowest un-requested id and, after every
/// outcome, asserts the myopic contract — the observed layer never contains
/// a neighborhood revelation (no edge observed, every mutual count zero).
class MyopicProbeStrategy final : public Strategy {
 public:
  void reset(const AccuInstance& instance, util::Rng&) override {
    num_nodes_ = instance.num_nodes();
    next_ = 0;
  }
  NodeId select(const AttackerView&, util::Rng&) override {
    return next_ < num_nodes_ ? next_++ : kInvalidNode;
  }
  void observe(NodeId, bool, const AttackerView& view,
               const AttackerView::AcceptanceEffects* effects) override {
    EXPECT_EQ(view.num_observed_edges(), 0u);
    for (NodeId v = 0; v < num_nodes_; ++v) {
      ASSERT_EQ(view.mutual_friends(v), 0u) << "node " << v;
    }
    if (effects != nullptr) {
      EXPECT_TRUE(effects->new_fof.empty());
      EXPECT_TRUE(effects->mutual_increased.empty());
    }
  }
  void observe_revelation(NodeId, const AttackerView&,
                          const AttackerView::AcceptanceEffects&) override {
    FAIL() << "myopic feedback must never deliver a revelation";
  }
  [[nodiscard]] std::string name() const override { return "MyopicProbe"; }

 private:
  NodeId num_nodes_ = 0;
  NodeId next_ = 0;
};

TEST(FeedbackSemanticsTest, MyopicViewNeverObservesANeighborhood) {
  const AccuInstance instance = facebook_instance(0.03);
  util::Rng truth_rng(5);
  const Realization truth = Realization::sample(instance, truth_rng);
  MyopicProbeStrategy probe;
  util::Rng rng(6);
  SimWorkspace ws;
  AttackerView& view = ws.reset_view(instance);
  SimulationResult result;
  simulate_into(instance, truth, probe, 30, rng, view, ws, result,
                {.feedback = FeedbackModel{FeedbackKind::kMyopic, 0}});
  EXPECT_GT(result.num_accepted, 0u);  // the probe did accept people
  EXPECT_EQ(view.num_observed_edges(), 0u);
  EXPECT_EQ(view.pending_revelations(), 0u);  // myopic queues nothing
  for (EdgeId e = 0; e < instance.graph().num_edges(); ++e) {
    ASSERT_EQ(view.edge_state(e), EdgeState::kUnknown) << "edge " << e;
  }
  // With nothing observed, believed mutual mass is purely prior-weighted
  // and bounded by the node's potential degree.
  for (NodeId v = 0; v < instance.num_nodes(); ++v) {
    const double believed = view.believed_mutual_friends(v);
    ASSERT_GE(believed, 0.0);
    ASSERT_LE(believed,
              static_cast<double>(instance.graph().neighbors(v).size()));
  }
}

TEST(FeedbackSemanticsTest, DelayedBeyondBudgetObservesLikeMyopic) {
  // A delay longer than the attack means no revelation ever lands: the
  // observed layer must be indistinguishable from myopic, with the
  // undelivered revelations still queued.
  const AccuInstance instance = facebook_instance(0.03);
  util::Rng truth_rng(15);
  const Realization truth = Realization::sample(instance, truth_rng);
  const std::uint32_t budget = 25;

  MaxDegreeStrategy a;
  util::Rng rng_a(3);
  SimWorkspace ws;
  AttackerView view_delayed(instance);
  SimulationResult delayed;
  simulate_into(instance, truth, a, budget, rng_a, view_delayed, ws, delayed,
                {.feedback = FeedbackModel{FeedbackKind::kDelayed, 1000}});

  MaxDegreeStrategy b;
  util::Rng rng_b(3);
  AttackerView view_myopic(instance);
  SimulationResult myopic;
  simulate_into(instance, truth, b, budget, rng_b, view_myopic, ws, myopic,
                {.feedback = FeedbackModel{FeedbackKind::kMyopic, 0}});

  expect_same(delayed, myopic, "delayed:1000 vs myopic");
  EXPECT_EQ(view_delayed.num_observed_edges(), 0u);
  EXPECT_EQ(view_delayed.pending_revelations(),
            static_cast<std::size_t>(delayed.num_accepted));
  EXPECT_EQ(view_myopic.pending_revelations(), 0u);
}

TEST(FeedbackSemanticsTest, DelayedRevelationLandsExactlyOnItsDueRound) {
  // Drive the view by hand: accept at round 0 under delayed:3 and check the
  // queue refuses delivery until the clock reaches round 3.
  const AccuInstance instance = facebook_instance(0.03);
  util::Rng truth_rng(21);
  const Realization truth = Realization::sample(instance, truth_rng);
  // Pick a target with at least one realized neighbor so delivery has a
  // visible effect.
  NodeId target = kInvalidNode;
  for (NodeId v = 0; v < instance.num_nodes() && target == kInvalidNode; ++v) {
    for (const graph::Neighbor& nb : instance.graph().neighbors(v)) {
      if (truth.edge_present(nb.edge)) {
        target = v;
        break;
      }
    }
  }
  ASSERT_NE(target, kInvalidNode);

  AttackerView view(instance);
  view.arm_feedback(FeedbackModel{FeedbackKind::kDelayed, 3});
  AttackerView::AcceptanceEffects effects;
  view.set_feedback_round(0);
  view.record_acceptance(target, truth, effects);
  EXPECT_TRUE(effects.new_fof.empty());
  EXPECT_EQ(view.pending_revelations(), 1u);
  EXPECT_EQ(view.num_observed_edges(), 0u);

  for (std::uint64_t round = 0; round < 3; ++round) {
    view.set_feedback_round(round);
    EXPECT_FALSE(view.has_due_revelation()) << "round " << round;
  }
  view.set_feedback_round(3);
  ASSERT_TRUE(view.has_due_revelation());
  EXPECT_EQ(view.deliver_next_revelation(truth, effects), target);
  EXPECT_EQ(view.pending_revelations(), 0u);
  EXPECT_EQ(view.num_observed_edges(),
            instance.graph().neighbors(target).size());
  // Delivery reconciles the observed layer with the true layer.
  for (NodeId v = 0; v < instance.num_nodes(); ++v) {
    ASSERT_EQ(view.mutual_friends(v), view.true_mutual_friends(v));
  }
  EXPECT_DOUBLE_EQ(view.current_benefit(), view.true_benefit());
}

TEST(FeedbackSemanticsTest, ObservedAndTrueLayersStayConsistent) {
  const AccuInstance instance = facebook_instance();
  const FeedbackModel models[] = {
      FeedbackModel{FeedbackKind::kMyopic, 0},
      FeedbackModel{FeedbackKind::kDelayed, 4},
      FeedbackModel{FeedbackKind::kBatched, 6},
  };
  util::Rng truth_rng(33);
  const Realization truth = Realization::sample(instance, truth_rng);
  for (const FeedbackModel& model : models) {
    SCOPED_TRACE(model.spec());
    AbmStrategy abm(0.5, 0.5);
    util::Rng rng(8);
    SimWorkspace ws;
    AttackerView& view = ws.reset_view(instance);
    SimulationResult result;
    simulate_into(instance, truth, abm, 40, rng, view, ws, result,
                  {.feedback = model});

    // Observed layer: the incremental benefit equals an O(V) recompute
    // from the observed state alone.
    ASSERT_NEAR(view.current_benefit(), view.recompute_benefit(), 1e-9);

    // True layer: total_benefit is the realized Eq. (1) value — recompute
    // it from the friend set and the ground-truth realization.
    const BenefitModel& benefits = instance.benefits();
    std::vector<bool> is_friend(instance.num_nodes(), false);
    for (const NodeId u : result.friends) is_friend[u] = true;
    double realized = 0.0;
    for (NodeId v = 0; v < instance.num_nodes(); ++v) {
      if (is_friend[v]) {
        realized += benefits.friend_benefit(v);
        continue;
      }
      for (const graph::Neighbor& nb : instance.graph().neighbors(v)) {
        if (is_friend[nb.node] && truth.edge_present(nb.edge)) {
          realized += benefits.fof_benefit(v);
          break;
        }
      }
    }
    ASSERT_NEAR(result.total_benefit, realized, 1e-9);
    EXPECT_DOUBLE_EQ(result.total_benefit, view.true_benefit());

    // The observed layer can only lag the true layer, never lead it.
    for (NodeId v = 0; v < instance.num_nodes(); ++v) {
      ASSERT_LE(view.mutual_friends(v), view.true_mutual_friends(v));
    }
  }
}

// ---------------------------------------------------------------------------
// 3. Incremental ScoreEngine vs the scalar oracle under deferred feedback.
// ---------------------------------------------------------------------------

TEST(FeedbackEquivalenceTest, IncrementalAbmMatchesScalarOracleUnderAllModels) {
  const AccuInstance instance = facebook_instance();
  const FeedbackModel models[] = {
      FeedbackModel{FeedbackKind::kMyopic, 0},
      FeedbackModel{FeedbackKind::kDelayed, 1},
      FeedbackModel{FeedbackKind::kDelayed, 5},
      FeedbackModel{FeedbackKind::kBatched, 4},
      FeedbackModel{FeedbackKind::kBatched, 16},
  };
  for (std::uint64_t world = 0; world < 3; ++world) {
    util::Rng truth_rng(300 + world);
    const Realization truth = Realization::sample(instance, truth_rng);
    for (const FeedbackModel& model : models) {
      AbmStrategy incremental(0.5, 0.5);
      AbmStrategy::Config scalar_config;
      scalar_config.incremental = false;
      AbmStrategy scalar(scalar_config);
      util::Rng rng_a(world * 13 + 1);
      util::Rng rng_b(world * 13 + 1);
      const SimulationResult a = simulate(instance, truth, incremental, 40,
                                          rng_a, {.feedback = model});
      const SimulationResult b =
          simulate(instance, truth, scalar, 40, rng_b, {.feedback = model});
      expect_same(a, b,
                  model.spec() + " world " + std::to_string(world));
    }
  }
}

TEST(FeedbackEquivalenceTest, AllStrategiesRunUnderDeferredModelsWithFaults) {
  // Smoke + invariants across the whole roster, fault layer included: the
  // deferred path must hold its observed-layer consistency under retries,
  // suspensions, and abandonment.
  const AccuInstance instance = facebook_instance(0.03);
  util::Rng truth_rng(77);
  const Realization truth = Realization::sample(instance, truth_rng);
  const FaultConfig fault_config = FaultConfig::uniform(0.3, 3);
  const FeedbackModel model{FeedbackKind::kBatched, 5};
  for (const NamedFactory& factory : all_strategies()) {
    auto strategy = factory.make();
    util::Rng rng(19);
    FaultModel faults(fault_config, 23);
    SimWorkspace ws;
    AttackerView& view = ws.reset_view(instance);
    SimulationResult result;
    simulate_into(instance, truth, *strategy, 50, rng, view, ws, result,
                  {.faults = &faults, .feedback = model});
    SCOPED_TRACE(factory.name);
    ASSERT_NEAR(view.current_benefit(), view.recompute_benefit(), 1e-9);
    EXPECT_DOUBLE_EQ(result.total_benefit, view.true_benefit());
  }
}

TEST(FeedbackEquivalenceTest, WorkspaceReuseAcrossModelsStaysBitIdentical) {
  // One pooled SimWorkspace cycled full -> deferred -> full must leave no
  // residue: the second full cell must equal the first bit-for-bit (the
  // pending queue and true layer are pooled members that reset re-arms).
  const AccuInstance instance = facebook_instance(0.03);
  util::Rng truth_rng(55);
  const Realization truth = Realization::sample(instance, truth_rng);
  SimWorkspace ws;
  AbmStrategy abm(0.5, 0.5);
  SimulationResult first, middle, second;
  {
    util::Rng rng(4);
    AttackerView& view = ws.reset_view(instance);
    simulate_into(instance, truth, abm, 30, rng, view, ws, first);
  }
  {
    util::Rng rng(4);
    AttackerView& view = ws.reset_view(instance);
    simulate_into(instance, truth, abm, 30, rng, view, ws, middle,
                  {.feedback = FeedbackModel{FeedbackKind::kDelayed, 3}});
  }
  {
    util::Rng rng(4);
    AttackerView& view = ws.reset_view(instance);
    simulate_into(instance, truth, abm, 30, rng, view, ws, second);
  }
  expect_same(first, second, "full cell after a deferred cell");
  // And the deferred cell is reproducible from a fresh workspace too.
  {
    SimWorkspace fresh;
    AbmStrategy abm2(0.5, 0.5);
    SimulationResult expected;
    util::Rng rng(4);
    AttackerView& view = fresh.reset_view(instance);
    simulate_into(instance, truth, abm2, 30, rng, view, fresh, expected,
                  {.feedback = FeedbackModel{FeedbackKind::kDelayed, 3}});
    expect_same(expected, middle, "deferred cell, pooled vs fresh");
  }
}

// ---------------------------------------------------------------------------
// 4. Experiment harness: checkpointing, sharding, fingerprints.
// ---------------------------------------------------------------------------

InstanceFactory tiny_factory() {
  return [](std::uint32_t sample, std::uint64_t seed) {
    util::Rng rng(seed + sample);
    datasets::DatasetConfig config;
    config.scale = 0.05;
    config.num_cautious = 8;
    return datasets::make_dataset("facebook", config, rng);
  };
}

std::vector<StrategyFactory> two_strategies() {
  return {
      {"ABM", [] { return std::make_unique<AbmStrategy>(0.5, 0.5); }},
      {"Random", [] { return std::make_unique<RandomStrategy>(); }},
  };
}

ExperimentConfig feedback_config() {
  ExperimentConfig config;
  config.budget = 20;
  config.samples = 2;
  config.runs = 3;
  config.seed = 31;
  config.feedback = FeedbackModel{FeedbackKind::kBatched, 4};
  return config;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream out;
  out << is.rdbuf();
  return out.str();
}

void expect_identical_aggregates(const TraceAggregator& x,
                                 const TraceAggregator& y) {
  EXPECT_EQ(x.total_benefit().count(), y.total_benefit().count());
  EXPECT_EQ(x.total_benefit().mean(), y.total_benefit().mean());
  EXPECT_EQ(x.total_benefit().variance(), y.total_benefit().variance());
  EXPECT_EQ(x.cautious_friends().mean(), y.cautious_friends().mean());
  EXPECT_EQ(x.accepted_requests().mean(), y.accepted_requests().mean());
  ASSERT_EQ(x.cumulative_benefit().length(), y.cumulative_benefit().length());
  for (std::size_t i = 0; i < x.cumulative_benefit().length(); ++i) {
    EXPECT_EQ(x.cumulative_benefit().at(i).mean(),
              y.cumulative_benefit().at(i).mean())
        << "index " << i;
  }
}

void expect_identical_results(const ExperimentResult& a,
                              const ExperimentResult& b) {
  ASSERT_EQ(a.strategy_names, b.strategy_names);
  for (std::size_t s = 0; s < a.aggregates.size(); ++s) {
    SCOPED_TRACE(a.strategy_names[s]);
    expect_identical_aggregates(a.aggregates[s], b.aggregates[s]);
  }
}

TEST(FeedbackExperimentTest, NonFullSweepShardsAndMergesBitIdentically) {
  const ExperimentConfig plain = feedback_config();
  const ExperimentResult sequential =
      run_experiment(tiny_factory(), two_strategies(), plain);
  std::vector<std::string> paths;
  for (std::uint32_t i = 0; i < 3; ++i) {
    ExperimentConfig shard = plain;
    shard.shard_index = i;
    shard.shard_count = 3;
    shard.checkpoint_path =
        temp_path("accu_feedback_shard" + std::to_string(i) + ".txt");
    (void)run_experiment(tiny_factory(), two_strategies(), shard);
    paths.push_back(shard.checkpoint_path);
  }
  const ShardMergeOutcome merged = merge_shard_checkpoints(paths);
  EXPECT_EQ(merged.cells_merged,
            static_cast<std::size_t>(plain.samples) * plain.runs);
  expect_identical_results(sequential, merged.result);
  // The merged config carries the feedback model back out.
  EXPECT_TRUE(merged.config.feedback == plain.feedback);
}

TEST(FeedbackExperimentTest, NonFullSweepResumesBitIdentically) {
  ExperimentConfig config = feedback_config();
  config.checkpoint_path = temp_path("accu_feedback_resume.txt");
  const ExperimentResult first =
      run_experiment(tiny_factory(), two_strategies(), config);
  // The checkpoint records the model...
  EXPECT_NE(read_file(config.checkpoint_path).find("\nfeedback batched:4\n"),
            std::string::npos);
  // ...and a resume restores every cell without re-running any.
  std::size_t fresh_cells = 0;
  config.progress = [&](const ExperimentProgress& p) {
    if (!p.restored) ++fresh_cells;
  };
  const ExperimentResult resumed =
      run_experiment(tiny_factory(), two_strategies(), config);
  EXPECT_EQ(fresh_cells, 0u);
  expect_identical_results(first, resumed);
}

TEST(FeedbackExperimentTest, FeedbackModelIsPartOfTheFingerprint) {
  ExperimentConfig config = feedback_config();
  config.checkpoint_path = temp_path("accu_feedback_fp.txt");
  (void)run_experiment(tiny_factory(), two_strategies(), config);
  // Same sweep under a different feedback model must refuse the file.
  config.feedback = FeedbackModel{FeedbackKind::kDelayed, 4};
  EXPECT_THROW(run_experiment(tiny_factory(), two_strategies(), config),
               IoError);
  config.feedback = FeedbackModel{};
  EXPECT_THROW(run_experiment(tiny_factory(), two_strategies(), config),
               IoError);
}

TEST(FeedbackExperimentTest, FullModeCheckpointBytesCarryNoFeedbackLine) {
  // Format stability: the default model must leave checkpoint files
  // byte-compatible with pre-feedback-axis readers.
  ExperimentConfig config = feedback_config();
  config.feedback = FeedbackModel{};
  config.checkpoint_path = temp_path("accu_feedback_fullmode.txt");
  (void)run_experiment(tiny_factory(), two_strategies(), config);
  EXPECT_EQ(read_file(config.checkpoint_path).find("feedback"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Theory estimator: the adaptivity-gap helper.
// ---------------------------------------------------------------------------

TEST(FeedbackTheoryTest, AdaptivityGapIsOneUnderFullAndBoundedOtherwise) {
  const AccuInstance instance = facebook_instance(0.03);
  util::Rng rng(11);
  const auto make = [] {
    return std::unique_ptr<Strategy>(new AbmStrategy(0.5, 0.5));
  };
  // Full feedback vs itself: identical runs, gap exactly 1.
  util::Rng rng_full(11);
  EXPECT_DOUBLE_EQ(
      empirical_adaptivity_gap(instance, make, 20, 4, rng_full,
                               FeedbackModel{}),
      1.0);
  // Restricted feedback: the gap is a positive ratio; ABM still harvests
  // reckless users blind, so it cannot collapse to zero here.
  const double gap = empirical_adaptivity_gap(
      instance, make, 20, 4, rng, FeedbackModel{FeedbackKind::kMyopic, 0});
  EXPECT_GT(gap, 0.0);
  EXPECT_LT(gap, 1.5);  // sanity ceiling: restricted ≈<= full on average
}

}  // namespace
}  // namespace accu
