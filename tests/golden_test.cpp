// Golden regression tests: exact outputs for fixed seeds.
//
// These pin the end-to-end behaviour of the stack (RNG → generators →
// dataset protocol → realization → policies → simulator) to known-good
// values, so any unintended behavioural change — a reordered RNG draw, a
// tweaked tie-break, a generator edit — fails loudly here even when all
// semantic invariants still hold.  If a change is *intentional*, update
// the constants and say so in the commit.

#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/engine.hpp"
#include "core/score_simd.hpp"
#include "core/strategies/abm.hpp"
#include "core/strategies/baselines.hpp"
#include "core/strategies/batched.hpp"
#include "core/strategies/lookahead.hpp"
#include "core/strategies/retrying.hpp"
#include "datasets/datasets.hpp"
#include "graph/generators.hpp"

namespace accu {
namespace {

TEST(GoldenTest, RngStream) {
  util::Rng rng(42);
  EXPECT_EQ(rng(), 1546998764402558742ULL);
  EXPECT_EQ(rng(), 6990951692964543102ULL);
  rng.reseed(42);
  EXPECT_EQ(rng(), 1546998764402558742ULL);
}

TEST(GoldenTest, GeneratorShapes) {
  util::Rng rng(2019);
  const Graph ba = graph::barabasi_albert(500, 3, rng).build();
  EXPECT_EQ(ba.num_edges(), 1491u);
  util::Rng rng2(2019);
  const Graph er = graph::erdos_renyi(400, 0.05, rng2).build();
  EXPECT_EQ(er.num_edges(), 3988u);
}

TEST(GoldenTest, DatasetInstance) {
  util::Rng rng(7);
  datasets::DatasetConfig config;
  config.scale = 0.05;
  config.num_cautious = 10;
  const AccuInstance instance =
      datasets::make_dataset("facebook", config, rng);
  EXPECT_EQ(instance.num_nodes(), 202u);
  EXPECT_EQ(instance.graph().num_edges(), 3960u);
  EXPECT_EQ(instance.num_cautious(), 10u);
  ASSERT_FALSE(instance.cautious_users().empty());
  EXPECT_EQ(instance.cautious_users().front(), 50u);
}

TEST(GoldenTest, AbmAttackOutcome) {
  util::Rng rng(7);
  datasets::DatasetConfig config;
  config.scale = 0.05;
  config.num_cautious = 10;
  const AccuInstance instance =
      datasets::make_dataset("facebook", config, rng);
  util::Rng trng(13);
  const Realization truth = Realization::sample(instance, trng);
  AbmStrategy abm(0.5, 0.5);
  util::Rng srng(1);
  const SimulationResult result = simulate(instance, truth, abm, 40, srng);
  // Exact values pinned 2026-07-04 with the v1 potential function.
  EXPECT_EQ(result.trace.size(), 40u);
  EXPECT_EQ(result.trace[0].target, 36u);
  EXPECT_NEAR(result.total_benefit, 218.0, 1e-9);
  EXPECT_EQ(result.num_accepted, 26u);
  EXPECT_EQ(result.num_cautious_friends, 0u);
}

TEST(GoldenTest, BaselineOrderIsStable) {
  util::Rng rng(7);
  datasets::DatasetConfig config;
  config.scale = 0.05;
  config.num_cautious = 10;
  const AccuInstance instance =
      datasets::make_dataset("facebook", config, rng);
  MaxDegreeStrategy degree;
  util::Rng d1(1);
  degree.reset(instance, d1);
  AttackerView view(instance);
  EXPECT_EQ(degree.select(view, d1), 28u);
  PageRankStrategy pagerank;
  util::Rng p1(1);
  pagerank.reset(instance, p1);
  EXPECT_EQ(pagerank.select(view, p1), 28u);
}

/// FNV-1a over every field of a SimulationResult, in declaration order.
std::uint64_t digest(const SimulationResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  mix(r.trace.size());
  for (const RequestRecord& x : r.trace) {
    mix(x.target);
    mix(x.accepted);
    mix(x.cautious_target);
    mix(bits(x.benefit_before));
    mix(bits(x.benefit_after));
    mix(static_cast<std::uint64_t>(x.fault));
    mix(x.attempt);
  }
  mix(bits(r.total_benefit));
  mix(r.num_accepted);
  mix(r.num_cautious_friends);
  mix(r.friends.size());
  for (const NodeId f : r.friends) mix(f);
  mix(r.num_faulted);
  mix(r.num_retries);
  mix(r.rounds_suspended);
  mix(r.num_abandoned);
  return h;
}

struct DigestCell {
  const char* label;
  std::function<std::unique_ptr<Strategy>()> make;
  std::uint64_t truth_seed;
  std::uint64_t policy_seed;
  /// delayed:3 feedback, 20% faults with exp retry, and a live cancel token.
  bool stressed;
  std::uint64_t expected;
};

std::unique_ptr<Strategy> batched() {
  return std::make_unique<BatchedAbmStrategy>(PotentialWeights{0.5, 0.5}, 5);
}

std::unique_ptr<Strategy> lookahead() {
  LookaheadStrategy::Config config;
  config.beam = 4;
  config.scenario_samples = 2;
  return std::make_unique<LookaheadStrategy>(config);
}

std::unique_ptr<Strategy> with_retry(std::unique_ptr<Strategy> inner) {
  return std::make_unique<RetryingStrategy>(std::move(inner),
                                            util::RetryPolicy::parse("exp"));
}

std::unique_ptr<Strategy> abm() {
  return std::make_unique<AbmStrategy>(0.5, 0.5);
}

std::unique_ptr<Strategy> greedy() {
  return std::make_unique<AbmStrategy>(make_classic_greedy());
}

/// Runs `cell` with a caller-owned strategy and workspace, so one object
/// (and its per-instance caches) can serve a sequence of cells.
std::uint64_t run_cell_with(const AccuInstance& instance,
                            const DigestCell& cell, Strategy& strategy,
                            SimWorkspace& ws) {
  util::Rng truth_rng(cell.truth_seed);
  const Realization truth = Realization::sample(instance, truth_rng);
  util::Rng rng(cell.policy_seed);
  SimulationResult out;
  AttackerView& view = ws.reset_view(instance);
  if (cell.stressed) {
    FaultModel faults(FaultConfig::uniform(0.2, 3), cell.policy_seed + 100);
    const util::CancelToken never;
    simulate_into(instance, truth, strategy, 45, rng, view, ws, out,
                  {.faults = &faults,
                   .cancel = &never,
                   .feedback = FeedbackModel::parse("delayed", 3)});
  } else {
    simulate_into(instance, truth, strategy, 45, rng, view, ws, out);
  }
  return digest(out);
}

std::uint64_t run_cell(const AccuInstance& instance, const DigestCell& cell,
                       unsigned cell_threads) {
  SimWorkspace ws;
  ws.set_cell_threads(cell_threads);
  const std::unique_ptr<Strategy> strategy = cell.make();
  return run_cell_with(instance, cell, *strategy, ws);
}

AccuInstance facebook_instance(std::uint64_t seed) {
  util::Rng rng(seed);
  datasets::DatasetConfig config;
  config.scale = 0.05;
  config.num_cautious = 10;
  return datasets::make_dataset("facebook", config, rng);
}

TEST(GoldenTest, ScorePackStrategyTraceDigests) {
  // Pinned on the tree that still carried the scalar-scoring twins of
  // BatchedABM and Lookahead (their traces were byte-identical to these);
  // the ABM and Greedy cells were pinned while ScoreEngine still kept
  // per-slot contribution arrays.  Re-checked under every kernel table
  // this host supports and at intra-cell widths 1 and 4.
  const AccuInstance instance = facebook_instance(7);
  const std::vector<DigestCell> cells = {
      {"BatchedABM world 0", batched, 900, 2, false, 0xadd38d6560e03254ULL},
      {"BatchedABM world 1", batched, 901, 15, false, 0xac105cdb2cd73e86ULL},
      {"BatchedABM world 2", batched, 902, 28, false, 0x89c2e68c9d887e03ULL},
      {"Lookahead world 0", lookahead, 900, 2, false, 0x11f39cd93a0cb9fdULL},
      {"Lookahead world 1", lookahead, 901, 15, false, 0x26725e1c8246e02aULL},
      {"Lookahead world 2", lookahead, 902, 28, false, 0x87750ec74d5b0a51ULL},
      {"BatchedABM+retry stressed", [] { return with_retry(batched()); }, 903,
       41, true, 0x60b0bd1779f14b4cULL},
      {"Lookahead+retry stressed", [] { return with_retry(lookahead()); },
       903, 41, true, 0xbeddac3e34ca364eULL},
      {"ABM world 0", abm, 900, 2, false, 0x4a5f49065b5e05c4ULL},
      {"ABM world 1", abm, 901, 15, false, 0x24bb9070e5ef1ba9ULL},
      {"ABM world 2", abm, 902, 28, false, 0x25527659fd7434a7ULL},
      {"Greedy world 0", greedy, 900, 2, false, 0xeffc5d2a2c29c5b1ULL},
      {"Greedy world 1", greedy, 901, 15, false, 0x3b3083768986328aULL},
      {"Greedy world 2", greedy, 902, 28, false, 0x408cdf4b39d92f48ULL},
      {"ABM+retry stressed", [] { return with_retry(abm()); }, 903, 41, true,
       0xf84a543a4f715820ULL},
      {"Greedy+retry stressed", [] { return with_retry(greedy()); }, 903, 41,
       true, 0x5bc1573a04ded28fULL},
  };
  for (const simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kNeon}) {
    if (!simd::isa_supported(isa)) continue;
    simd::select_isa(isa);
    for (const unsigned cell_threads : {1U, 4U}) {
      for (const DigestCell& cell : cells) {
        const std::uint64_t got = run_cell(instance, cell, cell_threads);
        EXPECT_EQ(got, cell.expected)
            << cell.label << " isa " << simd::isa_name(isa) << " threads "
            << cell_threads << " digest 0x" << std::hex << got;
      }
    }
  }
  simd::select_auto();
}

TEST(GoldenTest, AbmReusedAcrossInstancesMatchesFreshObjects) {
  // One strategy object runs a sequence of cells the way a sweep worker
  // does: three worlds of one instance, a second instance, a third built
  // in the second's storage (same address, new uid), then the first again.
  // Every trace must equal the one a fresh object produces.
  const AccuInstance first = facebook_instance(7);
  std::optional<AccuInstance> other;
  for (const auto& make : {abm, greedy}) {
    const std::unique_ptr<Strategy> reused = make();
    SimWorkspace ws;
    const auto check = [&](const AccuInstance& instance,
                           const DigestCell& cell) {
      SimWorkspace fresh_ws;
      const std::unique_ptr<Strategy> fresh = make();
      EXPECT_EQ(run_cell_with(instance, cell, *reused, ws),
                run_cell_with(instance, cell, *fresh, fresh_ws))
          << reused->name() << " " << cell.label;
    };
    const DigestCell w0{"world 0", make, 900, 2, false, 0};
    const DigestCell w1{"world 1", make, 901, 15, false, 0};
    const DigestCell w2{"world 2", make, 902, 28, false, 0};
    const DigestCell stressed{"stressed", make, 903, 41, true, 0};
    check(first, w0);
    check(first, w1);
    check(first, w2);
    other.emplace(facebook_instance(8));
    check(*other, w0);
    check(*other, stressed);
    other.reset();
    other.emplace(facebook_instance(9));
    check(*other, w1);
    check(first, w0);
    check(first, stressed);
    check(first, w2);
  }
}

/// Drives `strategy` by hand so that its first events — requests to
/// `early` — land before its first select(), then lets it pick until
/// `budget` requests are spent.
std::uint64_t run_preselect(const AccuInstance& instance,
                            const Realization& truth, Strategy& strategy,
                            std::span<const NodeId> early,
                            std::uint32_t budget) {
  util::Rng rng(1);
  strategy.reset(instance, rng);
  AttackerView view(instance);
  AttackerView::AcceptanceEffects effects;
  SimulationResult out;
  const auto request = [&](NodeId target) {
    RequestRecord record;
    record.target = target;
    record.cautious_target = instance.is_cautious(target);
    record.benefit_before = view.true_benefit();
    record.accepted =
        engine::resolve_acceptance(instance, truth, view, target);
    if (record.accepted) {
      view.record_acceptance(target, truth, effects);
      strategy.observe(target, true, view, &effects);
    } else {
      view.record_rejection(target);
      strategy.observe(target, false, view, nullptr);
    }
    record.benefit_after = view.true_benefit();
    out.trace.push_back(record);
  };
  for (const NodeId target : early) request(target);
  while (out.trace.size() < budget) {
    const NodeId target = strategy.select(view, rng);
    if (target == kInvalidNode) break;
    request(target);
  }
  out.total_benefit = view.true_benefit();
  out.num_accepted = static_cast<std::uint32_t>(view.friends().size());
  out.num_cautious_friends = view.num_cautious_friends();
  out.friends = view.friends();
  return digest(out);
}

/// Requests that, sent before the first select, carry some cautious user
/// to its threshold (raising its potential from 0) and reject another.
std::vector<NodeId> threshold_crossing_requests(const AccuInstance& instance,
                                                const Realization& truth) {
  const Graph& g = instance.graph();
  for (const NodeId c : instance.cautious_users()) {
    std::vector<NodeId> early;
    for (const graph::Neighbor& nb : g.neighbors(c)) {
      if (!instance.is_cautious(nb.node) && truth.edge_present(nb.edge) &&
          truth.reckless_accepts(nb.node)) {
        early.push_back(nb.node);
      }
      if (early.size() == instance.threshold(c)) {
        for (const NodeId other : instance.cautious_users()) {
          if (other != c) {
            early.push_back(other);  // below θ: rejected
            return early;
          }
        }
      }
    }
  }
  return {};
}

TEST(GoldenTest, AbmEventsBeforeFirstSelectMatchReference) {
  // An object that already ran blank cells on this instance must not
  // reuse their seed heap once events arrived before the first select.
  const AccuInstance instance = facebook_instance(7);
  util::Rng truth_rng(901);
  const Realization truth = Realization::sample(instance, truth_rng);
  const std::vector<NodeId> early =
      threshold_crossing_requests(instance, truth);
  ASSERT_FALSE(early.empty());
  for (const PotentialWeights weights :
       {PotentialWeights{0.5, 0.5}, PotentialWeights{1.0, 0.0}}) {
    AbmStrategy warmed(weights.direct, weights.indirect);
    SimWorkspace ws;
    const DigestCell w0{"world 0", abm, 900, 2, false, 0};
    (void)run_cell_with(instance, w0, warmed, ws);
    AbmStrategy fresh(weights.direct, weights.indirect);
    AbmStrategy reference(AbmStrategy::Config{weights, false});
    const std::uint64_t want =
        run_preselect(instance, truth, reference, early, 45);
    EXPECT_EQ(run_preselect(instance, truth, fresh, early, 45), want)
        << fresh.name();
    EXPECT_EQ(run_preselect(instance, truth, warmed, early, 45), want)
        << warmed.name();
    // And a blank cell after the pre-select one still matches.
    SimWorkspace fresh_ws;
    AbmStrategy blank(weights.direct, weights.indirect);
    EXPECT_EQ(run_cell_with(instance, w0, warmed, ws),
              run_cell_with(instance, w0, blank, fresh_ws))
        << warmed.name();
  }
}

}  // namespace
}  // namespace accu
