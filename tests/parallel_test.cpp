// Intra-cell parallelism (core/task_pool.hpp + the adopt_task_pool seam) —
// ISSUE 9.
//
//   * ScoreTaskPoolTest         — the pool itself: every index runs exactly
//     once at any width, batches are reusable, width <= 1 stays inline.
//   * ExperimentCellParallelTest — the determinism contract end to end:
//     full simulations of the parallel strategies (lookahead beam fan-out,
//     batched rescore chunks) are TRACE-IDENTICAL for any cell_threads,
//     and score_batch_all matches the single-range rescore bit for bit.
//
// Suite names deliberately match tools/ci.sh regexes: "Score…" rides the
// engine gate and the forced-ISA stages, "Experiment…" rides the TSan
// stage, which is what actually exercises cross-thread visibility here.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/score.hpp"
#include "core/strategies/batched.hpp"
#include "core/strategies/lookahead.hpp"
#include "core/task_pool.hpp"
#include "graph/generators.hpp"

namespace accu {
namespace {

TEST(ScoreTaskPoolTest, RunsEveryIndexExactlyOnceAtAnyWidth) {
  for (const unsigned width : {0u, 1u, 2u, 3u, 5u}) {
    TaskPool pool(width);
    EXPECT_GE(pool.threads(), 1u);
    for (const std::size_t n : {0ull, 1ull, 2ull, 17ull, 256ull}) {
      std::vector<std::atomic<std::uint32_t>> hits(n);
      for (auto& h : hits) h.store(0);
      pool.run(n, [&](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1u) << "width " << width << " n " << n
                                      << " index " << i;
      }
    }
  }
}

TEST(ScoreTaskPoolTest, ReusableAcrossManyBatches) {
  TaskPool pool(3);
  std::vector<std::atomic<std::uint64_t>> cell(64);
  for (auto& c : cell) c.store(0);
  std::uint64_t expected = 0;
  for (int batch = 1; batch <= 50; ++batch) {
    pool.run(cell.size(), [&](std::size_t i) {
      cell[i].fetch_add(static_cast<std::uint64_t>(batch));
    });
    expected += static_cast<std::uint64_t>(batch);
  }
  for (auto& c : cell) ASSERT_EQ(c.load(), expected);
}

TEST(ScoreTaskPoolTest, WidthOneRunsInlineOnTheCaller) {
  TaskPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  bool on_caller = true;
  pool.run(32, [&](std::size_t) {
    on_caller &= (std::this_thread::get_id() == caller);
  });
  EXPECT_TRUE(on_caller);
}

// ---------------------------------------------------------------------------
// End-to-end determinism across cell_threads
// ---------------------------------------------------------------------------

AccuInstance make_test_instance(std::uint64_t seed, NodeId n = 100) {
  util::Rng rng(seed);
  graph::GraphBuilder b = graph::holme_kim(n, 4, 0.3, rng);
  b.assign_uniform_probs(rng);
  const Graph g = b.build();
  std::vector<UserClass> classes(n, UserClass::kReckless);
  std::vector<std::uint32_t> thresholds(n, 1);
  std::vector<NodeId> cautious;
  for (NodeId v = 0; v < n && cautious.size() < n / 10; ++v) {
    if (g.degree(v) < 3) continue;
    bool adjacent = false;
    for (const NodeId x : cautious) adjacent |= g.has_edge(v, x);
    if (adjacent) continue;
    classes[v] = UserClass::kCautious;
    thresholds[v] = 2;
    cautious.push_back(v);
  }
  std::vector<double> q(n);
  for (auto& x : q) x = rng.uniform();
  return AccuInstance(g, classes, q, thresholds,
                      BenefitModel::paper_default(classes));
}

/// Simulates `strategy` under the given pool width and returns the result;
/// `rng_end` receives the strategy RNG's final state for stream pinning.
template <typename MakeStrategy>
SimulationResult run_at_width(const AccuInstance& instance,
                              MakeStrategy make_strategy, unsigned width,
                              std::uint64_t* rng_end) {
  SimWorkspace ws;
  ws.set_cell_threads(width);
  util::Rng truth_rng(777);
  const Realization& truth = ws.sample_truth(instance, truth_rng);
  auto strategy = make_strategy();
  util::Rng rng(42);
  SimulationResult out;
  simulate_into(instance, truth, strategy, 40, rng, ws.reset_view(instance),
                ws, out);
  *rng_end = rng();
  return out;
}

template <typename MakeStrategy>
void expect_trace_identical_across_widths(const AccuInstance& instance,
                                          MakeStrategy make_strategy) {
  std::uint64_t base_rng_end = 0;
  const SimulationResult base =
      run_at_width(instance, make_strategy, 1, &base_rng_end);
  ASSERT_FALSE(base.trace.empty());
  for (const unsigned width : {2u, 3u, 5u}) {
    std::uint64_t rng_end = 0;
    const SimulationResult got =
        run_at_width(instance, make_strategy, width, &rng_end);
    ASSERT_EQ(got.trace.size(), base.trace.size()) << "width " << width;
    for (std::size_t i = 0; i < base.trace.size(); ++i) {
      ASSERT_EQ(got.trace[i].target, base.trace[i].target)
          << "width " << width << " round " << i;
      ASSERT_EQ(got.trace[i].accepted, base.trace[i].accepted)
          << "width " << width << " round " << i;
    }
    EXPECT_EQ(got.total_benefit, base.total_benefit) << "width " << width;
    EXPECT_EQ(got.num_accepted, base.num_accepted) << "width " << width;
    EXPECT_EQ(rng_end, base_rng_end) << "width " << width;
  }
}

TEST(ExperimentCellParallelTest, LookaheadTraceIdenticalForAnyCellThreads) {
  const AccuInstance instance = make_test_instance(5);
  expect_trace_identical_across_widths(instance, [] {
    LookaheadStrategy::Config config;
    config.beam = 6;
    config.scenario_samples = 3;
    config.weights = {0.5, 0.5};
    return LookaheadStrategy(config);
  });
}

TEST(ExperimentCellParallelTest, BatchedTraceIdenticalForAnyCellThreads) {
  // Large enough that score_batch_all actually chunks across the pool
  // (chunking starts at 2 * 256 candidates).
  const AccuInstance instance = make_test_instance(7, 700);
  expect_trace_identical_across_widths(instance, [] {
    return BatchedAbmStrategy({0.5, 0.5}, 5);
  });
}

TEST(ExperimentCellParallelTest, ScoreBatchAllMatchesSingleRangeRescore) {
  const AccuInstance instance = make_test_instance(8, 1200);  // forces chunks
  const NodeId n = instance.num_nodes();
  ScorePack pack;
  pack.build(instance);
  util::Rng rng(3);
  const Realization truth = Realization::sample(instance, rng);
  AttackerView view(instance);
  for (NodeId t = 0; t < 15; ++t) {
    if (t % 4 == 0) {
      view.record_rejection(t);
    } else {
      view.record_acceptance(t, truth);
    }
  }
  const PotentialWeights weights{0.4, 0.6};
  std::vector<double> ref(n);
  score_batch(pack, view, weights, 0, n, ref.data());
  for (const unsigned width : {1u, 2u, 4u, 9u}) {
    TaskPool pool(width);
    ScoreBatchScratch scratch;
    std::vector<double> got(n, -1.0);
    score_batch_all(pack, view, weights, scratch, &pool, got.data());
    ASSERT_EQ(got, ref) << "width " << width;
  }
}

}  // namespace
}  // namespace accu
