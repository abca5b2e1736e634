// InstanceArtifactTest — the per-instance artifact cache
// (core/artifacts.hpp): every copy of an instance reads the same score
// pack, static orders and ABM blank seed heaps; an equal but separately
// constructed instance gets its own; racing first requests build one
// object; and the cached orders are exactly the stable_sort the baselines
// have always produced, ties included.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <optional>
#include <thread>
#include <vector>

#include "core/score.hpp"
#include "core/strategies/abm.hpp"
#include "core/strategies/baselines.hpp"
#include "graph/generators.hpp"
#include "graph/pagerank.hpp"

namespace accu {
namespace {

constexpr PotentialWeights kAbm{0.5, 0.5};
constexpr PotentialWeights kGreedy{1.0, 0.0};

/// Holme–Kim small world with every edge certain, so expected degrees are
/// integers and tie often, plus a few cautious users (no two adjacent).
AccuInstance make_instance(NodeId n = 120) {
  util::Rng rng(11);
  const Graph g = graph::holme_kim(n, 3, 0.3, rng).build();
  std::vector<UserClass> classes(n, UserClass::kReckless);
  std::vector<std::uint32_t> thresholds(n, 1);
  std::vector<NodeId> cautious;
  for (NodeId v = 0; v < n && cautious.size() < 8; ++v) {
    if (g.degree(v) < 3) continue;
    bool adjacent = false;
    for (const NodeId x : cautious) adjacent |= g.has_edge(v, x);
    if (adjacent) continue;
    classes[v] = UserClass::kCautious;
    thresholds[v] = 2;
    cautious.push_back(v);
  }
  std::vector<double> q(n);
  for (double& x : q) x = rng.uniform();
  BenefitModel benefits = BenefitModel::paper_default(classes);
  return AccuInstance(g, classes, q, thresholds, std::move(benefits));
}

/// The order StaticOrderStrategy has always built: ids stable-sorted by
/// descending score.
std::vector<NodeId> stable_order(const std::vector<double>& score) {
  std::vector<NodeId> order(score.size());
  std::iota(order.begin(), order.end(), NodeId{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](NodeId a, NodeId b) { return score[a] > score[b]; });
  return order;
}

/// MaxDegree's scores, counting how often the cache asks for them.
class CountingDegreeOrder final : public StaticOrderStrategy {
 public:
  explicit CountingDegreeOrder(std::atomic<int>& calls) : calls_(calls) {}
  [[nodiscard]] std::string name() const override { return "Counting"; }

 protected:
  [[nodiscard]] std::vector<double> scores(
      const AccuInstance& instance) const override {
    calls_.fetch_add(1);
    std::vector<double> score(instance.num_nodes());
    for (NodeId v = 0; v < instance.num_nodes(); ++v) {
      score[v] = instance.graph().expected_degree(v);
    }
    return score;
  }

 private:
  std::atomic<int>& calls_;
};

TEST(InstanceArtifactTest, CopiesShareEveryArtifact) {
  std::optional<AccuInstance> original(make_instance());
  const AccuInstance copy = *original;
  const ScorePack* pack = &ScorePack::of(*original);
  EXPECT_EQ(pack, &ScorePack::of(copy));
  EXPECT_TRUE(pack->built_for(copy));
  const MaxDegreeStrategy max_degree;
  const PageRankStrategy pagerank;
  EXPECT_EQ(&max_degree.order(*original), &max_degree.order(copy));
  EXPECT_EQ(&pagerank.order(*original), &pagerank.order(copy));
  EXPECT_NE(&max_degree.order(copy), &pagerank.order(copy));
  const auto* heap = &AbmStrategy::blank_heap(*original, kAbm);
  EXPECT_EQ(heap, &AbmStrategy::blank_heap(copy, kAbm));
  // Each weight setting is its own entry.
  EXPECT_NE(heap, &AbmStrategy::blank_heap(copy, kGreedy));
  EXPECT_EQ(&AbmStrategy::blank_heap(*original, kGreedy),
            &AbmStrategy::blank_heap(copy, kGreedy));

  // The cache lives as long as any copy does.
  original.reset();
  EXPECT_EQ(pack, &ScorePack::of(copy));
  EXPECT_EQ(pack->num_nodes(), copy.num_nodes());
  EXPECT_EQ(heap, &AbmStrategy::blank_heap(copy, kAbm));
  EXPECT_EQ(heap->size(), copy.num_nodes());
}

TEST(InstanceArtifactTest, EqualInstancesBuildTheirOwn) {
  const AccuInstance a = make_instance();
  const AccuInstance b = make_instance();  // same contents, new uid
  ASSERT_NE(a.uid(), b.uid());
  EXPECT_NE(&ScorePack::of(a), &ScorePack::of(b));
  EXPECT_FALSE(ScorePack::of(a).built_for(b));
  const PageRankStrategy pagerank;
  EXPECT_NE(&pagerank.order(a), &pagerank.order(b));
  EXPECT_EQ(pagerank.order(a), pagerank.order(b));
  const auto& heap_a = AbmStrategy::blank_heap(a, kAbm);
  const auto& heap_b = AbmStrategy::blank_heap(b, kAbm);
  EXPECT_NE(&heap_a, &heap_b);
  ASSERT_EQ(heap_a.size(), heap_b.size());
  for (std::size_t i = 0; i < heap_a.size(); ++i) {
    EXPECT_EQ(heap_a[i].node, heap_b[i].node);
    EXPECT_EQ(heap_a[i].value, heap_b[i].value);
  }
}

TEST(InstanceArtifactTest, RacingFirstRequestsBuildOnce) {
  constexpr int kThreads = 4;
  const AccuInstance instance = make_instance(2000);
  std::atomic<int> order_builds{0};
  std::atomic<int> arrived{0};
  std::vector<const void*> packs(kThreads), orders(kThreads),
      heaps(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const CountingDegreeOrder strategy(order_builds);
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      // Each thread asks in a different order, so first requests of every
      // entry overlap with builds of the others.
      for (int k = 0; k < 3; ++k) {
        const int which = (t + k) % 3;
        if (which == 0) {
          packs[t] = &ScorePack::of(instance);
        } else if (which == 1) {
          orders[t] = &strategy.order(instance);
        } else {
          heaps[t] = &AbmStrategy::blank_heap(instance, kAbm);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(order_builds.load(), 1);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(packs[t], packs[0]);
    EXPECT_EQ(orders[t], orders[0]);
    EXPECT_EQ(heaps[t], heaps[0]);
  }
  EXPECT_EQ(packs[0], &ScorePack::of(instance));
}

TEST(InstanceArtifactTest, CachedOrdersEqualFreshStableSort) {
  const AccuInstance instance = make_instance();
  const Graph& g = instance.graph();
  std::vector<double> degree(instance.num_nodes());
  for (NodeId v = 0; v < instance.num_nodes(); ++v) {
    degree[v] = g.expected_degree(v);
  }
  // The tie-break is part of the contract, so the instance must have ties.
  std::vector<double> sorted = degree;
  std::sort(sorted.begin(), sorted.end());
  ASSERT_NE(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());

  const MaxDegreeStrategy max_degree;
  const PageRankStrategy pagerank;
  EXPECT_EQ(max_degree.order(instance), stable_order(degree));
  EXPECT_EQ(pagerank.order(instance), stable_order(graph::pagerank(g)));
  // A second request, through a copy and another object, is the same
  // cached order.
  const AccuInstance copy = instance;
  EXPECT_EQ(MaxDegreeStrategy().order(copy), stable_order(degree));
  EXPECT_EQ(PageRankStrategy().order(copy), stable_order(graph::pagerank(g)));
}

}  // namespace
}  // namespace accu
