// The paper's comparison baselines (§IV-A, "Algorithms for Comparison").
//
//   * MaxDegree — iteratively request the highest-degree remaining user.
//     Degrees are *expected* degrees under the attacker's prior (the sum of
//     incident edge probabilities), since true degrees are not observable.
//   * PageRank — request users in decreasing PageRank score, computed once
//     on the prior network with edge probabilities as transition weights.
//   * Random — uniform among un-requested users (the paper averages this
//     over many runs; the experiment harness does the same).
//
// MaxDegree and PageRank are static orders: their information never changes
// with observations, which is exactly why ABM beats them in the paper.  The
// order depends on the instance alone, so each strategy object builds it once
// per instance and keeps it: reset() reruns scores() and the sort only when
// the instance's AccuInstance::uid (or node count) differs from the one the
// kept order was built for, and otherwise just rewinds the cursor.  A sweep
// worker holds its strategies for the whole sweep, so a reused instance costs
// one build per worker, not one per cell.  The memo is per object and
// unsynchronized, like the rest of a strategy's state.

#pragma once

#include <cstdint>
#include <vector>

#include "core/simulator.hpp"

namespace accu {

class RandomStrategy final : public Strategy {
 public:
  void reset(const AccuInstance& instance, util::Rng& rng) override;
  NodeId select(const AttackerView& view, util::Rng& rng) override;
  [[nodiscard]] std::string name() const override { return "Random"; }

 private:
  // Shuffled node order; a cursor walks it skipping requested nodes, so a
  // full simulation stays O(n) regardless of budget.
  std::vector<NodeId> order_;
  std::size_t cursor_ = 0;
};

/// Shared implementation for score-ordered static baselines.
class StaticOrderStrategy : public Strategy {
 public:
  void reset(const AccuInstance& instance, util::Rng& rng) final;
  NodeId select(const AttackerView& view, util::Rng& rng) final;

 protected:
  /// Per-node score; higher is requested earlier.  Ties break by node id.
  /// Must depend on the instance's contents only: reset() calls it once per
  /// distinct instance uid and reuses the resulting order.
  [[nodiscard]] virtual std::vector<double> scores(
      const AccuInstance& instance) const = 0;

 private:
  std::vector<NodeId> order_;
  std::size_t cursor_ = 0;
  // AccuInstance::uid order_ was built for; 0 (never a live uid) when none.
  // Written only after the build completes.
  std::uint64_t order_uid_ = 0;
};

class MaxDegreeStrategy final : public StaticOrderStrategy {
 public:
  [[nodiscard]] std::string name() const override { return "MaxDegree"; }

 protected:
  [[nodiscard]] std::vector<double> scores(
      const AccuInstance& instance) const override;
};

class PageRankStrategy final : public StaticOrderStrategy {
 public:
  [[nodiscard]] std::string name() const override { return "PageRank"; }

 protected:
  [[nodiscard]] std::vector<double> scores(
      const AccuInstance& instance) const override;
};

}  // namespace accu
