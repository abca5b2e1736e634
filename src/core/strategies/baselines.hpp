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
// order depends on the instance alone, so it lives in the instance's
// artifact cache (core/artifacts.hpp), keyed by the strategy's class: the
// first reset() on an instance runs scores() and the sort, and every later
// reset — on any copy of the instance, by any strategy object on any worker
// thread — only points the cursor at the shared order and rewinds it.

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

  /// This class's request order on `instance`: node ids stable-sorted by
  /// descending scores(), ties by node id.  Built on first request and kept
  /// in the instance's artifact cache under the strategy's dynamic type, so
  /// every object of one class shares it; a scores() that throws leaves no
  /// entry behind.
  [[nodiscard]] const std::vector<NodeId>& order(
      const AccuInstance& instance) const;

 protected:
  /// Per-node score; higher is requested earlier.  Ties break by node id.
  /// Must depend on the instance's contents only: order() calls it once per
  /// instance (and its copies) and class.
  [[nodiscard]] virtual std::vector<double> scores(
      const AccuInstance& instance) const = 0;

 private:
  // The instance's shared order (not owned); set by reset().
  const std::vector<NodeId>* order_ = nullptr;
  std::size_t cursor_ = 0;
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
