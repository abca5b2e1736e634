// Streaming statistics used by the experiment harness.
//
// `RunningStat` accumulates mean/variance with Welford's numerically stable
// recurrence; `SeriesAccumulator` aggregates per-index curves (benefit vs k,
// marginal gain vs request index, ...) across repeated runs; `Histogram`
// bins scalar observations.  All of these are header-light, allocation-aware
// and exact enough for the confidence intervals reported in EXPERIMENTS.md.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace accu::util {

/// Welford streaming mean / variance / min / max of a scalar sample.
class RunningStat {
 public:
  void add(double x) noexcept {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    if (count_ == 1 || x < min_) min_ = x;
    if (count_ == 1 || x > max_) max_ = x;
  }

  /// Merges another accumulator (parallel Welford / Chan et al.).
  void merge(const RunningStat& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Unbiased sample variance; 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  /// Standard error of the mean; 0 for fewer than two samples.
  [[nodiscard]] double stderr_mean() const noexcept;
  /// Half-width of a normal-approximation 95% confidence interval.
  [[nodiscard]] double ci95_halfwidth() const noexcept;
  [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept {
    return mean_ * static_cast<double>(count_);
  }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Aggregates repeated observations of a curve `y[0..n)`: each run calls
/// `add_run` with its curve; per-index means and CIs fall out.  Runs may
/// have different lengths (e.g. a policy that exhausts candidates early);
/// indices absent from a run simply contribute no sample there.
class SeriesAccumulator {
 public:
  /// Adds one run's curve; `y[i]` is the observation at index i.
  void add_run(const std::vector<double>& y);

  /// Adds a single observation at a given index.
  void add_at(std::size_t index, double y);

  /// Merges another accumulator index-by-index (parallel experiment
  /// shards).
  void merge(const SeriesAccumulator& other);

  /// Back to the empty state, keeping capacity for reuse.
  void clear() noexcept { cells_.clear(); }

  [[nodiscard]] std::size_t length() const noexcept { return cells_.size(); }
  [[nodiscard]] const RunningStat& at(std::size_t index) const;
  [[nodiscard]] std::vector<double> means() const;
  [[nodiscard]] std::vector<double> ci95() const;

 private:
  std::vector<RunningStat> cells_;
};

/// Fixed-width histogram over [lo, hi); out-of-range samples are clamped to
/// the first/last bin so mass is never silently dropped.  NaN samples are
/// not binnable (flooring NaN to an integer bin index is undefined
/// behavior): they are tallied in `nan_count()` instead and excluded from
/// `total()` and the bin fractions.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;

  [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
  [[nodiscard]] std::size_t count(std::size_t bin) const;
  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  /// NaN samples seen by add(); never binned.
  [[nodiscard]] std::size_t nan_count() const noexcept { return nan_count_; }
  /// Inclusive lower edge of a bin.
  [[nodiscard]] double bin_lo(std::size_t bin) const;
  /// Exclusive upper edge of a bin.
  [[nodiscard]] double bin_hi(std::size_t bin) const;
  /// Fraction of all samples falling in `bin` (0 when empty).
  [[nodiscard]] double fraction(std::size_t bin) const;

 private:
  double lo_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  std::size_t nan_count_ = 0;
};

}  // namespace accu::util
