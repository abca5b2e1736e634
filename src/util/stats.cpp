#include "util/stats.hpp"

#include <cmath>

namespace accu::util {

void RunningStat::merge(const RunningStat& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(count_);
  const auto nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  count_ += other.count_;
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
}

double RunningStat::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStat::stderr_mean() const noexcept {
  if (count_ < 2) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(count_));
}

double RunningStat::ci95_halfwidth() const noexcept {
  return 1.96 * stderr_mean();
}

void SeriesAccumulator::add_run(const std::vector<double>& y) {
  if (y.size() > cells_.size()) cells_.resize(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) cells_[i].add(y[i]);
}

void SeriesAccumulator::add_at(std::size_t index, double y) {
  if (index >= cells_.size()) cells_.resize(index + 1);
  cells_[index].add(y);
}

void SeriesAccumulator::merge(const SeriesAccumulator& other) {
  if (other.cells_.size() > cells_.size()) cells_.resize(other.cells_.size());
  for (std::size_t i = 0; i < other.cells_.size(); ++i) {
    cells_[i].merge(other.cells_[i]);
  }
}

const RunningStat& SeriesAccumulator::at(std::size_t index) const {
  ACCU_ASSERT(index < cells_.size());
  return cells_[index];
}

std::vector<double> SeriesAccumulator::means() const {
  std::vector<double> out(cells_.size());
  for (std::size_t i = 0; i < cells_.size(); ++i) out[i] = cells_[i].mean();
  return out;
}

std::vector<double> SeriesAccumulator::ci95() const {
  std::vector<double> out(cells_.size());
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    out[i] = cells_[i].ci95_halfwidth();
  }
  return out;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), width_((hi - lo) / static_cast<double>(bins)), counts_(bins) {
  if (!(hi > lo)) throw InvalidArgument("Histogram: hi must exceed lo");
  if (bins == 0) throw InvalidArgument("Histogram: need at least one bin");
}

void Histogram::add(double x) noexcept {
  if (std::isnan(x)) {
    // Casting floor(NaN) to an integer is UB; count it separately.
    ++nan_count_;
    return;
  }
  auto bin = static_cast<std::ptrdiff_t>(std::floor((x - lo_) / width_));
  if (bin < 0) bin = 0;
  const auto last = static_cast<std::ptrdiff_t>(counts_.size()) - 1;
  if (bin > last) bin = last;
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

std::size_t Histogram::count(std::size_t bin) const {
  ACCU_ASSERT(bin < counts_.size());
  return counts_[bin];
}

double Histogram::bin_lo(std::size_t bin) const {
  ACCU_ASSERT(bin < counts_.size());
  return lo_ + width_ * static_cast<double>(bin);
}

double Histogram::bin_hi(std::size_t bin) const {
  ACCU_ASSERT(bin < counts_.size());
  return lo_ + width_ * static_cast<double>(bin + 1);
}

double Histogram::fraction(std::size_t bin) const {
  ACCU_ASSERT(bin < counts_.size());
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_[bin]) / static_cast<double>(total_);
}

}  // namespace accu::util
