#include "util/stats.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace pramsim::util {

void RunningStats::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const {
  if (n_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(n_ - 1);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) {
    return;
  }
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double SampleSet::percentile(double p) const {
  PRAMSIM_ASSERT(!xs_.empty());
  PRAMSIM_ASSERT(p >= 0.0 && p <= 100.0);
  if (!sorted_) {
    std::sort(xs_.begin(), xs_.end());
    sorted_ = true;
  }
  if (xs_.size() == 1) {
    return xs_[0];
  }
  const double rank = p / 100.0 * static_cast<double>(xs_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= xs_.size()) {
    return xs_.back();
  }
  return xs_[lo] * (1.0 - frac) + xs_[lo + 1] * frac;
}

double SampleSet::max() const {
  PRAMSIM_ASSERT(!xs_.empty());
  return *std::max_element(xs_.begin(), xs_.end());
}

double SampleSet::mean() const {
  PRAMSIM_ASSERT(!xs_.empty());
  double s = 0.0;
  for (const double x : xs_) {
    s += x;
  }
  return s / static_cast<double>(xs_.size());
}

}  // namespace pramsim::util
