// Streaming statistics for the measurement harnesses.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace pramsim::util {

/// Welford's online mean/variance plus min/max. Numerically stable; used to
/// summarize per-step round counts, queue depths, congestion, etc.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;  ///< sample variance (n-1 divisor)
  [[nodiscard]] double min() const { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

  /// Merge another accumulator into this one (parallel sweeps).
  void merge(const RunningStats& other);

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exact percentile over retained samples (the harness sample counts are
/// small enough that retention is cheaper than sketching).
class SampleSet {
 public:
  void add(double x) { xs_.push_back(x); }
  [[nodiscard]] std::size_t size() const { return xs_.size(); }
  /// Percentile p in [0,100], linear interpolation; asserts on empty set.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }
  [[nodiscard]] double max() const;
  [[nodiscard]] double mean() const;

 private:
  mutable std::vector<double> xs_;
  mutable bool sorted_ = false;
};

}  // namespace pramsim::util
