// Small statistics helpers used across evaluation code: online accumulators,
// error metrics (the paper's CPI error definition), and simple summaries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace mlsim {

/// Welford online mean/variance with min/max tracking.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  // population variance
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Paper §V-B error definition: (reference - value) / reference * 100.
/// Positive means `value` underestimates the reference.
double signed_percent_error(double reference, double value);

/// |reference - value| / reference * 100.
double absolute_percent_error(double reference, double value);

/// Mean absolute percent error over paired series (sizes must match).
double mean_absolute_percent_error(const std::vector<double>& reference,
                                   const std::vector<double>& value);

/// Percentile of a copy of the data (p in [0, 100], linear interpolation).
/// Throws CheckError for empty data or p outside [0, 100]; p = 100 returns
/// the maximum exactly (no out-of-range interpolation index).
double percentile(std::vector<double> data, double p);

/// Quantile of a fixed-bucket histogram: `upper_edges` are ascending bucket
/// upper bounds (the last bucket also absorbs overflow), `counts[i]` is the
/// number of samples in bucket i. Linearly interpolates within the target
/// bucket, mirroring `percentile`'s convention. Returns NaN when the
/// histogram is empty; p is clamped to [0, 100]. Sizes must match.
double quantile_from_buckets(const std::vector<double>& upper_edges,
                             const std::vector<std::uint64_t>& counts,
                             double p);

}  // namespace mlsim
