#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace mlsim {

void RunningStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double signed_percent_error(double reference, double value) {
  check(reference != 0.0, "percent error undefined for zero reference");
  return (reference - value) / reference * 100.0;
}

double absolute_percent_error(double reference, double value) {
  return std::abs(signed_percent_error(reference, value));
}

double mean_absolute_percent_error(const std::vector<double>& reference,
                                   const std::vector<double>& value) {
  check(reference.size() == value.size(), "MAPE requires equal-size series");
  check(!reference.empty(), "MAPE requires non-empty series");
  double acc = 0.0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    acc += absolute_percent_error(reference[i], value[i]);
  }
  return acc / static_cast<double>(reference.size());
}

double percentile(std::vector<double> data, double p) {
  check(!data.empty(), "percentile of empty data");
  check(p >= 0.0 && p <= 100.0, "percentile p out of range");
  std::sort(data.begin(), data.end());
  const std::size_t n = data.size();
  const double idx = p / 100.0 * static_cast<double>(n - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  // p = 100 (and any floating overshoot of idx) resolves to the maximum
  // without ever forming an out-of-range interpolation partner.
  if (lo + 1 >= n) return data[n - 1];
  const double frac = idx - static_cast<double>(lo);
  return data[lo] * (1.0 - frac) + data[lo + 1] * frac;
}

double quantile_from_buckets(const std::vector<double>& upper_edges,
                             const std::vector<std::uint64_t>& counts,
                             double p) {
  check(upper_edges.size() == counts.size(),
        "bucket edges and counts must have equal size");
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return std::numeric_limits<double>::quiet_NaN();
  p = std::clamp(p, 0.0, 100.0);
  const double target = p / 100.0 * static_cast<double>(total);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double next = static_cast<double>(cum + counts[i]);
    if (next >= target) {
      const double lo_edge = i == 0 ? 0.0 : upper_edges[i - 1];
      const double hi_edge = upper_edges[i];
      const double frac =
          (target - static_cast<double>(cum)) / static_cast<double>(counts[i]);
      return lo_edge * (1.0 - frac) + hi_edge * frac;
    }
    cum += counts[i];
  }
  return upper_edges.back();  // open-ended last bucket: clamp to its edge
}

}  // namespace mlsim
