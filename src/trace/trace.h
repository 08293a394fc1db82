// Encoded trace container and its file format.
//
// An EncodedTrace is the unit of work the ML simulator consumes: a dense
// n × kNumFeatures int32 matrix (one row per dynamic instruction), plus —
// for labeled traces — n × kNumTargets ground-truth latencies.
//
// A trace file is a sealed wire envelope (src/common/wire.h): a torn or
// corrupted file fails its length or checksum before a field is read.
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "trace/encoder.h"

namespace mlsim::trace {

class EncodedTrace {
 public:
  EncodedTrace() = default;
  explicit EncodedTrace(std::string benchmark) : benchmark_(std::move(benchmark)) {}
  /// Adopt flat row-major arrays without copying: `features` holds n rows
  /// of kNumFeatures, `targets` n rows of kNumTargets. labeled() comes out
  /// as appending the rows one by one would leave it: true when any target
  /// is nonzero. Throws CheckError when the shapes disagree.
  EncodedTrace(std::string benchmark, std::vector<std::int32_t> features,
               std::vector<std::uint32_t> targets);

  void reserve(std::size_t n);

  /// Append one instruction. Targets default to zero (unlabeled).
  void append(const FeatureVector& features,
              std::uint32_t fetch_lat = 0, std::uint32_t exec_lat = 0,
              std::uint32_t store_lat = 0);

  std::size_t size() const { return n_; }
  bool labeled() const { return labeled_; }
  const std::string& benchmark() const { return benchmark_; }

  /// Feature row of instruction i (kNumFeatures ints).
  std::span<const std::int32_t> features(std::size_t i) const;
  /// Target row of instruction i (kNumTargets values).
  std::span<const std::uint32_t> targets(std::size_t i) const;

  /// Flat storage access (row-major n × kNumFeatures) — used by the device
  /// layer to stage host→device copies without further marshalling.
  const std::vector<std::int32_t>& raw_features() const { return features_; }
  const std::vector<std::uint32_t>& raw_targets() const { return targets_; }

  /// Contiguous sub-trace view [begin, end): copies rows into a new trace.
  EncodedTrace slice(std::size_t begin, std::size_t end) const;

  // --- File format ------------------------------------------------------------
  // The payload holds the benchmark name, the row count, the feature and
  // target widths and the labeled flag, then per row its feature count up
  // to the last nonzero feature, those features as zigzag varints and the
  // targets as varints. Feature values are small integers, so a file is
  // typically 5-8x smaller than the raw arrays.

  /// Write the trace to `path` atomically. Throws IoError on filesystem
  /// failure.
  void save(const std::filesystem::path& path) const;
  /// Throws IoError for a missing or unreadable file and CheckError for one
  /// that is not a well-formed trace, before allocating anything sized by
  /// its row count.
  static EncodedTrace load(const std::filesystem::path& path);

 private:
  std::string benchmark_;
  std::size_t n_ = 0;
  bool labeled_ = false;
  std::vector<std::int32_t> features_;
  std::vector<std::uint32_t> targets_;
};

}  // namespace mlsim::trace
