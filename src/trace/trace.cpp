#include "trace/trace.h"

#include <algorithm>

#include "common/check.h"
#include "common/wire.h"

namespace mlsim::trace {

namespace {
constexpr std::uint32_t kTraceMagic = 0x4d4c4554;  // "MLET"
// A row is at least its feature count and kNumTargets targets, one byte each.
constexpr std::size_t kMinRowBytes = 1 + kNumTargets;

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}
}  // namespace

EncodedTrace::EncodedTrace(std::string benchmark,
                           std::vector<std::int32_t> features,
                           std::vector<std::uint32_t> targets)
    : benchmark_(std::move(benchmark)),
      n_(features.size() / kNumFeatures),
      features_(std::move(features)),
      targets_(std::move(targets)) {
  check(features_.size() == n_ * kNumFeatures,
        "trace feature array is not a whole number of rows");
  check(targets_.size() == n_ * kNumTargets,
        "trace target array does not match its feature rows");
  labeled_ = std::any_of(targets_.begin(), targets_.end(),
                         [](std::uint32_t t) { return t != 0; });
}

void EncodedTrace::reserve(std::size_t n) {
  features_.reserve(n * kNumFeatures);
  targets_.reserve(n * kNumTargets);
}

void EncodedTrace::append(const FeatureVector& features, std::uint32_t fetch_lat,
                          std::uint32_t exec_lat, std::uint32_t store_lat) {
  features_.insert(features_.end(), features.begin(), features.end());
  targets_.push_back(fetch_lat);
  targets_.push_back(exec_lat);
  targets_.push_back(store_lat);
  if (fetch_lat || exec_lat || store_lat) labeled_ = true;
  ++n_;
}

std::span<const std::int32_t> EncodedTrace::features(std::size_t i) const {
  check_index(i, n_, "trace row");
  return {features_.data() + i * kNumFeatures, kNumFeatures};
}

std::span<const std::uint32_t> EncodedTrace::targets(std::size_t i) const {
  check_index(i, n_, "trace row");
  return {targets_.data() + i * kNumTargets, kNumTargets};
}

EncodedTrace EncodedTrace::slice(std::size_t begin, std::size_t end) const {
  check(begin <= end && end <= n_, "slice bounds out of range");
  EncodedTrace out(benchmark_);
  out.n_ = end - begin;
  out.labeled_ = labeled_;
  out.features_.assign(features_.begin() + static_cast<std::ptrdiff_t>(begin * kNumFeatures),
                       features_.begin() + static_cast<std::ptrdiff_t>(end * kNumFeatures));
  out.targets_.assign(targets_.begin() + static_cast<std::ptrdiff_t>(begin * kNumTargets),
                      targets_.begin() + static_cast<std::ptrdiff_t>(end * kNumTargets));
  return out;
}

void EncodedTrace::save(const std::filesystem::path& path) const {
  wire::Writer w;
  w.reserve(n_ * (kNumFeatures + kNumTargets));
  w.str(benchmark_);
  w.pod(static_cast<std::uint64_t>(n_));
  w.pod(static_cast<std::uint32_t>(kNumFeatures));
  w.pod(static_cast<std::uint32_t>(kNumTargets));
  w.pod(static_cast<std::uint8_t>(labeled_));
  for (std::size_t i = 0; i < n_; ++i) {
    const std::int32_t* row = features_.data() + i * kNumFeatures;
    std::size_t used = kNumFeatures;
    while (used > 0 && row[used - 1] == 0) --used;
    w.varint(used);
    for (std::size_t c = 0; c < used; ++c) w.varint(zigzag(row[c]));
    for (std::size_t k = 0; k < kNumTargets; ++k) {
      w.varint(targets_[i * kNumTargets + k]);
    }
  }
  wire::write_envelope_file(path, kTraceMagic, w.bytes());
}

EncodedTrace EncodedTrace::load(const std::filesystem::path& path) {
  std::string payload;
  if (!wire::read_envelope_file(path, kTraceMagic, payload)) {
    throw IoError("cannot open trace file: " + path.string());
  }
  wire::Reader r(payload, path.string());
  EncodedTrace out(r.str());
  const auto n = r.pod<std::uint64_t>();
  check(r.pod<std::uint32_t>() == kNumFeatures,
        "feature width mismatch: " + path.string());
  check(r.pod<std::uint32_t>() == kNumTargets,
        "target width mismatch: " + path.string());
  out.labeled_ = r.pod<std::uint8_t>() != 0;
  check(n <= r.remaining() / kMinRowBytes,
        "trace payload too small for " + std::to_string(n) +
            " instructions: " + path.string());
  out.n_ = n;
  out.features_.resize(n * kNumFeatures);
  out.targets_.resize(n * kNumTargets);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t used = r.varint();
    if (used > kNumFeatures) [[unlikely]] {
      throw CheckError("corrupt row width in trace file at row " +
                       std::to_string(i) + ": " + path.string());
    }
    std::int32_t* row = out.features_.data() + i * kNumFeatures;
    for (std::size_t c = 0; c < used; ++c) {
      row[c] = static_cast<std::int32_t>(unzigzag(r.varint()));
    }
    for (std::size_t k = 0; k < kNumTargets; ++k) {
      out.targets_[i * kNumTargets + k] = static_cast<std::uint32_t>(r.varint());
    }
  }
  r.finish();
  return out;
}

}  // namespace mlsim::trace
