#include "trace/trace.h"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "common/check.h"

namespace mlsim::trace {

namespace {
constexpr std::uint32_t kMagic = 0x4d4c5452;  // "MLTR"
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kVersionCompressed = 2;

// --- zigzag varint (LEB128) ------------------------------------------------

void write_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

class VarintReader {
 public:
  VarintReader(const char* data, std::size_t size) : p_(data), end_(data + size) {}

  std::uint64_t next() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      check(p_ < end_, "compressed trace truncated");
      const auto byte = static_cast<unsigned char>(*p_++);
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return v;
      shift += 7;
      check(shift < 64, "varint overflow in trace file");
    }
  }

  bool exhausted() const { return p_ == end_; }

 private:
  const char* p_;
  const char* end_;
};

template <typename T>
void write_pod(std::ofstream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::ifstream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  check(static_cast<bool>(is), "trace file truncated");
  return v;
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

void EncodedTrace::save(const std::filesystem::path& path, bool compress) const {
  std::ofstream os(path, std::ios::binary);
  check(os.is_open(), "cannot open trace file for writing: " + path.string());
  write_pod(os, kMagic);
  write_pod(os, compress ? kVersionCompressed : kVersion);
  write_pod(os, static_cast<std::uint64_t>(n_));
  write_pod(os, static_cast<std::uint32_t>(kNumFeatures));
  write_pod(os, static_cast<std::uint32_t>(kNumTargets));
  write_pod(os, static_cast<std::uint8_t>(labeled_));
  const auto name_len = static_cast<std::uint32_t>(benchmark_.size());
  write_pod(os, name_len);
  os.write(benchmark_.data(), name_len);

  if (!compress) {
    os.write(reinterpret_cast<const char*>(features_.data()),
             static_cast<std::streamsize>(features_.size() * sizeof(std::int32_t)));
    os.write(reinterpret_cast<const char*>(targets_.data()),
             static_cast<std::streamsize>(targets_.size() * sizeof(std::uint32_t)));
    check(static_cast<bool>(os), "trace write failed: " + path.string());
    return;
  }

  // v2: per row, the count of meaningful (non-trailing-zero) features
  // followed by their zigzag varints; then the three target varints.
  std::string payload;
  payload.reserve(n_ * (kNumFeatures + kNumTargets));
  for (std::size_t i = 0; i < n_; ++i) {
    const std::int32_t* row = features_.data() + i * kNumFeatures;
    std::size_t used = kNumFeatures;
    while (used > 0 && row[used - 1] == 0) --used;
    write_varint(payload, used);
    for (std::size_t c = 0; c < used; ++c) write_varint(payload, zigzag(row[c]));
    for (std::size_t k = 0; k < kNumTargets; ++k) {
      write_varint(payload, targets_[i * kNumTargets + k]);
    }
  }
  const auto payload_size = static_cast<std::uint64_t>(payload.size());
  write_pod(os, payload_size);
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  check(static_cast<bool>(os), "trace write failed: " + path.string());
}

EncodedTrace EncodedTrace::load(const std::filesystem::path& path) {
  // Fixed-size header prefix: magic, version, n, widths, labeled, name_len.
  constexpr std::uint64_t kFixedHeaderBytes = 4 + 4 + 8 + 4 + 4 + 1 + 4;

  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) {
    throw IoError("cannot open trace file: " + path.string());
  }
  const std::uint64_t actual_size = std::filesystem::file_size(path, ec);
  if (ec) throw IoError("cannot stat trace file: " + path.string());
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) throw IoError("cannot open trace file: " + path.string());

  // Every structural claim the header makes is validated against the actual
  // file size before it is trusted, so truncated or bit-flipped files fail
  // with a descriptive CheckError instead of a silent short read or an
  // absurd allocation.
  check(actual_size >= kFixedHeaderBytes,
        "trace file too small to hold a header (" +
            std::to_string(actual_size) + " bytes): " + path.string());
  check(read_pod<std::uint32_t>(is) == kMagic,
        "bad trace magic (not a trace file, or corrupted): " + path.string());
  const auto version = read_pod<std::uint32_t>(is);
  check(version == kVersion || version == kVersionCompressed,
        "unsupported trace version " + std::to_string(version) + ": " +
            path.string());
  const auto n = read_pod<std::uint64_t>(is);
  check(read_pod<std::uint32_t>(is) == kNumFeatures,
        "feature width mismatch: " + path.string());
  check(read_pod<std::uint32_t>(is) == kNumTargets,
        "target width mismatch: " + path.string());
  const bool labeled = read_pod<std::uint8_t>(is) != 0;
  const auto name_len = read_pod<std::uint32_t>(is);
  check(kFixedHeaderBytes + name_len <= actual_size,
        "trace header claims a benchmark name past end of file: " +
            path.string());
  std::string name(name_len, '\0');
  is.read(name.data(), name_len);
  check(static_cast<bool>(is), "trace file truncated: " + path.string());
  const std::uint64_t header_bytes = kFixedHeaderBytes + name_len;

  if (version == kVersion) {
    // v1 body size is fully determined by n; reject before allocating.
    const std::uint64_t row_bytes =
        kNumFeatures * sizeof(std::int32_t) + kNumTargets * sizeof(std::uint32_t);
    check(n <= (actual_size - header_bytes) / row_bytes,
          "trace file truncated: header claims " + std::to_string(n) +
              " instructions but only " +
              std::to_string(actual_size - header_bytes) +
              " body bytes exist: " + path.string());
  } else {
    // v2: the payload length field itself must fit, and each instruction
    // contributes at least 1 row-width byte + kNumTargets target bytes.
    check(header_bytes + sizeof(std::uint64_t) <= actual_size,
          "trace file truncated before payload length: " + path.string());
  }

  EncodedTrace out(name);
  out.n_ = n;
  out.labeled_ = labeled;

  if (version == kVersion) {
    out.features_.resize(n * kNumFeatures);
    out.targets_.resize(n * kNumTargets);
    is.read(reinterpret_cast<char*>(out.features_.data()),
            static_cast<std::streamsize>(out.features_.size() * sizeof(std::int32_t)));
    is.read(reinterpret_cast<char*>(out.targets_.data()),
            static_cast<std::streamsize>(out.targets_.size() * sizeof(std::uint32_t)));
    check(static_cast<bool>(is), "trace file truncated: " + path.string());
    return out;
  }

  const auto payload_size = read_pod<std::uint64_t>(is);
  check(payload_size <= actual_size - header_bytes - sizeof(std::uint64_t),
        "trace payload length exceeds file size (" +
            std::to_string(payload_size) + " vs " +
            std::to_string(actual_size) + " total): " + path.string());
  check(n <= payload_size / (1 + kNumTargets),
        "trace payload too small for " + std::to_string(n) +
            " instructions: " + path.string());
  out.features_.resize(n * kNumFeatures);
  out.targets_.resize(n * kNumTargets);
  std::string payload(payload_size, '\0');
  is.read(payload.data(), static_cast<std::streamsize>(payload_size));
  check(static_cast<bool>(is), "trace file truncated: " + path.string());
  VarintReader reader(payload.data(), payload.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t used = reader.next();
    check(used <= kNumFeatures, "corrupt row width in trace file at row " +
                                    std::to_string(i) + ": " + path.string());
    std::int32_t* row = out.features_.data() + i * kNumFeatures;
    for (std::size_t c = 0; c < used; ++c) {
      row[c] = static_cast<std::int32_t>(unzigzag(reader.next()));
    }
    for (std::size_t k = 0; k < kNumTargets; ++k) {
      out.targets_[i * kNumTargets + k] =
          static_cast<std::uint32_t>(reader.next());
    }
  }
  check(reader.exhausted(),
        "trace payload has trailing bytes (bit-flipped row widths?): " +
            path.string());
  return out;
}

}  // namespace mlsim::trace
