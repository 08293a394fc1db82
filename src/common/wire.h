// Shared binary wire format (docs/DISTRIBUTED.md, docs/RESILIENCE.md).
//
// One envelope discipline for every byte stream the system persists or
// transmits:
//
//   magic | version | payload_checksum | payload_size | payload
//
// with all integers little-endian and the checksum FNV-1a over the payload.
// Checkpoint files (src/core/checkpoint.cpp) and the RPC frames of the
// distributed cluster (src/net/frame.h) both seal their payloads through
// this header, so a torn write on disk and a truncated frame on a socket
// are caught by the same length/checksum pair before a single payload
// field is trusted.
//
// Writer/Reader are the append-only little-endian serializers the payloads
// themselves are built with. Reader throws CheckError on any attempt to
// read past the end — corrupt input can never index out of bounds.
#pragma once

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/check.h"

namespace mlsim::wire {

/// Envelope format version shared by checkpoints and RPC frames. Bump when
/// the envelope layout (not a payload schema) changes.
inline constexpr std::uint32_t kWireVersion = 1;

/// Fixed envelope size: magic(4) + version(4) + checksum(8) + size(8).
inline constexpr std::size_t kEnvelopeBytes = 4 + 4 + 8 + 8;

/// Append-only little-endian payload serializer.
class Writer {
 public:
  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const char*>(&v);
    buf_.append(p, sizeof(T));
  }
  template <typename T>
  void vec(const std::vector<T>& v) {
    pod(static_cast<std::uint64_t>(v.size()));
    static_assert(std::is_trivially_copyable_v<T>);
    buf_.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
  }
  void str(const std::string& s) {
    pod(static_cast<std::uint64_t>(s.size()));
    buf_.append(s);
  }
  const std::string& bytes() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked little-endian payload deserializer. `context` names the
/// source (file path, peer address) in error messages.
class Reader {
 public:
  Reader(const char* data, std::size_t size, std::string context)
      : p_(data), end_(data + size), context_(std::move(context)) {}
  Reader(std::string_view payload, std::string context)
      : Reader(payload.data(), payload.size(), std::move(context)) {}

  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    need(sizeof(T));
    T v;
    std::memcpy(&v, p_, sizeof(T));
    p_ += sizeof(T);
    return v;
  }
  template <typename T>
  std::vector<T> vec() {
    const auto n = count(sizeof(T));
    std::vector<T> v(n);
    if (n > 0) std::memcpy(v.data(), p_, n * sizeof(T));
    p_ += n * sizeof(T);
    return v;
  }
  /// Read a `CountT` element count and check that that many elements of at
  /// least `min_bytes` each fit in what remains, so a corrupt count can
  /// neither wrap a size product nor size an allocation.
  template <typename CountT = std::uint64_t>
  std::uint64_t count(std::size_t min_bytes) {
    const std::uint64_t n = pod<CountT>();
    check(n <= remaining() / min_bytes, "payload truncated: " + context_);
    return n;
  }
  std::string str() {
    const auto len = pod<std::uint64_t>();
    need(len);
    std::string s(p_, len);
    p_ += len;
    return s;
  }
  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  void finish() const {
    check(p_ == end_, "payload has trailing bytes: " + context_);
  }

 private:
  void need(std::uint64_t bytes) const {
    check(static_cast<std::uint64_t>(end_ - p_) >= bytes,
          "payload truncated: " + context_);
  }
  const char* p_;
  const char* end_;
  std::string context_;
};

/// Seal `payload` into an enveloped byte string (magic | version | checksum |
/// size | payload).
std::string seal(std::uint32_t magic, std::string_view payload);

/// Validate an enveloped byte string and return a view of its payload.
/// Throws CheckError naming `context` on bad magic/version, length mismatch
/// (torn write), or checksum mismatch (corruption).
std::string_view unseal(std::uint32_t magic, std::string_view enveloped,
                        const std::string& context);

/// Write `payload` to `path` sealed and atomically (temp + rename).
/// Throws IoError on filesystem failure.
void write_envelope_file(const std::filesystem::path& path, std::uint32_t magic,
                         std::string_view payload);

/// Read and validate an enveloped file into `payload`. Returns false when
/// the file does not exist; throws IoError on filesystem failure and
/// CheckError when the content fails validation.
bool read_envelope_file(const std::filesystem::path& path, std::uint32_t magic,
                        std::string& payload);

}  // namespace mlsim::wire
