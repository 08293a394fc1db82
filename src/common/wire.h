// Shared binary wire format (docs/DISTRIBUTED.md, docs/RESILIENCE.md).
//
// One envelope discipline for every byte stream the system persists or
// transmits:
//
//   magic | version | payload_checksum | payload_size | payload
//
// with all integers little-endian. The checksum (wire::checksum) reads the
// payload eight bytes at a time in four interleaved FNV-1a lanes, so
// sealing a multi-megabyte frame costs a fraction of a millisecond, and
// any change confined to one 8-byte word or one tail byte changes it.
// Trace files (src/trace/trace.cpp), SimNet bundles
// (src/core/cnn_predictor.cpp), checkpoint files (src/core/checkpoint.cpp),
// the run journal (src/dist/journal.cpp) and the RPC frames of the
// distributed cluster (src/net/frame.h) all seal their payloads through this
// header, so a torn write on disk and a truncated frame on a socket are
// caught by the same length/checksum pair before a single payload field is
// trusted. The header can be computed once and written ahead of a payload
// held elsewhere (seal_header), and checked before the payload has arrived
// (open_header), which is how a frame or a file travels without an
// enveloped copy.
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

/// Envelope format version shared by every sealed format. Bump when the
/// envelope layout or its checksum (not a payload schema) changes: version 2
/// replaced the byte-serial FNV-1a checksum of version 1 with
/// wire::checksum, so an older envelope is rejected by its version instead
/// of failing as corruption.
inline constexpr std::uint32_t kWireVersion = 2;

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
  /// Unsigned LEB128: seven bits a byte, least significant first, so a
  /// small value takes one byte.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<char>((v & 0x7f) | 0x80));
      v >>= 7;
    }
    buf_.push_back(static_cast<char>(v));
  }
  void reserve(std::size_t bytes) { buf_.reserve(bytes); }
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
    if (n > remaining() / min_bytes) [[unlikely]] fail("payload truncated");
    return n;
  }
  std::string str() {
    const auto len = pod<std::uint64_t>();
    need(len);
    std::string s(p_, len);
    p_ += len;
    return s;
  }
  /// A Writer::varint; more than ten bytes is corruption.
  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (p_ == end_) [[unlikely]] fail("payload truncated");
      const auto byte = static_cast<unsigned char>(*p_++);
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return v;
    }
    fail("varint longer than ten bytes");
  }
  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  void finish() const {
    check(p_ == end_, "payload has trailing bytes: " + context_);
  }

 private:
  void need(std::uint64_t bytes) const {
    if (static_cast<std::uint64_t>(end_ - p_) < bytes) [[unlikely]] {
      fail("payload truncated");
    }
  }
  /// Throw CheckError "<what>: <context>". Out of line, so a read builds
  /// no message unless it fails.
  [[noreturn]] void fail(std::string_view what) const;
  const char* p_;
  const char* end_;
  std::string context_;
};

/// Envelope checksum of `payload`: four FNV-1a lanes over its little-endian
/// 8-byte words (word i feeds lane i mod 4), the 0–7 tail bytes FNV-1a'd
/// byte by byte after the lanes are folded, the length mixed in, then a
/// final avalanche. Every step is a bijection of the state for fixed other
/// inputs, so any change confined to one word or one tail byte changes the
/// sum.
std::uint64_t checksum(std::string_view payload);

/// The kEnvelopeBytes header that seals `payload`: magic | version |
/// checksum | size. seal() is this header followed by the payload.
std::string seal_header(std::uint32_t magic, std::string_view payload);

/// Seal `payload` into an enveloped byte string (magic | version | checksum |
/// size | payload).
std::string seal(std::uint32_t magic, std::string_view payload);

/// The fields of an envelope header that open_header has checked.
struct Header {
  std::uint64_t checksum = 0;
  std::uint64_t payload_size = 0;
};

/// Check the kEnvelopeBytes of `header` for `magic` and kWireVersion and
/// return its checksum and declared payload size. Throws CheckError naming
/// `context` on a short header, a bad magic or another version.
Header open_header(std::uint32_t magic, std::string_view header,
                   const std::string& context);

/// Check `payload` against an opened header: its length (a torn write
/// otherwise) and its checksum (corruption otherwise). Throws CheckError
/// naming `context`.
void verify_payload(const Header& header, std::string_view payload,
                    const std::string& context);

/// Write `payload` to `path` sealed and atomically: header and payload go
/// to a temporary sibling, which is renamed into place, so a killed writer
/// leaves the old file or none, never a torn one. Throws IoError on
/// filesystem failure and removes the temporary.
void write_envelope_file(const std::filesystem::path& path, std::uint32_t magic,
                         std::string_view payload);

/// Read and validate an enveloped file into `payload`: the header is
/// checked against the file's size before the payload is read straight
/// into `payload` and checksummed there. Returns false when the file does
/// not exist; throws IoError on filesystem failure and CheckError when the
/// content fails validation.
bool read_envelope_file(const std::filesystem::path& path, std::uint32_t magic,
                        std::string& payload);

}  // namespace mlsim::wire
