#include "common/wire.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <fstream>

namespace mlsim::wire {

static_assert(std::endian::native == std::endian::little,
              "the wire format is little-endian and read with memcpy");

namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;  // odd: a bijection
constexpr std::size_t kLanes = 4;

/// One FNV-1a step: xor, then multiply by the odd prime. For a fixed state
/// it is injective in `v`, and for a fixed `v` injective in the state.
std::uint64_t fnv_step(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * kFnvPrime;
}

std::uint64_t load_word(const char* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

// Unique per (process, call) so concurrent writers of one path never
// clobber each other's in-flight files.
std::filesystem::path temp_sibling(const std::filesystem::path& path) {
  static std::atomic<std::uint64_t> counter{0};
  return path.parent_path() /
         (path.filename().string() + ".tmp." + std::to_string(::getpid()) +
          "." + std::to_string(counter.fetch_add(1)));
}

/// The murmur3 fmix64 finalizer: a bijection that spreads every input bit
/// over the whole sum.
std::uint64_t avalanche(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

}  // namespace

void Reader::fail(std::string_view what) const {
  check_failed(std::string(what) + ": " + context_, std::source_location::current());
}

std::uint64_t checksum(std::string_view payload) {
  const char* p = payload.data();
  const std::size_t words = payload.size() / 8;
  // Distinct lane seeds and an ordered fold (FNV-1a over the lanes) tell
  // the lanes apart, so words swapped between lanes do not cancel out.
  std::uint64_t lane[kLanes];
  for (std::size_t j = 0; j < kLanes; ++j) lane[j] = kFnvBasis + j;
  std::size_t i = 0;
  for (; i + kLanes <= words; i += kLanes) {
    for (std::size_t j = 0; j < kLanes; ++j) {
      lane[j] = fnv_step(lane[j], load_word(p + (i + j) * 8));
    }
  }
  for (std::size_t j = 0; i < words; ++i, ++j) {
    lane[j] = fnv_step(lane[j], load_word(p + i * 8));
  }
  std::uint64_t h = kFnvBasis;
  for (const std::uint64_t l : lane) h = fnv_step(h, l);
  for (std::size_t b = words * 8; b < payload.size(); ++b) {
    h = fnv_step(h, static_cast<unsigned char>(p[b]));
  }
  return avalanche(fnv_step(h, payload.size()));
}

std::string seal_header(std::uint32_t magic, std::string_view payload) {
  Writer head;
  head.pod(magic);
  head.pod(kWireVersion);
  head.pod(checksum(payload));
  head.pod(static_cast<std::uint64_t>(payload.size()));
  return head.take();
}

std::string seal(std::uint32_t magic, std::string_view payload) {
  std::string out = seal_header(magic, payload);
  out.append(payload);
  return out;
}

Header open_header(std::uint32_t magic, std::string_view header,
                   const std::string& context) {
  check(header.size() >= kEnvelopeBytes,
        "envelope too small for its header: " + context);
  Reader head(header.data(), kEnvelopeBytes, context);
  check(head.pod<std::uint32_t>() == magic,
        "bad envelope magic (wrong file or corrupted): " + context);
  const auto version = head.pod<std::uint32_t>();
  check(version == kWireVersion,
        "unsupported envelope version " + std::to_string(version) +
            " (this build reads " + std::to_string(kWireVersion) +
            "): " + context);
  Header h;
  h.checksum = head.pod<std::uint64_t>();
  h.payload_size = head.pod<std::uint64_t>();
  return h;
}

void verify_payload(const Header& header, std::string_view payload,
                    const std::string& context) {
  check(header.payload_size == payload.size(),
        "envelope payload length mismatch (torn write?): " + context);
  check(checksum(payload) == header.checksum,
        "envelope checksum mismatch (corrupted): " + context);
}

std::string_view unseal(std::uint32_t magic, std::string_view enveloped,
                        const std::string& context) {
  const Header header = open_header(magic, enveloped, context);
  const std::string_view payload = enveloped.substr(kEnvelopeBytes);
  verify_payload(header, payload, context);
  return payload;
}

void write_envelope_file(const std::filesystem::path& path, std::uint32_t magic,
                         std::string_view payload) {
  const std::string header = seal_header(magic, payload);
  const auto tmp = temp_sibling(path);
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os.is_open()) {
      throw IoError("cannot open temp file for writing: " + tmp.string());
    }
    os.write(header.data(), static_cast<std::streamsize>(header.size()));
    os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    os.flush();
    if (!os) {
      os.close();
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      throw IoError("short write to " + tmp.string());
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code ec2;
    std::filesystem::remove(tmp, ec2);
    throw IoError("cannot rename " + tmp.string() + " -> " + path.string() +
                  ": " + ec.message());
  }
}

bool read_envelope_file(const std::filesystem::path& path, std::uint32_t magic,
                        std::string& payload) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) return false;
  const std::uint64_t size = std::filesystem::file_size(path, ec);
  if (ec) throw IoError("cannot stat enveloped file: " + path.string());
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) throw IoError("cannot open enveloped file: " + path.string());
  const std::string context = path.string();
  char header[kEnvelopeBytes];
  const std::size_t header_bytes = static_cast<std::size_t>(
      std::min<std::uint64_t>(size, kEnvelopeBytes));
  is.read(header, static_cast<std::streamsize>(header_bytes));
  check(static_cast<bool>(is), "read failed on enveloped file: " + context);
  const Header h = open_header(magic, std::string_view(header, header_bytes), context);
  // The size field is checked against the file before it sizes the buffer.
  check(h.payload_size == size - kEnvelopeBytes,
        "envelope payload length mismatch (torn write?): " + context);
  payload.resize(h.payload_size);
  is.read(payload.data(), static_cast<std::streamsize>(payload.size()));
  check(static_cast<bool>(is), "read failed on enveloped file: " + context);
  verify_payload(h, payload, context);
  return true;
}

}  // namespace mlsim::wire
