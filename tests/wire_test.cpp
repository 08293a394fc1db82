// Shared wire envelope (common/wire.h): seal/open round-trips, corruption
// and truncation detection (every bit of payloads that span several checksum
// lane blocks and a ragged tail, swapped and inserted words), rejection of
// an older envelope version, and the enveloped-file path used by
// checkpoints.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/wire.h"

namespace mlsim::wire {
namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kMagic = 0x54534554;  // "TEST"

fs::path temp_file(const std::string& name) {
  const fs::path p = fs::temp_directory_path() / name;
  fs::remove(p);
  return p;
}

std::string sample_payload() {
  Writer w;
  w.pod<std::uint64_t>(0xdeadbeefcafe1234ull);
  w.str("hello wire");
  w.vec(std::vector<std::uint32_t>{1, 2, 3, 5, 8, 13});
  w.vec(std::vector<std::uint16_t>{});
  w.pod<double>(2.5);
  return w.take();
}

/// The payload of `enveloped`, as every reader of an envelope opens one:
/// open_header, then verify_payload on the bytes after the header.
std::string_view open_sealed(std::uint32_t magic, std::string_view enveloped) {
  const Header header = open_header(magic, enveloped, "test");
  const std::string_view payload = enveloped.substr(kEnvelopeBytes);
  verify_payload(header, payload, "test");
  return payload;
}

TEST(Wire, SealUnsealRoundTrip) {
  const std::string payload = sample_payload();
  const std::string sealed = seal(kMagic, payload);
  EXPECT_EQ(sealed.size(), kEnvelopeBytes + payload.size());

  const std::string_view out = open_sealed(kMagic, sealed);
  ASSERT_EQ(out.size(), payload.size());
  EXPECT_EQ(std::string(out), payload);

  Reader r(out, "test");
  EXPECT_EQ(r.pod<std::uint64_t>(), 0xdeadbeefcafe1234ull);
  EXPECT_EQ(r.str(), "hello wire");
  EXPECT_EQ(r.vec<std::uint32_t>(), (std::vector<std::uint32_t>{1, 2, 3, 5, 8, 13}));
  EXPECT_TRUE(r.vec<std::uint16_t>().empty());
  EXPECT_EQ(r.pod<double>(), 2.5);
  r.finish();
}

TEST(Wire, EmptyPayloadRoundTrips) {
  const std::string sealed = seal(kMagic, "");
  EXPECT_EQ(sealed.size(), kEnvelopeBytes);
  EXPECT_EQ(open_sealed(kMagic, sealed).size(), 0u);
}

/// Distinct 8-byte words, so no two words are equal by accident.
std::string word(std::uint64_t i) {
  const std::uint64_t w = 0x9e3779b97f4a7c15ull * (i + 1);
  return std::string(reinterpret_cast<const char*>(&w), sizeof(w));
}

/// Three 4-word lane blocks, two words of a partial block, and a 5-byte
/// tail: every path through the checksum.
std::string multi_block_payload() {
  std::string p;
  for (std::uint64_t i = 0; i < 14; ++i) p += word(i);
  p += "tail!";
  return p;
}

TEST(Wire, EveryBitFlipIsDetected) {
  for (const std::string& payload : {sample_payload(), multi_block_payload()}) {
    const std::string sealed = seal(kMagic, payload);
    // Flip every bit of the envelope and the payload, one at a time; each
    // flip must be caught (magic, version, checksum, size, or content).
    for (std::size_t byte = 0; byte < sealed.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string bad = sealed;
        bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
        EXPECT_THROW(open_sealed(kMagic, bad), CheckError)
            << "flip of bit " << bit << " of byte " << byte << " of a "
            << payload.size() << "-byte payload went undetected";
      }
    }
  }
}

TEST(Wire, WordsSwappedAcrossLanesAreDetected) {
  struct Swap {
    std::string payload;
    std::size_t a, b;  // word indices
  };
  const std::string multi = multi_block_payload();
  const Swap swaps[] = {
      // One block: each lane holds one word, so the swap exchanges whole
      // lane states — caught only if the lanes are told apart.
      {multi.substr(0, 32), 1, 2},
      // Neighbours in one block of a longer payload (lanes 1 and 2), and
      // words in different lanes of different blocks.
      {multi, 1, 2},
      {multi, 0, 13},
  };
  for (const Swap& sw : swaps) {
    const std::string header = seal_header(kMagic, sw.payload);
    std::string swapped = sw.payload;
    swapped.replace(sw.a * 8, 8, sw.payload, sw.b * 8, 8);
    swapped.replace(sw.b * 8, 8, sw.payload, sw.a * 8, 8);
    ASSERT_NE(swapped, sw.payload);
    EXPECT_NE(checksum(swapped), checksum(sw.payload));
    EXPECT_THROW(open_sealed(kMagic, header + swapped), CheckError)
        << "words " << sw.a << " and " << sw.b << " of a "
        << sw.payload.size() << "-byte payload swapped went undetected";
  }
}

TEST(Wire, InsertedZeroWordIsDetected) {
  const std::string payload = multi_block_payload();
  std::string inserted = payload;
  inserted.insert(16, std::string(8, '\0'));
  EXPECT_NE(checksum(inserted), checksum(payload));
  // Even with the size field patched to match, the checksum catches it.
  std::string sealed = seal(kMagic, payload);
  const std::uint64_t size = inserted.size();
  sealed.replace(16, 8, reinterpret_cast<const char*>(&size), 8);
  sealed.replace(kEnvelopeBytes, std::string::npos, inserted);
  EXPECT_THROW(open_sealed(kMagic, sealed), CheckError);
}

TEST(Wire, OlderEnvelopeVersionIsRejectedNamingIt) {
  std::string sealed = seal(kMagic, sample_payload());
  const std::uint32_t v1 = 1;
  sealed.replace(4, 4, reinterpret_cast<const char*>(&v1), 4);
  try {
    (void)open_sealed(kMagic, sealed);
    FAIL() << "a version-1 envelope was accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("version 1"), std::string::npos)
        << e.what();
  }
}

TEST(Wire, TruncationIsDetected) {
  const std::string sealed = seal(kMagic, sample_payload());
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, kEnvelopeBytes - 1, kEnvelopeBytes,
        sealed.size() - 1}) {
    EXPECT_THROW(open_sealed(kMagic, sealed.substr(0, keep)), CheckError)
        << "truncation to " << keep << " bytes went undetected";
  }
}

TEST(Wire, WrongMagicIsRejected) {
  const std::string sealed = seal(kMagic, sample_payload());
  EXPECT_THROW(open_sealed(kMagic + 1, sealed), CheckError);
}

TEST(Wire, TrailingGarbageIsRejected) {
  std::string sealed = seal(kMagic, sample_payload());
  sealed += "junk";
  EXPECT_THROW(open_sealed(kMagic, sealed), CheckError);
}

TEST(Wire, ReaderNeverReadsPastEnd) {
  Writer w;
  w.pod<std::uint32_t>(7);
  const std::string payload = w.take();
  Reader r(payload, "test");
  EXPECT_EQ(r.pod<std::uint32_t>(), 7u);
  EXPECT_THROW(r.pod<std::uint32_t>(), CheckError);

  // A vector whose length word claims more elements than bytes remain.
  Writer lying;
  lying.pod<std::uint64_t>(1u << 20);
  const std::string lie = lying.take();
  Reader r2(lie, "test");
  EXPECT_THROW(r2.vec<std::uint64_t>(), CheckError);

  // A length word whose byte size wraps: 8 * (2^61 + 1) == 8 (mod 2^64),
  // and 8 bytes do remain.
  Writer wrapping;
  wrapping.pod<std::uint64_t>((1ull << 61) + 1);
  wrapping.pod<std::uint64_t>(0);
  const std::string wrap = wrapping.take();
  Reader r3(wrap, "test");
  EXPECT_THROW(r3.vec<std::uint64_t>(), CheckError);
}

TEST(Wire, FinishRejectsTrailingBytes) {
  Writer w;
  w.pod<std::uint32_t>(1);
  w.pod<std::uint32_t>(2);
  const std::string payload = w.take();
  Reader r(payload, "test");
  r.pod<std::uint32_t>();
  EXPECT_THROW(r.finish(), CheckError);
  r.pod<std::uint32_t>();
  EXPECT_NO_THROW(r.finish());
}

TEST(Wire, FileRoundTripAndMissingFile) {
  const fs::path p = temp_file("mlsim_wire_test.bin");
  std::string payload;
  EXPECT_FALSE(read_envelope_file(p, kMagic, payload));  // does not exist

  write_envelope_file(p, kMagic, sample_payload());
  ASSERT_TRUE(read_envelope_file(p, kMagic, payload));
  EXPECT_EQ(payload, sample_payload());
  fs::remove(p);
}

TEST(Wire, CorruptFileIsCheckError) {
  const fs::path p = temp_file("mlsim_wire_corrupt.bin");
  write_envelope_file(p, kMagic, sample_payload());
  {
    std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(kEnvelopeBytes + 2));
    f.put('\x7f');
  }
  std::string payload;
  EXPECT_THROW(read_envelope_file(p, kMagic, payload), CheckError);
  fs::remove(p);
}

}  // namespace
}  // namespace mlsim::wire
