#include "core/checkpoint.h"

#include "common/wire.h"

namespace mlsim::core {

namespace {

// File format: the shared wire envelope (magic | version | checksum | size |
// payload — src/common/wire.h) around a Writer-serialized payload. The same
// envelope frames the distributed cluster's RPC messages, so disk and socket
// corruption are caught by one code path.
constexpr std::uint32_t kSuiteMagic = 0x4d4c4353;  // "MLCS"

using wire::Reader;
using wire::Writer;

}  // namespace

void save_checkpoint(const std::filesystem::path& path,
                     const RunCheckpoint& ck) {
  Writer w;
  w.pod(ck.fingerprint);
  w.pod(ck.snapshot.prev_clock);
  w.pod(ck.snapshot.prev_oldest);
  w.vec(ck.snapshot.prev_ring);
  put_outcome(w, ck.ledger);
  wire::write_envelope_file(path, kRunCheckpointMagic, w.bytes());
}

bool load_checkpoint(const std::filesystem::path& path, RunCheckpoint& ck) {
  std::string payload;
  if (!wire::read_envelope_file(path, kRunCheckpointMagic, payload)) {
    return false;
  }
  Reader r(payload.data(), payload.size(), path.string());
  ck.fingerprint = r.pod<std::uint64_t>();
  ck.snapshot.prev_clock = r.pod<std::uint64_t>();
  ck.snapshot.prev_oldest = r.pod<std::uint64_t>();
  ck.snapshot.prev_ring = r.vec<std::uint64_t>();
  ck.ledger = get_outcome(r);
  r.finish();
  return true;
}

void save_checkpoint(const std::filesystem::path& path,
                     const SuiteCheckpoint& ck) {
  Writer w;
  w.pod(ck.fingerprint);
  w.pod(static_cast<std::uint64_t>(ck.completed.size()));
  for (const auto& j : ck.completed) {
    w.str(j.name);
    w.pod(j.device);
    w.pod(j.cpi);
    w.pod(j.sim_time_us);
    w.pod(j.instructions);
  }
  wire::write_envelope_file(path, kSuiteMagic, w.bytes());
}

bool load_checkpoint(const std::filesystem::path& path, SuiteCheckpoint& ck) {
  std::string payload;
  if (!wire::read_envelope_file(path, kSuiteMagic, payload)) return false;
  Reader r(payload.data(), payload.size(), path.string());
  ck.fingerprint = r.pod<std::uint64_t>();
  // A job is at least its name's length word and four 8-byte fields.
  const auto count = r.count(5 * 8);
  ck.completed.clear();
  ck.completed.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    SuiteCheckpointJob j;
    j.name = r.str();
    j.device = r.pod<std::uint64_t>();
    j.cpi = r.pod<double>();
    j.sim_time_us = r.pod<double>();
    j.instructions = r.pod<std::uint64_t>();
    ck.completed.push_back(std::move(j));
  }
  r.finish();
  return true;
}

}  // namespace mlsim::core
