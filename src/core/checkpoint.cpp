#include "core/checkpoint.h"

#include "common/check.h"
#include "common/wire.h"

namespace mlsim::core {

namespace {

// File format (unchanged since v1): the shared wire envelope
// (magic | version | checksum | size | payload — src/common/wire.h) around a
// Writer-serialized payload. The same envelope frames the distributed
// cluster's RPC messages, so disk and socket corruption are caught by one
// code path.
constexpr std::uint32_t kParallelMagic = 0x4d4c434b;  // "MLCK"
constexpr std::uint32_t kSuiteMagic = 0x4d4c4353;     // "MLCS"

using wire::Reader;
using wire::Writer;

}  // namespace

void save_checkpoint(const std::filesystem::path& path,
                     const ParallelCheckpoint& ck) {
  Writer w;
  w.pod(ck.fingerprint);
  w.pod(ck.next_partition);
  w.pod(ck.num_partitions);
  w.pod(ck.ring_capacity);
  w.pod(ck.warmup_instructions);
  w.pod(ck.corrected_instructions);
  w.pod(ck.retries);
  w.pod(ck.backoff_us);
  w.pod(ck.occupancy);
  w.pod(ck.prev_clock);
  w.pod(ck.prev_oldest);
  w.vec(ck.prev_ring);
  w.vec(ck.partition_cycles);
  w.vec(ck.partition_steps);
  w.vec(ck.partition_wasted);
  w.vec(ck.final_attempt);
  w.vec(ck.failed_partitions);
  w.vec(ck.degraded_partitions);
  w.vec(ck.gpu_lost);
  w.vec(ck.predictions);
  w.vec(ck.context_counts);
  wire::write_envelope_file(path, kParallelMagic, w.bytes());
}

bool load_checkpoint(const std::filesystem::path& path, ParallelCheckpoint& ck) {
  std::string payload;
  if (!wire::read_envelope_file(path, kParallelMagic, payload)) return false;
  Reader r(payload.data(), payload.size(), path.string());
  ck.fingerprint = r.pod<std::uint64_t>();
  ck.next_partition = r.pod<std::uint64_t>();
  ck.num_partitions = r.pod<std::uint64_t>();
  ck.ring_capacity = r.pod<std::uint64_t>();
  ck.warmup_instructions = r.pod<std::uint64_t>();
  ck.corrected_instructions = r.pod<std::uint64_t>();
  ck.retries = r.pod<std::uint64_t>();
  ck.backoff_us = r.pod<double>();
  ck.occupancy = r.pod<RunningStats::State>();
  ck.prev_clock = r.pod<std::uint64_t>();
  ck.prev_oldest = r.pod<std::uint64_t>();
  ck.prev_ring = r.vec<std::uint64_t>();
  ck.partition_cycles = r.vec<std::uint64_t>();
  ck.partition_steps = r.vec<std::uint64_t>();
  ck.partition_wasted = r.vec<std::uint64_t>();
  ck.final_attempt = r.vec<std::uint32_t>();
  ck.failed_partitions = r.vec<std::uint64_t>();
  ck.degraded_partitions = r.vec<std::uint64_t>();
  ck.gpu_lost = r.vec<std::uint8_t>();
  ck.predictions = r.vec<std::uint32_t>();
  ck.context_counts = r.vec<std::uint16_t>();
  r.finish();
  const std::uint64_t p = ck.num_partitions;
  check(ck.next_partition <= p && ck.partition_cycles.size() == p &&
            ck.partition_steps.size() == p && ck.partition_wasted.size() == p &&
            ck.final_attempt.size() == p &&
            (ck.prev_ring.empty() || ck.prev_ring.size() == ck.ring_capacity),
        "checkpoint internally inconsistent: " + path.string());
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
