// Checkpoint/restart for long simulations (docs/RESILIENCE.md).
//
// Two checkpoint shapes, both written atomically (temp + rename) in the
// sealed wire envelope (common/wire.h) so a file torn by process death is
// detected by its length and checksum and rejected on load rather than
// silently resumed from:
//
//   RunCheckpoint — resume point of a ParallelSimulator run, written after
//       every partition: the run fingerprint, the correction snapshot, and
//       the run ledger (core/shard.h) of the completed partitions
//       [0, next), in the same put_outcome layout the dist Result frame
//       uses. Resuming absorbs that prefix into a fresh engine and replays
//       the remaining partitions, bit-identical to an uninterrupted run.
//   SuiteCheckpoint — per-job results of a run_suite() sweep so a killed
//       suite run re-simulates only the jobs it had not finished.
//
// A fingerprint (trace + options hash, computed by the owning engine) guards
// against resuming a checkpoint into a different run configuration.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/shard.h"

namespace mlsim::core {

/// Envelope magic of a RunCheckpoint file ("MLCL"), distinct from every
/// other magic in the repo. The older "MLCK" layout carried the same
/// fingerprint, so a file in it fails on its first four bytes instead of
/// being misparsed.
inline constexpr std::uint32_t kRunCheckpointMagic = 0x4d4c434c;

struct RunCheckpoint {
  std::uint64_t fingerprint = 0;
  CorrectionSnapshot snapshot;
  ShardOutcome ledger;  // partitions [0, next partition to run)
};

/// Serialize atomically to `path`. Throws IoError on filesystem failure.
void save_checkpoint(const std::filesystem::path& path,
                     const RunCheckpoint& ck);

/// Load `path` into `ck`. Returns false if the file does not exist; throws
/// CheckError if it exists but is truncated, corrupt, checksum-mismatched,
/// or not in this layout. ShardEngine::resume checks the contents against
/// the run.
bool load_checkpoint(const std::filesystem::path& path, RunCheckpoint& ck);

struct SuiteCheckpointJob {
  std::string name;
  std::uint64_t device = 0;
  double cpi = 0.0;
  double sim_time_us = 0.0;
  std::uint64_t instructions = 0;
};

struct SuiteCheckpoint {
  std::uint64_t fingerprint = 0;
  std::vector<SuiteCheckpointJob> completed;
};

void save_checkpoint(const std::filesystem::path& path,
                     const SuiteCheckpoint& ck);
bool load_checkpoint(const std::filesystem::path& path, SuiteCheckpoint& ck);

}  // namespace mlsim::core
