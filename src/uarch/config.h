// Target processor configuration (paper Table II) plus derived latencies.
#pragma once

#include <cstdint>
#include <string>

namespace mlsim::uarch {

/// Replacement policy (Table IV lists it among the parameters explorable
/// without retraining — changing it only changes the trace's hit levels).
/// Constructing a Cache with a value outside this list is a typed
/// CheckError, never a silent fallback to LRU.
enum class ReplacementPolicy : std::uint8_t {
  kLru = 0,   // true LRU (paper's Table II configuration)
  kFifo,      // evict oldest fill
  kRandom,    // pseudo-random victim (deterministic hash of the access)
  kDip,       // set-dueling LRU vs bimodal insertion (BIP), PSEL-selected
  kDrrip,     // 2-bit RRIP with SRRIP/BRRIP set dueling
  kArc,       // adaptive recency/frequency split with per-set ghost lists
};

/// Lowercase flag/spec spelling ("lru", "dip", ...).
const char* to_string(ReplacementPolicy p);
/// Parse the to_string spelling; throws CheckError on anything else.
ReplacementPolicy replacement_policy_from_string(const std::string& s);

struct CacheConfig {
  std::uint32_t size_bytes = 32 * 1024;
  std::uint32_t assoc = 2;
  std::uint32_t line_bytes = 64;
  std::uint32_t mshrs = 16;
  std::uint32_t latency = 5;  // hit latency in cycles
  ReplacementPolicy replacement = ReplacementPolicy::kLru;
  /// Next-line prefetch on miss (sequential streams stop missing).
  bool next_line_prefetch = false;
};

struct TlbConfig {
  std::uint32_t l1_entries = 64;
  std::uint32_t l2_entries = 1024 / 8;  // "1KB 8-way TLB caches"
  std::uint32_t l2_assoc = 8;
  std::uint32_t mshrs = 6;
  std::uint32_t l2_latency = 8;
  std::uint32_t walk_latency = 40;
  std::uint32_t page_bytes = 4096;
};

/// Direction-prediction algorithm (Table IV lists the algorithm among the
/// no-retraining DSE parameters).
enum class BranchPredictorKind : std::uint8_t {
  kBiMode = 0,  // paper's Table II configuration
  kGshare,      // global history xor PC into one PHT
  kLocal,       // per-branch local history into a shared PHT
  kBimodal,     // plain per-PC 2-bit counters (no history)
};

struct BranchPredictorConfig {
  BranchPredictorKind kind = BranchPredictorKind::kBiMode;
  std::uint32_t choice_bits = 13;   // bi-mode choice PHT (8k entries)
  std::uint32_t direction_bits = 13;
  std::uint32_t history_bits = 12;
  std::uint32_t local_history_entries = 1024;  // kLocal only
  std::uint32_t btb_entries = 4096;
  std::uint32_t mispredict_penalty = 12;  // pipeline refill cycles
};

struct CoreConfig {
  std::uint32_t fetch_width = 3;   // "3-wide fetch"
  std::uint32_t issue_width = 8;   // "8-wide out-of-order issue/commit"
  std::uint32_t commit_width = 8;
  std::uint32_t iq_entries = 32;   // instruction queue
  std::uint32_t rob_entries = 40;  // reorder buffer
  std::uint32_t lq_entries = 16;   // load queue
  std::uint32_t sq_entries = 16;   // store queue
  std::uint32_t frontend_depth = 6;  // fetch-to-dispatch pipeline depth
};

/// Full machine configuration — defaults reproduce Table II.
struct MachineConfig {
  CoreConfig core;
  BranchPredictorConfig bp;
  CacheConfig l1i{.size_bytes = 48 * 1024, .assoc = 3, .line_bytes = 64,
                  .mshrs = 4, .latency = 1};
  CacheConfig l1d{.size_bytes = 32 * 1024, .assoc = 2, .line_bytes = 64,
                  .mshrs = 16, .latency = 5};
  CacheConfig l2{.size_bytes = 1024 * 1024, .assoc = 16, .line_bytes = 64,
                 .mshrs = 32, .latency = 29};
  TlbConfig tlb;
  std::uint32_t memory_latency = 110;  // cycles, beyond L2
};

}  // namespace mlsim::uarch
