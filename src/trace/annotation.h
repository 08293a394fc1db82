// Dynamic micro-architectural annotations attached to each trace record.
//
// SimNet traces carry "dynamic processor state" features (branch prediction
// outcome, cache level reached, memory dependency) computed during trace
// generation by running the branch predictor / cache / TLB models over the
// functional stream. Changing those structures (Table IV) therefore only
// requires re-tracing, never retraining.
#pragma once

#include <cstdint>

namespace mlsim::trace {

/// Which level of the hierarchy served an access.
enum class HitLevel : std::uint8_t {
  kNone = 0,  // not a memory access
  kL1 = 1,
  kL2 = 2,
  kMemory = 3,
};

enum class TlbLevel : std::uint8_t {
  kHit = 0,   // first-level TLB hit
  kL2Tlb = 1, // second-level TLB hit
  kWalk = 2,  // page table walk
};

struct Annotation {
  HitLevel fetch_level = HitLevel::kL1;   // instruction fetch (L1I/L2/mem)
  HitLevel data_level = HitLevel::kNone;  // data access (loads/stores)
  TlbLevel itlb_level = TlbLevel::kHit;
  TlbLevel dtlb_level = TlbLevel::kHit;
  bool branch_mispredicted = false;
  /// Distance (in dynamic instructions, capped) to the most recent older
  /// store to an overlapping address; 0 if none in the tracked window.
  std::uint8_t store_forward_dist = 0;

  bool operator==(const Annotation&) const = default;
};

}  // namespace mlsim::trace
