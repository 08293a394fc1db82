// Two-stage TLB (paper Table II: "2-stage TLB, 1KB 8-way TLB caches with 6
// MSHRs"). Stage 1 is a small fully-associative-ish L1 TLB; stage 2 is a
// larger set-associative TLB cache; misses in both trigger a page-table walk.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/annotation.h"
#include "uarch/config.h"

namespace mlsim::uarch {

struct TlbResult {
  trace::TlbLevel level = trace::TlbLevel::kHit;
  std::uint32_t latency = 0;  // additional cycles on top of the access
};

class Tlb {
 public:
  explicit Tlb(const TlbConfig& cfg = {});

  TlbResult access(std::uint64_t vaddr);

  std::uint64_t l1_hits() const { return l1_hits_; }
  std::uint64_t walks() const { return walks_; }

 private:
  std::uint64_t page(std::uint64_t vaddr) const { return vaddr / cfg_.page_bytes; }

  TlbConfig cfg_;
  // L1: direct-mapped on page number with tag (small, 1-cycle).
  std::vector<std::uint64_t> l1_tags_;
  // L2: set-associative with LRU.
  struct Entry {
    std::uint64_t tag = ~0ull;
    std::uint64_t lru = 0;
    bool valid = false;
  };
  std::vector<Entry> l2_;
  std::size_t l2_sets_;
  std::uint64_t tick_ = 0;
  std::uint64_t l1_hits_ = 0;
  std::uint64_t walks_ = 0;
};

}  // namespace mlsim::uarch
