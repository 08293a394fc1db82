#include "uarch/tlb.h"

#include <algorithm>

#include "common/check.h"

namespace mlsim::uarch {

Tlb::Tlb(const TlbConfig& cfg) : cfg_(cfg) {
  check(cfg.l1_entries > 0 && cfg.l2_entries > 0, "TLB sizes must be positive");
  l1_tags_.assign(cfg.l1_entries, ~0ull);
  l2_sets_ = std::max<std::size_t>(1, cfg.l2_entries / cfg.l2_assoc);
  l2_.resize(l2_sets_ * cfg.l2_assoc);
}

TlbResult Tlb::access(std::uint64_t vaddr) {
  ++tick_;
  const std::uint64_t pg = page(vaddr);
  const std::size_t l1_idx = pg % l1_tags_.size();
  if (l1_tags_[l1_idx] == pg) {
    ++l1_hits_;
    return {trace::TlbLevel::kHit, 0};
  }

  const std::size_t set = pg % l2_sets_;
  Entry* base = &l2_[set * cfg_.l2_assoc];
  for (std::uint32_t w = 0; w < cfg_.l2_assoc; ++w) {
    if (base[w].valid && base[w].tag == pg) {
      base[w].lru = tick_;
      l1_tags_[l1_idx] = pg;
      return {trace::TlbLevel::kL2Tlb, cfg_.l2_latency};
    }
  }

  // Walk: fill both levels.
  ++walks_;
  Entry* victim = base;
  for (std::uint32_t w = 1; w < cfg_.l2_assoc; ++w) {
    if (!base[w].valid) {
      victim = &base[w];
      break;
    }
    if (base[w].lru < victim->lru) victim = &base[w];
  }
  victim->valid = true;
  victim->tag = pg;
  victim->lru = tick_;
  l1_tags_[l1_idx] = pg;
  return {trace::TlbLevel::kWalk, cfg_.walk_latency};
}

}  // namespace mlsim::uarch
