#include "uarch/cache.h"

#include <algorithm>

#include "common/check.h"

namespace mlsim::uarch {

namespace {

// Set-dueling constituency (DIP/DRRIP): every 32nd set is dedicated to the
// baseline insertion (LRU / SRRIP), the set after it to the bimodal one
// (BIP / BRRIP); the rest follow the PSEL counter. With fewer than 32 sets
// the leaders degenerate to sets 0 and 1, which keeps the duel functional
// for the small caches the tests use.
constexpr std::size_t kDuelStride = 32;
// Bimodal insertion promotes to MRU / near-immediate re-reference once
// every kBimodalEpsilon fills (deterministic counter, no RNG).
constexpr std::uint64_t kBimodalEpsilon = 32;
constexpr std::uint32_t kPselMax = 1023;  // 10-bit saturating counter
constexpr std::uint32_t kPselMid = 512;
constexpr std::uint8_t kRrpvMax = 3;  // 2-bit RRPV

bool is_baseline_leader(std::size_t set) { return set % kDuelStride == 0; }
bool is_bimodal_leader(std::size_t set) { return set % kDuelStride == 1; }

}  // namespace

const char* to_string(ReplacementPolicy p) {
  switch (p) {
    case ReplacementPolicy::kLru: return "lru";
    case ReplacementPolicy::kFifo: return "fifo";
    case ReplacementPolicy::kRandom: return "random";
    case ReplacementPolicy::kDip: return "dip";
    case ReplacementPolicy::kDrrip: return "drrip";
    case ReplacementPolicy::kArc: return "arc";
  }
  return "unknown";
}

ReplacementPolicy replacement_policy_from_string(const std::string& s) {
  if (s == "lru") return ReplacementPolicy::kLru;
  if (s == "fifo") return ReplacementPolicy::kFifo;
  if (s == "random") return ReplacementPolicy::kRandom;
  if (s == "dip") return ReplacementPolicy::kDip;
  if (s == "drrip") return ReplacementPolicy::kDrrip;
  if (s == "arc") return ReplacementPolicy::kArc;
  throw CheckError("unknown replacement policy '" + s +
                   "' (expected lru|fifo|random|dip|drrip|arc)");
}

Cache::Cache(const CacheConfig& cfg, const char* /*name*/) : cfg_(cfg) {
  check(cfg.line_bytes > 0 && (cfg.line_bytes & (cfg.line_bytes - 1)) == 0,
        "cache line size must be a power of two");
  check(cfg.assoc > 0, "cache associativity must be positive");
  // Reject unimplemented policies at construction, not silently at the
  // first eviction: a config that asks for a policy this simulator cannot
  // model must fail typed (exit 4 raw, exit 2 once the CLI pre-validates).
  check(static_cast<std::uint8_t>(cfg.replacement) <=
            static_cast<std::uint8_t>(ReplacementPolicy::kArc),
        "unimplemented cache replacement policy (value " +
            std::to_string(static_cast<unsigned>(cfg.replacement)) + ")");
  num_sets_ = std::max<std::size_t>(1, cfg.size_bytes / cfg.line_bytes / cfg.assoc);
  lines_.resize(num_sets_ * cfg.assoc);
  mshrs_.resize(std::max<std::uint32_t>(1, cfg.mshrs));
  if (cfg_.replacement == ReplacementPolicy::kArc) arc_.resize(num_sets_);
}

bool Cache::probe(std::uint64_t addr) const {
  const std::uint64_t laddr = line_addr(addr);
  const std::size_t set = set_index(laddr);
  const Line* base = &lines_[set * cfg_.assoc];
  for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
    if (base[w].valid && base[w].tag == laddr) return true;
  }
  return false;
}

void Cache::on_hit(Line& ln) {
  ln.lru = tick_;
  switch (cfg_.replacement) {
    case ReplacementPolicy::kDrrip:
      ln.rrpv = 0;  // near-immediate re-reference
      break;
    case ReplacementPolicy::kArc:
      ln.in_t2 = true;  // a reuse promotes T1 -> T2; T2 hits stay in T2
      break;
    default:
      break;
  }
}

bool Cache::duel_use_bimodal(std::size_t set) {
  if (is_baseline_leader(set)) return false;
  if (is_bimodal_leader(set)) return true;
  // High PSEL = the baseline leaders are missing more: follow the bimodal
  // insertion.
  return psel_ > kPselMid;
}

Cache::InsertHint Cache::note_miss(std::size_t set, std::uint64_t laddr) {
  InsertHint hint;
  switch (cfg_.replacement) {
    case ReplacementPolicy::kDip:
    case ReplacementPolicy::kDrrip:
      if (is_baseline_leader(set)) {
        if (psel_ < kPselMax) ++psel_;
      } else if (is_bimodal_leader(set)) {
        if (psel_ > 0) --psel_;
      }
      break;
    case ReplacementPolicy::kArc: {
      ArcSet& st = arc_[set];
      const auto b1_it = std::find(st.b1.begin(), st.b1.end(), laddr);
      if (b1_it != st.b1.end()) {
        // Ghost hit in B1: the recency list was evicting too eagerly.
        const std::uint32_t delta = static_cast<std::uint32_t>(std::max<std::size_t>(
            1, st.b2.size() / std::max<std::size_t>(1, st.b1.size())));
        st.p = std::min<std::uint32_t>(cfg_.assoc, st.p + delta);
        st.b1.erase(b1_it);
        hint.arc_to_t2 = true;
        break;
      }
      const auto b2_it = std::find(st.b2.begin(), st.b2.end(), laddr);
      if (b2_it != st.b2.end()) {
        // Ghost hit in B2: the frequency list deserved more room.
        const std::uint32_t delta = static_cast<std::uint32_t>(std::max<std::size_t>(
            1, st.b1.size() / std::max<std::size_t>(1, st.b2.size())));
        st.p = st.p > delta ? st.p - delta : 0;
        st.b2.erase(b2_it);
        hint.arc_to_t2 = true;
        hint.arc_was_b2_ghost = true;
      }
      break;
    }
    default:
      break;
  }
  return hint;
}

CacheAccessResult Cache::demand_hit(Line& ln, std::uint64_t laddr, std::uint64_t now,
                                    bool is_write) {
  ++hits_;
  on_hit(ln);
  if (is_write) ln.dirty = true;
  // Tagged prefetching: the first demand touch of a prefetched line keeps
  // the stream running by prefetching the next one.
  if (ln.prefetched) {
    ln.prefetched = false;
    if (cfg_.next_line_prefetch) prefetch_line(laddr + 1);
  }
  return {.hit = true, .ready_cycle = now + cfg_.latency, .mshr_merge = false};
}

CacheAccessResult Cache::demand_miss(std::size_t set, std::uint64_t laddr,
                                     std::uint64_t addr, std::uint64_t now,
                                     std::uint64_t fill_ready, bool is_write) {
  // Miss path. First look for an in-flight MSHR for the same line.
  ++misses_;
  const InsertHint hint = note_miss(set, laddr);
  for (auto& m : mshrs_) {
    if (m.busy && m.ready <= now) m.busy = false;  // retire completed fills
  }
  for (auto& m : mshrs_) {
    if (m.busy && m.line_addr == laddr) {
      // Secondary miss: data arrives with the outstanding fill.
      return {.hit = false, .ready_cycle = std::max(m.ready, now + cfg_.latency),
              .mshr_merge = true};
    }
  }

  // Allocate an MSHR; if all busy, serialise behind the soonest-free one.
  Mshr* slot = nullptr;
  std::uint64_t earliest_free = ~0ull;
  for (auto& m : mshrs_) {
    if (!m.busy) {
      slot = &m;
      break;
    }
    earliest_free = std::min(earliest_free, m.ready);
  }
  std::uint64_t start = now;
  if (slot == nullptr) {
    start = std::max(now, earliest_free);
    for (auto& m : mshrs_) {
      if (m.ready == earliest_free) {
        slot = &m;
        break;
      }
    }
  }
  if (slot == nullptr) [[unlikely]] throw CheckError("MSHR allocation failed");
  const std::uint64_t ready = fill_ready + (start - now);
  slot->busy = true;
  slot->line_addr = laddr;
  slot->ready = ready;

  Line* victim = select_victim(&lines_[set * cfg_.assoc], set, addr, hint);
  victim->valid = true;
  victim->tag = laddr;
  victim->fill_order = fill_tick_++;
  victim->dirty = is_write;
  victim->prefetched = false;
  on_insert(*victim, set, hint);

  // Tagged next-line prefetch: a demand miss pulls in the following line.
  if (cfg_.next_line_prefetch) prefetch_line(laddr + 1);

  return {.hit = false, .ready_cycle = ready, .mshr_merge = false};
}

void Cache::prefetch_line(std::uint64_t laddr) {
  const std::size_t set = set_index(laddr);
  if (find(set, laddr) != nullptr) return;  // already resident
  // Prefetches insert without the demand-miss bookkeeping (no PSEL vote, no
  // ghost-list adaptation): a speculative fill must not steer the duel.
  const InsertHint hint;
  Line* victim = select_victim(&lines_[set * cfg_.assoc], set, laddr * cfg_.line_bytes, hint);
  victim->valid = true;
  victim->tag = laddr;
  victim->fill_order = fill_tick_++;
  victim->dirty = false;
  on_insert(*victim, set, hint);
  victim->prefetched = true;
  ++prefetches_;
}

Cache::Line* Cache::select_victim(Line* base, std::size_t set,
                                  std::uint64_t addr,
                                  const InsertHint& hint) {
  // Invalid ways first, regardless of policy.
  for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
    if (!base[w].valid) return &base[w];
  }
  const auto lru_of = [&](auto pred) -> Line* {
    Line* victim = nullptr;
    for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
      if (!pred(base[w])) continue;
      if (victim == nullptr || base[w].lru < victim->lru) victim = &base[w];
    }
    return victim;
  };
  switch (cfg_.replacement) {
    case ReplacementPolicy::kLru:
    case ReplacementPolicy::kDip:
      // DIP victimises the LRU end like LRU; only insertion differs.
      return lru_of([](const Line&) { return true; });
    case ReplacementPolicy::kFifo: {
      Line* victim = base;
      for (std::uint32_t w = 1; w < cfg_.assoc; ++w) {
        if (base[w].fill_order < victim->fill_order) victim = &base[w];
      }
      return victim;
    }
    case ReplacementPolicy::kRandom: {
      // Deterministic pseudo-random way from the access address + clock.
      std::uint64_t h = addr * 0x9e3779b97f4a7c15ull ^ tick_;
      h ^= h >> 29;
      return &base[h % cfg_.assoc];
    }
    case ReplacementPolicy::kDrrip: {
      // Evict the first way predicted for the distant future; age the set
      // until one is.
      for (;;) {
        for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
          if (base[w].rrpv >= kRrpvMax) return &base[w];
        }
        for (std::uint32_t w = 0; w < cfg_.assoc; ++w) ++base[w].rrpv;
      }
    }
    case ReplacementPolicy::kArc: {
      ArcSet& st = arc_[set];
      std::uint32_t t1 = 0;
      for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
        if (!base[w].in_t2) ++t1;
      }
      const std::uint32_t t2 = cfg_.assoc - t1;
      // ARC's REPLACE: shrink T1 when it exceeds its target p (or sits at
      // the target and the miss was a B2 ghost); otherwise shrink T2.
      bool from_t1 =
          t1 >= 1 && (t1 > st.p || (hint.arc_was_b2_ghost && t1 == st.p));
      if (!from_t1 && t2 == 0) from_t1 = true;
      Line* victim =
          lru_of([from_t1](const Line& ln) { return ln.in_t2 != from_t1; });
      check(victim != nullptr, "ARC victim selection found no candidate");
      auto& ghosts = from_t1 ? st.b1 : st.b2;
      ghosts.push_front(victim->tag);
      if (ghosts.size() > cfg_.assoc) ghosts.pop_back();
      return victim;
    }
  }
  // The constructor range-checks cfg_.replacement; reaching here means the
  // enum grew without a victim rule.
  throw CheckError("cache replacement policy has no victim-selection rule");
}

void Cache::on_insert(Line& ln, std::size_t set, const InsertHint& hint) {
  ln.lru = tick_;
  ln.rrpv = 0;
  ln.in_t2 = false;
  switch (cfg_.replacement) {
    case ReplacementPolicy::kDip:
      // BIP inserts at the LRU end (timestamp 0: next victim unless
      // re-referenced) except once per epsilon window.
      if (duel_use_bimodal(set) && bip_ctr_++ % kBimodalEpsilon != 0) {
        ln.lru = 0;
      }
      break;
    case ReplacementPolicy::kDrrip:
      if (duel_use_bimodal(set)) {
        // BRRIP: distant future, with a rare long-interval insertion.
        ln.rrpv = bip_ctr_++ % kBimodalEpsilon == 0 ? kRrpvMax - 1 : kRrpvMax;
      } else {
        ln.rrpv = kRrpvMax - 1;  // SRRIP: long re-reference interval
      }
      break;
    case ReplacementPolicy::kArc:
      ln.in_t2 = hint.arc_to_t2;
      break;
    default:
      break;
  }
}

void Cache::reset_stats() {
  hits_ = 0;
  misses_ = 0;
}

}  // namespace mlsim::uarch
