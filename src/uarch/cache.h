// Set-associative cache with MSHR-based miss tracking and a selectable
// replacement policy. Used for L1I, L1D and the shared L2.
//
// A demand access searches its set once. A hit is promoted in that search;
// a miss asks the next level (a callback, so an L1 miss reaches the L2)
// for the fill cycle, then takes an MSHR and fills.
//
// MSHRs model miss-level parallelism: a miss to a line that already has an
// outstanding MSHR entry piggybacks on it (secondary miss) rather than
// issuing a second fill; when all MSHRs are busy the miss serialises behind
// the oldest one, adding visible latency.
//
// Replacement policies (docs/SWEEPS.md):
//   kLru / kFifo / kRandom — classic single-mechanism policies;
//   kDip    — set-dueling between LRU insertion and bimodal insertion (BIP):
//             two leader-set groups steer a saturating PSEL counter, the
//             follower sets adopt whichever insertion policy misses less;
//   kDrrip  — 2-bit re-reference interval prediction with SRRIP/BRRIP set
//             dueling (scan resistance via distant-future insertion);
//   kArc    — per-set adaptive replacement: resident lines split into a
//             recency list (T1) and a frequency list (T2), evicted tags kept
//             in bounded ghost lists (B1/B2) that steer the adaptation
//             parameter p toward whichever list sees more ghost hits.
// All policies are counter-driven (no RNG), so identical access sequences
// produce identical hit/miss streams — the property the sweep subsystem's
// bit-identity guarantees rest on.
#pragma once

#include <concepts>
#include <cstdint>
#include <deque>
#include <vector>

#include "uarch/config.h"

namespace mlsim::uarch {

/// Result of a timed cache access.
struct CacheAccessResult {
  bool hit = false;
  /// Cycle at which the requested data is available.
  std::uint64_t ready_cycle = 0;
  /// True if the miss merged into an existing MSHR (secondary miss).
  bool mshr_merge = false;
};

class Cache {
 public:
  /// Throws CheckError when cfg names a replacement policy the simulator
  /// does not implement (any value beyond the ReplacementPolicy enum).
  explicit Cache(const CacheConfig& cfg, const char* name = "cache");

  /// Timed access at `now`, one search of the set. A hit is promoted in
  /// that search and ready after this level's latency. A miss calls
  /// `next_level()` for the cycle the next level delivers the line, then
  /// takes an MSHR and fills. Returns hit/miss and the data-ready cycle,
  /// accounting for MSHR occupancy.
  template <std::invocable NextLevel>
  CacheAccessResult access(std::uint64_t addr, std::uint64_t now, bool is_write,
                           NextLevel&& next_level) {
    ++tick_;
    const std::uint64_t laddr = line_addr(addr);
    const std::size_t set = set_index(laddr);
    if (Line* ln = find(set, laddr)) return demand_hit(*ln, laddr, now, is_write);
    return demand_miss(set, laddr, addr, now, next_level(), is_write);
  }
  /// access() for a level whose next level serves every miss at
  /// `fill_ready`: the last level, whose next level is memory at a fixed
  /// latency.
  CacheAccessResult access(std::uint64_t addr, std::uint64_t now,
                           std::uint64_t fill_ready, bool is_write) {
    return access(addr, now, is_write, [fill_ready] { return fill_ready; });
  }

  /// Whether `addr`'s line is resident. A query only: it changes no state.
  bool probe(std::uint64_t addr) const;

  const CacheConfig& config() const { return cfg_; }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  double miss_rate() const {
    const std::uint64_t total = hits_ + misses_;
    return total ? static_cast<double>(misses_) / static_cast<double>(total) : 0.0;
  }

  void reset_stats();

  std::uint64_t prefetches() const { return prefetches_; }

 private:
  struct Line {
    std::uint64_t tag = ~0ull;
    std::uint64_t lru = 0;         // access timestamp (LRU order)
    std::uint64_t fill_order = 0;  // fill timestamp (FIFO)
    std::uint8_t rrpv = 0;         // re-reference prediction value (DRRIP)
    bool valid = false;
    bool dirty = false;
    bool prefetched = false;  // tagged prefetch: untouched prefetch line
    bool in_t2 = false;       // ARC: frequency list membership
  };

  /// ARC per-set state: ghost lists of recently evicted tags and the
  /// adaptation parameter p (target size of the recency list T1).
  struct ArcSet {
    std::deque<std::uint64_t> b1;  // ghosts evicted from T1
    std::deque<std::uint64_t> b2;  // ghosts evicted from T2
    std::uint32_t p = 0;
  };

  /// Per-miss insertion decision carried from the miss bookkeeping to the
  /// fill: where ARC inserts the new line, and whether the tag was a B2
  /// ghost (ARC's REPLACE tie-break).
  struct InsertHint {
    bool arc_to_t2 = false;
    bool arc_was_b2_ghost = false;
  };

  void prefetch_line(std::uint64_t laddr);
  struct Mshr {
    std::uint64_t line_addr = ~0ull;
    std::uint64_t ready = 0;  // fill-complete cycle
    bool busy = false;
  };

  std::uint64_t line_addr(std::uint64_t addr) const { return addr / cfg_.line_bytes; }
  std::size_t set_index(std::uint64_t laddr) const { return laddr % num_sets_; }
  /// The valid way of `set` holding line `laddr`, or null.
  Line* find(std::size_t set, std::uint64_t laddr) {
    Line* base = &lines_[set * cfg_.assoc];
    for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
      if (base[w].valid && base[w].tag == laddr) return &base[w];
    }
    return nullptr;
  }
  CacheAccessResult demand_hit(Line& ln, std::uint64_t laddr, std::uint64_t now,
                               bool is_write);
  CacheAccessResult demand_miss(std::size_t set, std::uint64_t laddr, std::uint64_t addr,
                                std::uint64_t now, std::uint64_t fill_ready,
                                bool is_write);

  /// Demand-miss bookkeeping before the fill: PSEL dueling updates
  /// (DIP/DRRIP) and ARC ghost-hit adaptation. Returns the insertion hint.
  InsertHint note_miss(std::size_t set, std::uint64_t laddr);
  /// Promotion on a hit (policy-specific recency/RRPV/T2 updates).
  void on_hit(Line& ln);
  Line* select_victim(Line* base, std::size_t set, std::uint64_t addr,
                      const InsertHint& hint);
  /// Policy-specific state of a freshly filled line (insertion position).
  void on_insert(Line& ln, std::size_t set, const InsertHint& hint);
  /// Follower-set insertion choice for the dueling policies: true when the
  /// set should use the bimodal (BIP/BRRIP) insertion.
  bool duel_use_bimodal(std::size_t set);

  CacheConfig cfg_;
  std::size_t num_sets_;
  std::vector<Line> lines_;  // num_sets_ * assoc, row-major by set
  std::vector<Mshr> mshrs_;
  std::vector<ArcSet> arc_;      // per set, kArc only
  std::uint64_t tick_ = 0;       // LRU clock
  std::uint64_t fill_tick_ = 0;  // FIFO clock
  std::uint32_t psel_ = 512;     // 10-bit duel counter, midpoint start
  std::uint64_t bip_ctr_ = 0;    // deterministic 1/32 bimodal throttle
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t prefetches_ = 0;
};

}  // namespace mlsim::uarch
