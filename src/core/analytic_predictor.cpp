#include "core/analytic_predictor.h"

#include <algorithm>

#include "trace/annotation.h"
#include "uarch/ooo_core.h"

namespace mlsim::core {

using trace::Feat;
using trace::HitLevel;
using trace::TlbLevel;

AnalyticPredictor::AnalyticPredictor(const uarch::MachineConfig& machine)
    : cfg_(machine) {}

namespace {

// Uniform access to dense windows and lazy windows so both prediction paths
// share one implementation (equality is also pinned by tests).
struct DenseCtx {
  const WindowView& w;
  std::size_t rows() const { return w.rows; }
  std::int32_t remaining(std::size_t r) const {
    return r == 0 || r >= w.rows ? 0 : w.row(r)[kCtxLatFeature];
  }
  std::span<const std::int32_t> features(std::size_t r) const { return w.row(r); }
  std::size_t context_count() const {
    std::size_t n = 0;
    for (std::size_t r = 1; r < w.rows; ++r) n += remaining(r) > 0;
    return n;
  }
};

struct LazyCtx {
  const LazyWindow& w;
  std::size_t rows() const { return w.rows(); }
  std::int32_t remaining(std::size_t r) const { return w.remaining(r); }
  std::span<const std::int32_t> features(std::size_t r) const {
    return w.features(r);
  }
  std::size_t context_count() const { return w.context_count(); }
};

template <typename Ctx>
LatencyPrediction evaluate(const uarch::MachineConfig& cfg, const Ctx& ctx) {
  const auto cur = ctx.features(0);
  const std::size_t rows = ctx.rows();

  // Context rows are program-order indexed; a row is in flight iff its
  // remaining-latency entry is positive.
  const std::size_t in_flight = ctx.context_count();

  const auto data_level = static_cast<HitLevel>(cur[Feat::kDataLevel]);
  const auto dtlb = static_cast<TlbLevel>(cur[Feat::kDtlb]);

  // ---- Fetch latency --------------------------------------------------------
  // Fetch advances to the max of several constraints (mirroring OooCore):
  // steady-state width progression + icache penalties, branch-redirect
  // resolution, and window back-pressure from a full ROB.
  std::uint32_t base_fetch = 0;
  // Fetch-width steady state: one cycle consumed every fetch_width slots.
  if ((cur[Feat::kPcSlot] % static_cast<std::int32_t>(cfg.core.fetch_width)) == 0) {
    base_fetch += 1;
  }
  // Instruction-cache / iTLB penalty on line transitions.
  if (cur[Feat::kBlockEntry] != 0 || cur[Feat::kPcSlot] == 0) {
    base_fetch += uarch::OooCore::fetch_penalty(
        cfg, static_cast<HitLevel>(cur[Feat::kFetchLevel] + 1));
    base_fetch +=
        uarch::OooCore::tlb_penalty(cfg, static_cast<TlbLevel>(cur[Feat::kItlb]));
  }
  // Redirect after a mispredicted branch: the previous instruction (row 1)
  // must resolve before this one can fetch.
  std::uint32_t redirect = 0;
  if (rows > 1 && ctx.remaining(1) > 0) {
    const auto prev = ctx.features(1);
    if (prev[Feat::kIsControl] != 0 && prev[Feat::kMispredicted] != 0) {
      redirect = static_cast<std::uint32_t>(ctx.remaining(1)) +
                 cfg.bp.mispredict_penalty;
    }
  }
  // Window back-pressure (mirrors the OooCore fetch constraints):
  //  - ROB: the instruction rob_entries back must commit (≈ retire);
  //  - IQ: the instruction iq_entries back must issue. Its issue time is
  //    estimated as retire minus its own post-issue latency, reconstructed
  //    from its static features and hit level.
  // Estimated store-writeback tail of a context row (retire happens commit +
  // writeback for stores; commit itself is what unblocks the ROB).
  const auto store_tail = [&](std::size_t r) -> std::uint32_t {
    const auto row = ctx.features(r);
    if (row[Feat::kIsStore] == 0) return 0;
    return uarch::OooCore::data_latency(
               cfg, static_cast<HitLevel>(row[Feat::kDataLevel])) +
           1;
  };

  std::uint32_t backpressure = 0;
  if (rows > cfg.core.rob_entries) {
    const std::int32_t rem = ctx.remaining(cfg.core.rob_entries);
    const std::uint32_t tail = rem > 0 ? store_tail(cfg.core.rob_entries) : 0;
    if (rem > static_cast<std::int32_t>(tail)) {
      backpressure = static_cast<std::uint32_t>(rem) - tail;
    }
  }
  if (rows > cfg.core.iq_entries) {
    const std::size_t r = cfg.core.iq_entries;
    const std::int32_t rem = ctx.remaining(r);
    if (rem > 0) {
      const auto row = ctx.features(r);
      std::uint32_t post_issue = static_cast<std::uint32_t>(row[Feat::kBaseLat]);
      const auto row_level = static_cast<HitLevel>(row[Feat::kDataLevel]);
      if (row[Feat::kIsLoad] != 0) {
        post_issue += uarch::OooCore::data_latency(cfg, row_level);
      } else if (row[Feat::kIsStore] != 0) {
        post_issue += uarch::OooCore::data_latency(cfg, row_level) + 1;
      }
      if (static_cast<std::uint32_t>(rem) > post_issue) {
        backpressure = std::max(backpressure,
                                static_cast<std::uint32_t>(rem) - post_issue);
      }
    }
  }
  const std::uint32_t fetch = std::max({base_fetch, redirect, backpressure});

  // ---- Execute latency ------------------------------------------------------
  // Dependency wait: dependency-distance features point at the producing
  // context row; if that producer is still in flight, wait for it.
  std::uint32_t wait = cfg.core.frontend_depth;
  for (std::size_t k = 0; k < trace::kMaxSrcRegs; ++k) {
    const auto dist = cur[Feat::kDep0 + k];
    if (dist > 0 && static_cast<std::size_t>(dist) < rows) {
      wait = std::max(wait, static_cast<std::uint32_t>(
                                ctx.remaining(static_cast<std::size_t>(dist))));
    }
  }

  std::uint32_t mem_lat = 0;
  if (cur[Feat::kIsLoad] != 0) {
    mem_lat += uarch::OooCore::tlb_penalty(cfg, dtlb);
    if (cur[Feat::kFwdDist] > 0) {
      // Store-to-load forwarding: cheap access, but the load waits for the
      // forwarding store's data to be written (OooCore's ready constraint).
      mem_lat += 2;
      const auto fwd = static_cast<std::size_t>(cur[Feat::kFwdDist]);
      if (fwd < rows) {
        wait = std::max(wait, static_cast<std::uint32_t>(ctx.remaining(fwd)));
      }
    } else {
      mem_lat += uarch::OooCore::data_latency(cfg, data_level);
    }
  } else if (cur[Feat::kIsStore] != 0) {
    mem_lat += uarch::OooCore::tlb_penalty(cfg, dtlb);
  }

  const auto base = static_cast<std::uint32_t>(cur[Feat::kBaseLat]);
  // Issue/commit contention grows with the in-flight population: with W
  // instructions competing for issue_width ports, queueing adds roughly
  // W / width extra cycles at both issue and commit.
  const auto contention =
      static_cast<std::uint32_t>(3 * in_flight / cfg.core.issue_width);
  const std::uint32_t exec = wait + base + mem_lat + contention;

  // ---- Store latency --------------------------------------------------------
  // Stores retire commit + writeback; in-order commit lags completion by
  // roughly the window population over the commit width.
  const std::uint32_t store =
      cur[Feat::kIsStore] != 0
          ? uarch::OooCore::data_latency(cfg, data_level) + 1 +
                static_cast<std::uint32_t>(in_flight / cfg.core.commit_width)
          : 0;

  return {fetch, exec, store};
}

}  // namespace

LatencyPrediction AnalyticPredictor::predict(const WindowView& w,
                                             std::uint64_t /*global_index*/) {
  return evaluate(cfg_, DenseCtx{w});
}

LatencyPrediction AnalyticPredictor::predict_lazy(const LazyWindow& w) {
  return evaluate(cfg_, LazyCtx{w});
}

}  // namespace mlsim::core
