// Distributed-cluster scaling study (docs/DISTRIBUTED.md, no paper
// counterpart): wall-clock throughput of the coordinator/worker cluster as
// localhost workers are added, against the single-process parallel engine
// on the same trace and options. The headline property is that distribution
// changes *where* shards are computed, never *what* they compute: the
// merged CPI is bit-identical at every worker count (error ratio 1.000),
// and the merge itself is a microscopic fraction of the run.
//
// Expect the *wall-clock* columns to favour the in-process engine here. At
// the default 200k xz instructions (x86-64, 4 vCPUs) the in-process run
// takes 0.028 s and the 1-worker cluster run 0.19–0.23 s, so shard compute
// is 12–15% of it (the speedup column at 1 worker). The rest is the
// handshake: a 42 MB Welcome (212 B per instruction), encoded and sealed
// once, sent to each worker in turn, then checksummed, decoded and
// fingerprinted by the worker, after the coordinator's own fingerprint
// pass. The sends grow with the worker count: 0.5–0.9 s at 8 workers. The
// economics flip when shard compute dwarfs trace shipping (the paper's CNN
// predictor is ~10^3 more work per instruction); what this sweep pins down
// is the invariant part — exactness and merge cost, not transport. It exits
// 1 when any worker count's merged cycles differ from the in-process run.
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/analytic_predictor.h"
#include "core/metrics.h"
#include "core/parallel_sim.h"
#include "core/shard.h"
#include "dist/coordinator.h"
#include "dist/worker.h"
#include "net/socket.h"

using namespace mlsim;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

core::ParallelSimOptions config(std::size_t parts, std::size_t gpus,
                                std::size_t ctx) {
  core::ParallelSimOptions o;
  o.num_subtraces = parts;
  o.num_gpus = gpus;
  o.context_length = ctx;
  o.warmup = ctx;
  o.post_error_correction = true;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::Args::parse(argc, argv, 200'000);
  const std::size_t ctx = 64;
  const std::size_t parts = 32, gpus = 16;  // 16 shards of 2 partitions
  const std::string abbr = args.benchmark.empty() ? "xz" : args.benchmark;
  bench::banner(
      "Distributed scaling: localhost workers vs the in-process engine",
      abbr + ", " + std::to_string(args.instructions) + " instructions, " +
          std::to_string(parts) + " sub-traces, " + std::to_string(gpus) +
          " GPU blocks, warmup + correction");

  const auto tr = core::labeled_trace(abbr, args.instructions);
  const core::ParallelSimOptions opts = config(parts, gpus, ctx);
  core::AnalyticPredictor pred;

  // Single-process baseline: the bit-identity reference and the time to beat.
  const auto t0 = std::chrono::steady_clock::now();
  core::ParallelSimulator local_sim(pred, opts);
  const auto local = local_sim.run(tr);
  const double local_s = seconds_since(t0);
  const double truth_cpi =
      static_cast<double>(core::total_cycles_from_targets(tr)) /
      static_cast<double>(tr.size());
  const double local_err = std::abs(local.cpi() - truth_cpi) / truth_cpi;

  // Merge overhead in isolation: recompute every shard outcome in-process
  // and time only the ledger absorb + finalize — the work the coordinator
  // does on top of pure shard compute.
  const core::ShardPlan plan = core::ShardPlan::make(tr.size(), opts);
  std::vector<core::ShardOutcome> outcomes;
  for (std::size_t s = 0; s < plan.num_shards; ++s) {
    core::ShardEngine engine(pred, tr, opts, plan);
    for (std::size_t p = plan.shard_lo(s); p < plan.shard_hi(s); ++p) {
      engine.run_partition(p);
    }
    outcomes.push_back(engine.block_outcome(plan.shard_lo(s), plan.shard_hi(s)));
  }
  const auto tm = std::chrono::steady_clock::now();
  core::ShardOutcome ledger = core::ShardOutcome::full(plan, opts);
  for (const auto& o : outcomes) ledger.absorb(plan, o);
  const auto merged = core::finalize(opts, plan, ledger, 0);
  const double merge_s = seconds_since(tm);

  Table t({"workers", "wall s", "speedup", "MIPS (real)", "merge %",
           "CPI", "err ratio", "bit-identical"});
  bool all_identical = merged.total_cycles == local.total_cycles;
  t.add_row({std::string("in-process"), local_s, 1.0,
             static_cast<double>(tr.size()) / local_s / 1e6,
             merge_s / local_s * 100.0, local.cpi(), 1.0,
             std::string(all_identical ? "yes" : "NO")});
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    dist::CoordinatorOptions co;
    co.min_workers = workers;  // time the full cluster, not a ramp-up
    co.poll_ms = 2;
    dist::DistCoordinator coord(net::TcpListener::bind(0), co);
    std::vector<std::thread> ws;
    for (std::size_t w = 0; w < workers; ++w) {
      ws.emplace_back([port = coord.port()] {
        dist::WorkerConfig cfg;
        cfg.port = port;
        cfg.heartbeat_ms = 100;
        try {
          dist::run_worker(cfg);
        } catch (const IoError&) {
        }
      });
    }
    const auto tw = std::chrono::steady_clock::now();
    const auto out = coord.run(tr, opts);
    const double wall = seconds_since(tw);
    const double err = std::abs(out.cpi() - truth_cpi) / truth_cpi;
    const bool identical = out.total_cycles == local.total_cycles;
    all_identical = all_identical && identical;
    t.add_row({static_cast<std::int64_t>(workers), wall, local_s / wall,
               static_cast<double>(tr.size()) / wall / 1e6,
               merge_s / wall * 100.0, out.cpi(),
               local_err > 0.0 ? err / local_err : 1.0,
               std::string(identical ? "yes" : "NO")});
    coord.shutdown_workers();
    for (auto& w : ws) w.join();
  }
  t.set_precision(3);
  bench::emit(t, "fig_dist_scaling");
  std::printf("acceptance bar: err ratio 1.000 and bit-identical CPI at "
              "every worker count; the merge stays below 1%% of the run\n"
              "(at 1 worker, speedup is the compute share of the cluster run: "
              "the in-process run is the shard compute, the rest ships the "
              "trace in the Welcome and fingerprints it on both sides)\n");
  if (!all_identical) {
    std::fprintf(stderr, "fig_dist_scaling: merged cycles differ from the "
                         "in-process run\n");
    return 1;
  }
  return 0;
}
