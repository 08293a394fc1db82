// Batch throughput — aggregate modeled inference throughput of K concurrent
// narrow requests, continuous batching off vs on (docs/BATCHING.md; not a
// paper figure). A single narrow request can never fill the batch dimension
// the paper's speedup lives in; this bench shows the cross-request scheduler
// recovering it: with K requests each blocked on one window, every flush
// coalesces one window of each request into one inference call, and
// aggregate modeled MIPS scales with the batch size while the unbatched path
// pays the per-call overhead per window.
//
// The table models complete batches: it is measured on one scheduler whose
// K channels are all open before any engine starts, with a max_wait no flush
// reaches (a token deadline bounds a stuck run), so every flush carries
// exactly one window of each request and two runs print the same table.
// Batching must not change results: each request's per-instruction
// predictions are checked against an unbatched run byte for byte, and the
// service's per-request cycles are checked identical with batching on and
// off.
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "core/analytic_predictor.h"
#include "core/sequential_sim.h"
#include "service/batcher.h"
#include "service/service.h"
#include "uarch/ground_truth.h"

using namespace mlsim;
using namespace std::chrono_literals;

namespace {

constexpr std::size_t kContext = 16;  // narrow: worthless batch on its own

/// K sequential requests through one scheduler, every channel open before
/// any engine starts; returns the scheduler's stats.
service::BatchScheduler::Stats run_complete_batches(
    core::LatencyPredictor& primary, const trace::EncodedTrace& tr,
    const core::SequentialSimOptions& seq,
    const std::vector<core::LatencyPrediction>& plain, std::size_t k) {
  service::BatcherOptions bo;
  bo.max_batch = 64;
  bo.max_wait = 10s;  // no flush reaches it; the deadline bounds a stuck run
  service::BatchScheduler sched(primary, bo);
  CancelSource src;
  src.set_deadline_after(60s);
  std::vector<std::shared_ptr<service::BatchScheduler::Channel>> chans;
  for (std::size_t r = 0; r < k; ++r) chans.push_back(sched.open(r + 1, src.token()));

  std::vector<std::vector<core::LatencyPrediction>> got(k);
  std::vector<std::string> errors(k);
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < k; ++r) {
    threads.emplace_back([&, r] {
      try {
        got[r] = core::SequentialSimulator(*chans[r], seq).run(tr).predictions;
      } catch (const std::exception& e) {
        errors[r] = e.what();
      }
      chans[r].reset();
    });
  }
  for (auto& t : threads) t.join();
  sched.shutdown();  // join the scheduler thread so the stats are final

  for (std::size_t r = 0; r < k; ++r) {
    check(errors[r].empty(), "batched request failed: " + errors[r]);
    check(got[r] == plain,
          "batched predictions must be bit-identical to unbatched");
  }
  return sched.stats();
}

/// Run K concurrent sequential requests through the service; returns
/// per-request total cycles.
std::vector<std::uint64_t> run_burst(core::LatencyPredictor& primary,
                                     core::LatencyPredictor& fallback,
                                     const trace::EncodedTrace& tr,
                                     std::size_t k, bool batching) {
  service::ServiceOptions so;
  so.num_workers = k;
  so.queue_capacity = k + 4;
  so.batching = batching;
  service::SimulationService svc(primary, fallback, so);

  std::vector<service::SimulationService::Ticket> tickets;
  tickets.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    service::Request rq;
    rq.trace = &tr;
    rq.engine = service::EngineKind::kSequential;
    rq.context_length = kContext;
    tickets.push_back(svc.submit(std::move(rq)));
  }
  std::vector<std::uint64_t> cycles;
  cycles.reserve(k);
  for (auto& t : tickets) {
    const service::Response r = t.future.get();
    check(r.ok(), "burst request failed: " + r.error);
    cycles.push_back(r.total_cycles);
  }
  return cycles;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::Args::parse(argc, argv, 3'000);
  const std::string abbr = args.benchmark.empty() ? "mcf" : args.benchmark;
  bench::banner("Batch throughput: aggregate modeled MIPS vs concurrency",
                "K concurrent sequential requests (context 16) over " +
                    std::to_string(args.instructions) + " instructions of " +
                    abbr + " on one scheduler (max_batch=64); the table "
                    "models complete batches of one window per request");

  const trace::EncodedTrace tr = uarch::make_encoded_trace(
      trace::find_workload(abbr), args.instructions, {}, 1);
  core::AnalyticPredictor primary, fallback;

  core::SequentialSimOptions seq;
  seq.context_length = kContext;
  seq.record_predictions = true;
  const auto plain = core::SequentialSimulator(primary, seq).run(tr).predictions;

  Table t({"requests", "windows", "mean batch", "batched us", "unbatched us",
           "batched MIPS", "unbatched MIPS", "speedup"});
  for (const std::size_t k : {1, 2, 4, 8, 16, 32}) {
    const auto bs = run_complete_batches(primary, tr, seq, plain, k);
    check(bs.flush_all_waiting == bs.flushes,
          "every flush must be an all-waiting flush");
    check(bs.items_predicted == bs.flushes * k,
          "every flush must carry exactly one window per request");
    check(run_burst(primary, fallback, tr, k, true) ==
              run_burst(primary, fallback, tr, k, false),
          "batching changed a request's cycles");

    const double windows = static_cast<double>(bs.items_predicted);
    const double mean_batch = windows / static_cast<double>(bs.flushes);
    // MIPS over the modeled inference time (instructions / µs): the modeled
    // batched cost charges each flush one amortised inference call; the
    // unbatched cost charges every window a full call, exactly what the
    // engines charge with batching off.
    const double batched_mips = windows / bs.modeled_batched_us;
    const double unbatched_mips = windows / bs.modeled_unbatched_us;
    t.add_row({static_cast<std::int64_t>(k), windows, mean_batch,
               bs.modeled_batched_us, bs.modeled_unbatched_us, batched_mips,
               unbatched_mips, batched_mips / unbatched_mips});
  }
  t.set_precision(2);
  bench::emit(t, "fig_batch_throughput");
  std::printf("every flush carried one window of each request; per-request "
              "predictions match unbatched, and service cycles are identical "
              "with batching on and off\n");
  return 0;
}
