// Cross-request continuous-batching scheduler (docs/BATCHING.md).
//
// The contract under test: batching changes *where* inference runs, never
// what it returns. Per-request predictions are bit-identical to an unbatched
// run across arbitrary interleavings (fuzzed over flush configurations and
// thread start jitter); a full bounded queue rejects with the typed
// QueueFullError instead of blocking the engine; queued items of a request
// whose deadline expires are dropped and the waiter gets the typed deadline
// error; a batch flushes as soon as every open channel has a window queued,
// and only an idle open channel holds it to max_wait; the circuit-breaker
// fallback path and remote-routed requests never touch the batcher.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <iterator>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/analytic_predictor.h"
#include "core/parallel_sim.h"
#include "core/sequential_sim.h"
#include "device/fault.h"
#include "service/batcher.h"
#include "service/remote.h"
#include "service/service.h"
#include "trace/encoder.h"
#include "trace/trace.h"
#include "uarch/ground_truth.h"

namespace mlsim::service {
namespace {

using namespace std::chrono_literals;

trace::EncodedTrace make_trace(const std::string& abbr, std::size_t n) {
  return uarch::make_encoded_trace(trace::find_workload(abbr), n, {}, 1);
}

/// One-shot rendezvous between a call the test wants to pin and the test
/// body: hold() announces the caller and blocks it until release().
class Gate {
 public:
  void wait_until_entered() {
    std::unique_lock lk(mu_);
    cv_.wait(lk, [&] { return entered_; });
  }
  void release() {
    std::lock_guard lk(mu_);
    released_ = true;
    cv_.notify_all();
  }

 protected:
  void hold() {
    std::unique_lock lk(mu_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lk, [&] { return released_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

/// Delegates to an AnalyticPredictor, but the FIRST predict_batch call blocks
/// until release() — pinning the single scheduler thread mid-flush so tests
/// can deterministically fill the queue behind it.
class GatedPredictor final : public core::LatencyPredictor, public Gate {
 public:
  core::LatencyPrediction predict(const core::WindowView& w,
                                  std::uint64_t gi) override {
    return inner_.predict(w, gi);
  }

  void predict_batch(const std::int32_t* windows, std::size_t batch,
                     std::size_t rows, const std::uint64_t* gis,
                     core::LatencyPrediction* out) override {
    if (!first_seen_.exchange(true)) hold();
    inner_.predict_batch(windows, batch, rows, gis, out);
  }

  std::size_t flops_per_window(std::size_t rows) const override {
    return inner_.flops_per_window(rows);
  }

 private:
  core::AnalyticPredictor inner_;
  std::atomic<bool> first_seen_{false};
};

/// Stands in for a cluster: run_remote blocks until release(), then runs the
/// request's ParallelSimulator in-process on its own predictor.
class GatedRemote final : public RemoteBackend, public Gate {
 public:
  core::ParallelSimResult run_remote(
      const trace::EncodedTrace& trace,
      const core::ParallelSimOptions& opts) override {
    hold();
    return core::ParallelSimulator(pred_, opts).run(trace);
  }

 private:
  core::AnalyticPredictor pred_;
};

// ---------------------------------------------------------------------------
// Bit-identity under fuzzed interleavings
// ---------------------------------------------------------------------------

// Concurrent requests with different window shapes share one scheduler under
// varying flush configurations; every request's per-instruction predictions
// must match its own unbatched baseline byte for byte.
TEST(Batcher, InterleaveFuzzBitIdentity) {
  const trace::EncodedTrace tr = make_trace("mcf", 2000);
  core::AnalyticPredictor pred;

  // Two window shapes to also exercise the rows-grouped flush split.
  const std::size_t contexts[] = {16, 16, 24, 24};
  std::vector<std::vector<core::LatencyPrediction>> baseline;
  for (const std::size_t ctx : contexts) {
    core::SequentialSimOptions so;
    so.context_length = ctx;
    so.record_predictions = true;
    baseline.push_back(core::SequentialSimulator(pred, so).run(tr).predictions);
  }

  struct Config {
    std::size_t max_batch;
    std::chrono::microseconds max_wait;
  };
  const Config configs[] = {
      {1, 0us},    // degenerate: every window its own flush
      {4, 50us},   // mid-size batches, deadline flushes
      {64, 200us}, // batches larger than the request count
      {3, 0us},    // non-divisor batch size, no accumulation wait
  };

  std::mt19937 rng(20220613);
  for (const Config& cfg : configs) {
    BatcherOptions bo;
    bo.max_batch = cfg.max_batch;
    bo.max_wait = cfg.max_wait;
    BatchScheduler sched({&pred}, bo);

    std::vector<std::vector<core::LatencyPrediction>> got(std::size(contexts));
    std::vector<std::thread> threads;
    std::uniform_int_distribution<int> jitter(0, 200);
    for (std::size_t r = 0; r < std::size(contexts); ++r) {
      const int delay_us = jitter(rng);
      threads.emplace_back([&, r, delay_us] {
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
        CancelSource src;
        const auto chan = sched.open(r + 1, src.token());
        core::SequentialSimOptions so;
        so.context_length = contexts[r];
        so.record_predictions = true;
        so.batch_sink = chan.get();
        got[r] = core::SequentialSimulator(pred, so).run(tr).predictions;
      });
    }
    for (auto& t : threads) t.join();

    for (std::size_t r = 0; r < std::size(contexts); ++r) {
      EXPECT_EQ(got[r], baseline[r])
          << "request " << r << " diverged at max_batch=" << cfg.max_batch
          << " max_wait=" << cfg.max_wait.count() << "us";
    }
    sched.shutdown();  // join scheduler threads so the stats are final
    const auto st = sched.stats();
    EXPECT_EQ(st.items_predicted, std::size(contexts) * 2000u);
    EXPECT_EQ(st.items_dropped_cancelled, 0u);
    EXPECT_LE(st.max_batch_observed, cfg.max_batch);
  }
}

// Every batch must hold windows of a single shape: with interleaved 16- and
// 24-row requests the scheduler still never mixes them (asserted indirectly
// above by bit-identity — a mixed flush would feed garbage rows — and here
// by the flush accounting adding up).
TEST(Batcher, StatsAccountForEveryItem) {
  const trace::EncodedTrace tr = make_trace("gcc", 500);
  core::AnalyticPredictor pred;
  BatchScheduler sched({&pred});
  CancelSource src;
  const auto chan = sched.open(7, src.token());
  core::SequentialSimOptions so;
  so.context_length = 16;
  so.batch_sink = chan.get();
  core::SequentialSimulator(pred, so).run(tr);
  sched.shutdown();  // join scheduler threads so the stats are final
  const auto st = sched.stats();
  EXPECT_EQ(st.items_submitted, 500u);
  EXPECT_EQ(st.items_predicted, 500u);
  EXPECT_EQ(st.flush_size + st.flush_deadline + st.flush_shutdown +
                st.flush_all_waiting,
            st.flushes);
  EXPECT_GE(st.modeled_unbatched_us, st.modeled_batched_us);
}

// ---------------------------------------------------------------------------
// Flush rule: a batch is complete once every open channel has an item queued
// ---------------------------------------------------------------------------

// Each test opens its channels before anything is submitted, so the open
// count is fixed while the scheduler decides.

// Three requests with one window outstanding each: every flush carries one
// window of each request, and none waits out max_wait.
TEST(Batcher, FlushesWhenEveryOpenChannelWaits) {
  const trace::EncodedTrace tr = make_trace("gcc", 300);
  core::AnalyticPredictor pred;
  core::SequentialSimOptions plain;
  plain.record_predictions = true;
  const auto baseline =
      core::SequentialSimulator(pred, plain).run(tr).predictions;

  BatcherOptions bo;
  bo.max_wait = 10s;
  BatchScheduler sched({&pred}, bo);
  constexpr std::size_t kRequests = 3;
  // The deadline bounds a run that waits out max_wait on every window.
  std::vector<CancelSource> sources(kRequests);
  std::vector<std::shared_ptr<BatchScheduler::Channel>> chans;
  for (std::size_t r = 0; r < kRequests; ++r) {
    sources[r].set_deadline_after(60s);
    chans.push_back(sched.open(r + 1, sources[r].token()));
  }

  std::vector<std::vector<core::LatencyPrediction>> got(kRequests);
  std::vector<std::string> errors(kRequests);
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < kRequests; ++r) {
    threads.emplace_back([&, r] {
      core::SequentialSimOptions so = plain;
      so.batch_sink = chans[r].get();
      try {
        got[r] = core::SequentialSimulator(pred, so).run(tr).predictions;
      } catch (const std::exception& e) {
        errors[r] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  sched.shutdown();  // join scheduler threads so the stats are final

  for (std::size_t r = 0; r < kRequests; ++r) {
    EXPECT_EQ(errors[r], "") << "request " << r;
    EXPECT_EQ(got[r], baseline) << "request " << r;
  }
  const auto st = sched.stats();
  EXPECT_EQ(st.items_predicted, kRequests * tr.size());
  EXPECT_EQ(st.flushes, tr.size());
  EXPECT_EQ(st.flush_deadline, 0u);
  EXPECT_EQ(st.flush_all_waiting, st.flushes);
}

TEST(Batcher, IdleOpenChannelHoldsFlushToDeadline) {
  core::AnalyticPredictor pred;
  BatcherOptions bo;
  bo.max_wait = 20ms;
  BatchScheduler sched({&pred}, bo);
  CancelSource src;
  const auto idle = sched.open(1, src.token());
  const auto busy = sched.open(2, src.token());

  const std::int32_t window[17 * trace::kNumFeatures] = {};
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_NO_THROW(busy->wait(busy->submit(window, 17, 0)));
  EXPECT_GE(std::chrono::steady_clock::now() - t0, bo.max_wait);

  sched.shutdown();
  const auto st = sched.stats();
  EXPECT_EQ(st.flushes, 1u);
  EXPECT_EQ(st.flush_deadline, 1u);
  EXPECT_EQ(st.flush_all_waiting, 0u);
}

TEST(Batcher, ReleasingIdleChannelFlushesPeers) {
  core::AnalyticPredictor pred;
  BatcherOptions bo;
  bo.max_wait = 10s;
  BatchScheduler sched({&pred}, bo);
  CancelSource src;
  auto idle = sched.open(1, src.token());
  const auto busy = sched.open(2, src.token());

  const std::int32_t window[17 * trace::kNumFeatures] = {};
  const std::uint64_t seq = busy->submit(window, 17, 0);
  ASSERT_EQ(sched.queue_depth(), 1u);  // held for the idle channel
  const auto t0 = std::chrono::steady_clock::now();
  idle.reset();
  EXPECT_NO_THROW(busy->wait(seq));
  EXPECT_LT(std::chrono::steady_clock::now() - t0, bo.max_wait / 2);

  sched.shutdown();
  const auto st = sched.stats();
  EXPECT_EQ(st.flushes, 1u);
  EXPECT_EQ(st.flush_all_waiting, 1u);
  EXPECT_EQ(st.flush_deadline, 0u);
}

// A channel released with an item still queued stops counting at once, and
// its item is not uncounted a second time when a flush takes it.
TEST(Batcher, ReleasedChannelWithQueuedItemCountsOnce) {
  core::AnalyticPredictor pred;
  BatcherOptions bo;
  bo.max_wait = 10s;
  BatchScheduler sched({&pred}, bo);
  CancelSource src;
  auto gone = sched.open(1, src.token());
  const auto b = sched.open(2, src.token());
  const auto c = sched.open(3, src.token());

  const std::int32_t window[17 * trace::kNumFeatures] = {};
  gone->submit(window, 17, 0);
  gone.reset();
  const std::uint64_t b0 = b->submit(window, 17, 0);
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(sched.queue_depth(), 2u) << "held for the idle channel c";
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t c0 = c->submit(window, 17, 0);
  EXPECT_NO_THROW(b->wait(b0));
  EXPECT_NO_THROW(c->wait(c0));
  const std::uint64_t b1 = b->submit(window, 17, 1);
  const std::uint64_t c1 = c->submit(window, 17, 1);
  EXPECT_NO_THROW(b->wait(b1));
  EXPECT_NO_THROW(c->wait(c1));
  EXPECT_LT(std::chrono::steady_clock::now() - t0, bo.max_wait / 2);

  sched.shutdown();
  const auto st = sched.stats();
  EXPECT_EQ(st.items_predicted, 5u);
  EXPECT_EQ(st.flushes, 2u);
  EXPECT_EQ(st.flush_all_waiting, 2u);
}

TEST(BatcherDeathTest, DestroyingWithAnOpenChannelAborts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";  // threads running
  EXPECT_DEATH(
      {
        core::AnalyticPredictor pred;
        std::shared_ptr<BatchScheduler::Channel> chan;
        BatchScheduler sched({&pred});
        CancelSource src;
        chan = sched.open(1, src.token());
      },
      "channel\\(s\\) still open");
}

// ---------------------------------------------------------------------------
// Backpressure: typed queue-full rejection, never a blocked engine thread
// ---------------------------------------------------------------------------

TEST(Batcher, FullQueueThrowsTypedQueueFullError) {
  GatedPredictor gate;
  BatcherOptions bo;
  bo.max_batch = 1;
  bo.max_wait = 0us;
  bo.queue_capacity = 2;
  BatchScheduler sched({&gate}, bo);

  CancelSource src;
  const auto chan = sched.open(1, src.token());
  const std::int32_t window[17 * trace::kNumFeatures] = {};

  // First item is taken by the scheduler thread, which then blocks inside
  // predict_batch — the queue behind it is all ours.
  const std::uint64_t s0 = chan->submit(window, 17, 0);
  gate.wait_until_entered();
  const std::uint64_t s1 = chan->submit(window, 17, 1);
  const std::uint64_t s2 = chan->submit(window, 17, 2);
  EXPECT_EQ(sched.queue_depth(), 2u);
  EXPECT_THROW(chan->submit(window, 17, 3), QueueFullError);

  // The rejection burns nothing: releasing the gate drains the queued items
  // and every accepted submission still resolves.
  gate.release();
  EXPECT_NO_THROW(chan->wait(s0));
  EXPECT_NO_THROW(chan->wait(s1));
  EXPECT_NO_THROW(chan->wait(s2));
}

// ---------------------------------------------------------------------------
// Cancellation: queued items of a dead request are dropped, typed
// ---------------------------------------------------------------------------

TEST(Batcher, DeadlineExpiryDropsQueuedItemsTyped) {
  GatedPredictor gate;
  BatcherOptions bo;
  bo.max_batch = 1;
  bo.max_wait = 0us;
  BatchScheduler sched({&gate}, bo);

  CancelSource live_src;
  const auto live = sched.open(1, live_src.token());
  CancelSource dying_src;
  dying_src.set_deadline_after(30ms);
  const auto dying = sched.open(2, dying_src.token());

  const std::int32_t window[17 * trace::kNumFeatures] = {};
  const std::uint64_t live_seq = live->submit(window, 17, 0);
  gate.wait_until_entered();  // scheduler pinned; next items stay queued
  const std::uint64_t dead_seq = dying->submit(window, 17, 0);

  // The waiter observes the deadline while its item is still queued.
  try {
    dying->wait(dead_seq);
    FAIL() << "wait() must throw once the deadline expires";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::kDeadline);
  }

  // Unpinning the scheduler flushes the live item and *drops* the dead one.
  gate.release();
  EXPECT_NO_THROW(live->wait(live_seq));
  for (int i = 0; i < 200 && sched.stats().items_dropped_cancelled == 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  const auto st = sched.stats();
  EXPECT_EQ(st.items_dropped_cancelled, 1u);
  EXPECT_EQ(st.items_predicted, 1u);

  // Submissions on the dead channel are refused up front.
  EXPECT_THROW(dying->submit(window, 17, 1), CancelledError);
}

// ---------------------------------------------------------------------------
// Service integration
// ---------------------------------------------------------------------------

std::vector<std::uint64_t> service_burst(bool batching,
                                         const trace::EncodedTrace& tr) {
  core::AnalyticPredictor primary, fallback;
  ServiceOptions so;
  so.num_workers = 4;
  so.queue_capacity = 16;
  so.batching = batching;
  so.batcher.max_wait = 50us;
  SimulationService svc(primary, fallback, so);

  std::vector<SimulationService::Ticket> tickets;
  for (int i = 0; i < 2; ++i) {
    Request par;
    par.trace = &tr;
    par.engine = EngineKind::kParallel;
    par.num_subtraces = 4;
    tickets.push_back(svc.submit(std::move(par)));
    Request gpu;
    gpu.trace = &tr;
    gpu.engine = EngineKind::kGpu;
    tickets.push_back(svc.submit(std::move(gpu)));
    Request seq;
    seq.trace = &tr;
    seq.engine = EngineKind::kSequential;
    tickets.push_back(svc.submit(std::move(seq)));
    Request stream;
    stream.engine = EngineKind::kStreaming;
    stream.benchmark = "mcf";
    stream.stream_instructions = 2000;
    tickets.push_back(svc.submit(std::move(stream)));
  }
  std::vector<std::uint64_t> cycles;
  for (auto& t : tickets) {
    const Response r = t.future.get();
    EXPECT_EQ(r.status, ResponseStatus::kCompleted) << r.error;
    cycles.push_back(r.total_cycles);
  }
  return cycles;
}

// Batching on vs off is invisible in results for every engine kind.
TEST(Batcher, ServiceResultsIdenticalWithBatchingOnAndOff) {
  const trace::EncodedTrace tr = make_trace("mcf", 2000);
  EXPECT_EQ(service_burst(true, tr), service_burst(false, tr));
}

// A request routed to the cluster never submits a window, so it must not
// open a channel: an idle one would hold every local peer's flush to
// max_wait for as long as the remote run takes.
TEST(Batcher, RemoteRoutedRequestDoesNotHoldLocalFlushes) {
  const trace::EncodedTrace tr = make_trace("mcf", 300);
  core::AnalyticPredictor primary, fallback;
  GatedRemote remote;

  ServiceOptions so;
  so.num_workers = 2;
  so.batching = true;
  so.batcher.max_wait = 10s;
  so.hang_timeout = 60s;  // the gated remote run sends no heartbeat
  so.remote = &remote;
  SimulationService svc(primary, fallback, so);

  Request par;
  par.trace = &tr;
  par.engine = EngineKind::kParallel;
  auto tp = svc.submit(par);
  remote.wait_until_entered();

  Request seq;
  seq.trace = &tr;
  seq.engine = EngineKind::kSequential;
  seq.deadline = 60s;  // bounds a run that waits out max_wait per window
  auto ts = svc.submit(seq);
  const Response rs = ts.future.get();
  remote.release();
  const Response rp = tp.future.get();
  svc.shutdown();  // joins the scheduler, so the batcher stats are final

  ASSERT_EQ(rs.status, ResponseStatus::kCompleted) << rs.error;
  ASSERT_EQ(rp.status, ResponseStatus::kCompleted) << rp.error;
  core::SequentialSimOptions sso;
  sso.context_length = seq.context_length;
  const auto direct_seq = core::SequentialSimulator(primary, sso).run(tr);
  EXPECT_EQ(rs.total_cycles, direct_seq.cycles);
  EXPECT_EQ(rs.instructions, direct_seq.instructions);
  core::ParallelSimOptions po;
  po.num_subtraces = par.num_subtraces;
  po.num_gpus = par.num_gpus;
  po.context_length = par.context_length;
  po.warmup = par.context_length;
  po.post_error_correction = par.correction;
  const auto direct_par = core::ParallelSimulator(primary, po).run(tr);
  EXPECT_EQ(rp.total_cycles, direct_par.total_cycles);
  EXPECT_EQ(rp.instructions, direct_par.instructions);

  const auto bs = svc.batcher()->stats();
  EXPECT_EQ(bs.items_predicted, tr.size());
  EXPECT_EQ(bs.flush_deadline, 0u);
}

// While the breaker is open, requests run on the analytic fallback and must
// bypass the batcher entirely — a sick primary can never stall batched peers.
TEST(Batcher, BreakerOpenFallbackBypassesBatcher) {
  const trace::EncodedTrace tr = make_trace("mcf", 3000);
  core::AnalyticPredictor primary, fallback;

  device::FaultOptions fo;
  fo.seed = 7;
  fo.output_corrupt_rate = 1.0;  // every primary attempt degrades
  const device::FaultInjector inj(fo);

  ServiceOptions so;
  so.batching = true;
  so.breaker.failure_threshold = 1;
  so.breaker.open_cooldown = 100;  // stay open for the rest of the test
  SimulationService svc(primary, fallback, so);

  Request chaos;
  chaos.trace = &tr;
  chaos.engine = EngineKind::kParallel;
  chaos.num_subtraces = 4;
  chaos.faults = &inj;
  auto t0 = svc.submit(std::move(chaos));
  const Response r0 = t0.future.get();
  EXPECT_EQ(r0.status, ResponseStatus::kCompleted) << r0.error;
  EXPECT_TRUE(r0.degraded);
  ASSERT_EQ(svc.breaker_state(), BreakerState::kOpen);

  const std::uint64_t submitted_before = svc.batcher()->stats().items_submitted;
  Request seq;
  seq.trace = &tr;
  seq.engine = EngineKind::kSequential;
  auto t1 = svc.submit(std::move(seq));
  const Response r1 = t1.future.get();
  EXPECT_EQ(r1.status, ResponseStatus::kCompleted) << r1.error;
  EXPECT_TRUE(r1.degraded) << "open breaker must route to the fallback";
  EXPECT_EQ(svc.batcher()->stats().items_submitted, submitted_before)
      << "fallback-served request must not touch the batcher";
}

}  // namespace
}  // namespace mlsim::service
