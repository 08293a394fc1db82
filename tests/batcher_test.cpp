// Cross-request continuous-batching scheduler (docs/BATCHING.md).
//
// The contract under test: batching changes *where* inference runs, never
// what it returns. Every engine predicting through a channel is
// bit-identical to its unbatched run, across arbitrary interleavings (fuzzed
// over flush configurations and thread start jitter) and with degraded
// parallel partitions on the fallback; a full bounded queue rejects with the
// typed QueueFullError instead of blocking the engine; the queued window of
// a request whose deadline expires is dropped and the caller gets the typed
// deadline error; a batch flushes as soon as every open channel has a window
// queued, and only an idle open channel holds it to max_wait; the
// circuit-breaker fallback path and remote-routed requests never touch the
// batcher.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <iterator>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "common/check.h"
#include "core/analytic_predictor.h"
#include "core/gpu_sim.h"
#include "core/parallel_sim.h"
#include "core/sequential_sim.h"
#include "core/streaming.h"
#include "device/device.h"
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

/// An all-zero 17-row window, as the scheduler-level cases predict.
const std::int32_t kWindow[17 * trace::kNumFeatures] = {};
const core::WindowView kView{kWindow, 17};

/// Spin until `cond` holds (bounded, so a regression fails instead of
/// hanging the suite).
template <typename F>
void await(F&& cond) {
  for (int i = 0; i < 10000 && !cond(); ++i) {
    std::this_thread::sleep_for(1ms);
  }
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
    BatchScheduler sched(pred, bo);

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
        got[r] = core::SequentialSimulator(*chan, so).run(tr).predictions;
      });
    }
    for (auto& t : threads) t.join();

    for (std::size_t r = 0; r < std::size(contexts); ++r) {
      EXPECT_EQ(got[r], baseline[r])
          << "request " << r << " diverged at max_batch=" << cfg.max_batch
          << " max_wait=" << cfg.max_wait.count() << "us";
    }
    sched.shutdown();  // join the scheduler thread so the stats are final
    const auto st = sched.stats();
    EXPECT_EQ(st.items_predicted, std::size(contexts) * 2000u);
    EXPECT_EQ(st.items_dropped_cancelled, 0u);
    EXPECT_LE(st.max_batch_observed, cfg.max_batch);
  }
}

// Concurrent requests of every in-process engine predict through channels
// of one scheduler and must match their unbatched runs byte for byte. The
// parallel request runs warmup and correction, and corrupted outputs degrade
// some of its partitions to a fallback (the oracle) that predicts
// differently from the primary: those partitions must be predicted by the
// fallback, never through the channel.
TEST(Batcher, EveryEngineMatchesUnbatchedOverOneScheduler) {
  constexpr std::size_t kN = 2000, kCtx = 16;
  const trace::EncodedTrace tr = make_trace("mcf", kN);
  core::AnalyticPredictor primary;
  core::OraclePredictor fallback(tr);
  device::FaultOptions fo;
  // Degrades partitions 1 and 6; neither is first on its GPU, so their
  // heads are corrected too.
  fo.seed = 1;
  fo.output_corrupt_rate = 0.001;
  const device::FaultInjector faults(fo);

  core::ParallelSimOptions po;
  po.num_subtraces = 8;
  po.num_gpus = 2;
  po.context_length = kCtx;
  po.warmup = kCtx;
  po.post_error_correction = true;
  po.record_predictions = true;
  po.faults = &faults;
  po.fallback = &fallback;

  struct Run {
    std::uint64_t cycles = 0;
    std::vector<core::LatencyPrediction> predictions;
    std::vector<std::size_t> degraded;
  };
  enum Kind { kSequential, kGpu, kParallel, kStreaming, kKinds };
  const auto run = [&](int kind, core::LatencyPredictor& pred) {
    Run out;
    if (kind == kSequential) {
      core::SequentialSimOptions so;
      so.context_length = kCtx;
      so.record_predictions = true;
      auto r = core::SequentialSimulator(pred, so).run(tr);
      out.cycles = r.cycles;
      out.predictions = std::move(r.predictions);
    } else if (kind == kGpu) {
      device::Device dev;
      core::GpuSimOptions go;
      go.context_length = kCtx;
      go.record_predictions = true;
      auto r = core::GpuSimulator(pred, dev, go).run(tr);
      out.cycles = r.cycles;
      out.predictions = std::move(r.predictions);
    } else if (kind == kParallel) {
      auto r = core::ParallelSimulator(pred, po).run(tr);
      out.cycles = r.total_cycles;
      out.predictions = std::move(r.predictions);
      out.degraded = std::move(r.degraded_partitions);
    } else {
      uarch::LabeledTraceStream stream(trace::find_workload("mcf"));
      out.cycles =
          core::simulate_stream(pred, stream, kN, kCtx, 512).predicted_cycles;
    }
    return out;
  };

  std::vector<Run> base;
  for (int k = 0; k < kKinds; ++k) base.push_back(run(k, primary));

  BatchScheduler sched(primary);
  CancelSource src;
  std::vector<std::shared_ptr<BatchScheduler::Channel>> chans;
  for (int k = 0; k < kKinds; ++k) {
    chans.push_back(sched.open(k + 1, src.token()));
  }
  std::vector<Run> got(kKinds);
  std::vector<std::thread> threads;
  for (int k = 0; k < kKinds; ++k) {
    threads.emplace_back([&, k] {
      got[k] = run(k, *chans[k]);
      chans[k].reset();  // a finished request must not hold its peers
    });
  }
  for (auto& t : threads) t.join();

  for (int k = 0; k < kKinds; ++k) {
    EXPECT_EQ(got[k].cycles, base[k].cycles) << "engine " << k;
    EXPECT_EQ(got[k].predictions, base[k].predictions) << "engine " << k;
    EXPECT_EQ(got[k].degraded, base[k].degraded) << "engine " << k;
  }
  const Run& par = got[kParallel];
  ASSERT_FALSE(par.degraded.empty());
  ASSERT_LT(par.degraded.size(), po.num_subtraces);
  const auto bounds = core::partition_boundaries(kN, po.num_subtraces);
  for (const std::size_t p : par.degraded) {
    for (std::size_t i = bounds[p]; i < bounds[p + 1]; ++i) {
      const auto t = tr.targets(i);
      const core::LatencyPrediction label{t[0], t[1], t[2]};
      ASSERT_EQ(par.predictions[i], label)
          << "degraded partition " << p << ", instruction " << i;
    }
  }
}

// Every batch must hold windows of a single shape: with interleaved 16- and
// 24-row requests the scheduler still never mixes them (asserted indirectly
// above by bit-identity — a mixed flush would feed garbage rows — and here
// by the flush accounting adding up).
TEST(Batcher, StatsAccountForEveryItem) {
  const trace::EncodedTrace tr = make_trace("gcc", 500);
  core::AnalyticPredictor pred;
  BatchScheduler sched(pred);
  CancelSource src;
  const auto chan = sched.open(7, src.token());
  core::SequentialSimOptions so;
  so.context_length = 16;
  core::SequentialSimulator(*chan, so).run(tr);
  sched.shutdown();  // join the scheduler thread so the stats are final
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
  BatchScheduler sched(pred, bo);
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
      try {
        got[r] =
            core::SequentialSimulator(*chans[r], plain).run(tr).predictions;
      } catch (const std::exception& e) {
        errors[r] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  sched.shutdown();  // join the scheduler thread so the stats are final

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
  BatchScheduler sched(pred, bo);
  CancelSource src;
  const auto idle = sched.open(1, src.token());
  const auto busy = sched.open(2, src.token());

  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_NO_THROW(busy->predict(kView, 0));
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
  BatchScheduler sched(pred, bo);
  CancelSource src;
  auto idle = sched.open(1, src.token());
  const auto busy = sched.open(2, src.token());

  std::chrono::steady_clock::time_point done;
  std::thread caller([&] {
    EXPECT_NO_THROW(busy->predict(kView, 0));
    done = std::chrono::steady_clock::now();
  });
  await([&] { return sched.queue_depth() == 1; });
  EXPECT_EQ(sched.queue_depth(), 1u);  // held for the idle channel
  const auto t0 = std::chrono::steady_clock::now();
  idle.reset();
  caller.join();
  EXPECT_LT(done - t0, bo.max_wait / 2);

  sched.shutdown();
  const auto st = sched.stats();
  EXPECT_EQ(st.flushes, 1u);
  EXPECT_EQ(st.flush_all_waiting, 1u);
  EXPECT_EQ(st.flush_deadline, 0u);
}

// A channel released with a window still queued stops counting at once, and
// its window is not uncounted a second time when a flush takes it. A
// blocking predict() leaves a window queued only once its request is
// cancelled, so that window is dropped, not predicted.
TEST(Batcher, ReleasedChannelWithQueuedItemCountsOnce) {
  core::AnalyticPredictor pred;
  BatcherOptions bo;
  bo.max_wait = 10s;
  BatchScheduler sched(pred, bo);
  CancelSource src, gone_src;
  auto gone = sched.open(1, gone_src.token());
  const auto b = sched.open(2, src.token());
  const auto c = sched.open(3, src.token());

  std::thread gone_caller([&] {
    EXPECT_THROW(gone->predict(kView, 0), CancelledError);
  });
  await([&] { return sched.queue_depth() == 1; });
  gone_src.cancel();
  gone_caller.join();
  gone.reset();

  std::thread b_caller([&] {
    EXPECT_NO_THROW(b->predict(kView, 0));
    EXPECT_NO_THROW(b->predict(kView, 1));
  });
  await([&] { return sched.queue_depth() == 2; });
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(sched.queue_depth(), 2u) << "held for the idle channel c";
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_NO_THROW(c->predict(kView, 0));
  EXPECT_NO_THROW(c->predict(kView, 1));
  b_caller.join();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, bo.max_wait / 2);

  sched.shutdown();
  const auto st = sched.stats();
  EXPECT_EQ(st.items_predicted + st.items_dropped_cancelled, 5u);
  EXPECT_EQ(st.items_dropped_cancelled, 1u);
  EXPECT_EQ(st.flushes, 2u);
  EXPECT_EQ(st.flush_all_waiting, 2u);
}

TEST(BatcherDeathTest, DestroyingWithAnOpenChannelAborts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";  // threads running
  EXPECT_DEATH(
      {
        core::AnalyticPredictor pred;
        std::shared_ptr<BatchScheduler::Channel> chan;
        BatchScheduler sched(pred);
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
  BatchScheduler sched(gate, bo);

  // Each channel holds one window, so filling the queue takes one channel
  // per window, each predicting on its own thread.
  CancelSource src;
  std::vector<std::shared_ptr<BatchScheduler::Channel>> chans;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    chans.push_back(sched.open(id, src.token()));
  }
  std::vector<std::thread> callers;
  const auto predict_on = [&](std::size_t r) {
    callers.emplace_back([&, r] {
      EXPECT_NO_THROW(chans[r]->predict(kView, r));
    });
  };

  // The first window is taken by the scheduler thread, which then blocks
  // inside predict_batch — the queue behind it is all ours.
  predict_on(0);
  gate.wait_until_entered();
  predict_on(1);
  predict_on(2);
  await([&] { return sched.queue_depth() == 2; });
  EXPECT_EQ(sched.queue_depth(), 2u);
  EXPECT_THROW(chans[3]->predict(kView, 3), QueueFullError);

  // The rejection burns nothing: releasing the gate drains the queued
  // windows and every accepted prediction still resolves.
  gate.release();
  for (auto& t : callers) t.join();
}

// ---------------------------------------------------------------------------
// Cancellation: the queued window of a dead request is dropped, typed
// ---------------------------------------------------------------------------

TEST(Batcher, DeadlineExpiryDropsQueuedItemsTyped) {
  GatedPredictor gate;
  BatcherOptions bo;
  bo.max_batch = 1;
  bo.max_wait = 0us;
  BatchScheduler sched(gate, bo);

  CancelSource live_src;
  const auto live = sched.open(1, live_src.token());
  CancelSource dying_src;
  dying_src.set_deadline_after(30ms);
  const auto dying = sched.open(2, dying_src.token());

  std::thread live_caller([&] { EXPECT_NO_THROW(live->predict(kView, 0)); });
  gate.wait_until_entered();  // scheduler pinned; the next window stays queued

  // The caller observes the deadline while its window is still queued.
  try {
    dying->predict(kView, 0);
    ADD_FAILURE() << "predict() must throw once the deadline expires";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::kDeadline);
  }

  // Unpinning the scheduler flushes the live window and *drops* the dead one.
  gate.release();
  live_caller.join();
  for (int i = 0; i < 200 && sched.stats().items_dropped_cancelled == 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  const auto st = sched.stats();
  EXPECT_EQ(st.items_dropped_cancelled, 1u);
  EXPECT_EQ(st.items_predicted, 1u);

  // Predictions on the dead channel are refused up front.
  EXPECT_THROW(dying->predict(kView, 1), CancelledError);
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
    Request seq;
    seq.trace = &tr;
    seq.engine = EngineKind::kSequential;
    tickets.push_back(svc.submit(std::move(seq)));
  }
  std::vector<std::uint64_t> cycles;
  for (auto& t : tickets) {
    const Response r = t.future.get();
    EXPECT_EQ(r.status, ResponseStatus::kCompleted) << r.error;
    cycles.push_back(r.total_cycles);
  }
  return cycles;
}

// Batching on vs off is invisible in results for both request kinds.
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
