// Cross-request continuous-batching inference scheduler (docs/BATCHING.md).
//
// The paper's entire speedup is the batch dimension: the GPU is efficient
// only when one inference call carries many independent windows. A single
// narrow request (few sub-traces, or the strictly sequential engines) can
// never fill a batch by itself — but a *fleet* of concurrent requests can.
// This scheduler applies LLM-serving-style continuous batching across
// requests:
//
//   engine loops (any request)          scheduler threads (one per
//        │                              predictor instance)
//        │ Channel::submit(window)           │
//        ▼                                   ▼
//   bounded shared work-item queue ──► coalesce up to max_batch items
//        │                             (flush once every open channel has
//        │                              an item queued, or after max_wait)
//        │                                   │ one predict_batch() per
//        │                                   │ rows-group
//        ▼                                   ▼
//   Channel::wait(seq) ◄── per-request completion slots, results keyed
//                          by sequence number
//
// Flush rule: each request has at most one window outstanding (the engines
// call predict_via = wait(submit(...))), so once every open channel has an
// item queued no further window can arrive before the flush, and the
// scheduler flushes at once. max_wait only bounds the wait for a request
// that is busy between windows.
//
// Ordering / bit-identity: every submission gets a per-request sequence
// number in submission order; results are delivered into the request's
// completion slot keyed by that number, so the consumer reads them in
// stable sequence order no matter how the scheduler interleaved requests
// into batches. A window's prediction depends only on the window itself
// (predict_batch computes samples independently), so a single request's
// output is byte-identical to an unbatched run regardless of interleave —
// asserted by the interleave fuzz test.
//
// Backpressure: the shared queue is bounded; submit() throws QueueFullError
// (common/thread_pool.h) instead of blocking the engine thread, and the
// service maps that to the typed kRejectedQueueFull response.
//
// Cancellation: queued items of a cancelled request (deadline, manual,
// shutdown) are dropped at flush time, never predicted; a waiter blocked in
// wait() observes its CancelToken and throws CancelledError.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/cancellation.h"
#include "core/cost_model.h"
#include "core/predict_sink.h"
#include "core/predictor.h"

namespace mlsim::service {

struct BatcherOptions {
  /// Items coalesced into one inference call at most. Flushing also splits
  /// on window rows: a batch only carries windows of one shape.
  std::size_t max_batch = 64;
  /// How long a non-full batch may wait for more items while some open
  /// channel has nothing queued (see the flush rule above). 0 flushes
  /// immediately with whatever is queued (pure opportunistic batching —
  /// lowest latency, smallest batches).
  std::chrono::microseconds max_wait{100};
  /// Bound of the shared work-item queue; submit() throws QueueFullError at
  /// capacity. Size it >= the service's max_outstanding: each in-flight
  /// request keeps at most one item queued, so a correctly sized queue
  /// never rejects (see docs/BATCHING.md).
  std::size_t queue_capacity = 512;

  /// Simulated-time accounting of the inference the scheduler issues (the
  /// same cost model the engines charge): each flush of n windows costs one
  /// inference_us(engine, flops, n) against `engine`. Stats expose the
  /// batched total alongside the per-window unbatched equivalent, which is
  /// what fig_batch_throughput reports as aggregate MIPS.
  core::CostModel costs;
  device::Engine engine = device::Engine::kTensorRTSparse;
};

class BatchScheduler {
 public:
  /// One scheduler thread per predictor instance, all draining the shared
  /// queue — "N predictor instances" is simply a longer vector (model
  /// replicas, or the same weights loaded per device). Instances must be
  /// non-null, safe to call from the scheduler's own thread, and outlive
  /// the scheduler.
  explicit BatchScheduler(std::vector<core::LatencyPredictor*> instances,
                          BatcherOptions opts = {});
  /// Every channel must be released first: destroying the scheduler with a
  /// channel still open aborts the program.
  ~BatchScheduler();

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  class Channel;

  /// Open a per-request submission channel. `token` governs every item
  /// submitted through it: once cancelled, queued items are dropped and
  /// waiters throw CancelledError. Submissions after shutdown() fail as
  /// cancelled. An open channel holds every flush until it submits, is
  /// released or max_wait expires, so open one only for a request that
  /// submits through it.
  std::shared_ptr<Channel> open(std::uint64_t request_id, CancelToken token);

  /// Drain the queue (flushing remaining live items) and join the
  /// scheduler threads. Idempotent; also called by the destructor.
  void shutdown();

  struct Stats {
    std::uint64_t items_submitted = 0;
    std::uint64_t items_predicted = 0;
    std::uint64_t items_dropped_cancelled = 0;
    std::uint64_t flushes = 0;
    // Each flush counts under one reason; precedence size, shutdown,
    // all-waiting, deadline.
    std::uint64_t flush_size = 0;         // batch hit max_batch
    std::uint64_t flush_deadline = 0;     // max_wait expired
    std::uint64_t flush_shutdown = 0;     // drained at shutdown
    std::uint64_t flush_all_waiting = 0;  // every open channel had an item
    std::size_t max_batch_observed = 0;
    /// Modeled inference time actually charged (batched) and what the same
    /// windows would have cost one by one (batch = 1).
    double modeled_batched_us = 0.0;
    double modeled_unbatched_us = 0.0;
  };
  Stats stats() const;
  std::size_t queue_depth() const;

 private:
  struct ChannelState;

  struct Item {
    std::shared_ptr<ChannelState> owner;
    std::uint64_t seq = 0;
    std::uint64_t global_index = 0;
    std::uint32_t rows = 0;
    std::vector<std::int32_t> window;  // rows * kNumFeatures, owned copy
  };

  void scheduler_loop(std::size_t instance);
  /// Take up to max_batch queued items sharing the front item's window
  /// shape (FIFO otherwise). Caller holds mu_.
  std::vector<Item> take_batch_locked();
  void flush(core::LatencyPredictor& predictor, std::vector<Item> batch,
             const char* reason_counter);

  std::vector<core::LatencyPredictor*> instances_;
  BatcherOptions opts_;

  mutable std::mutex mu_;
  std::condition_variable cv_;  // scheduler threads wait here
  std::deque<Item> queue_;
  bool stopping_ = false;
  std::size_t open_channels_ = 0;
  std::size_t waiting_channels_ = 0;  // open channels with an item in queue_
  Stats stats_;

  std::vector<std::thread> threads_;
};

/// Per-request PredictSink handed to the engine loops. Thread-compatible
/// with the engines' use (one submitting/waiting thread per request); the
/// scheduler delivers results concurrently from its own threads.
class BatchScheduler::Channel final : public core::PredictSink {
 public:
  ~Channel() override;
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  std::uint64_t submit(const std::int32_t* window, std::size_t rows,
                       std::uint64_t global_index) override;
  core::LatencyPrediction wait(std::uint64_t seq) override;

 private:
  friend class BatchScheduler;
  /// Counts the channel as open until its destructor runs.
  Channel(BatchScheduler* scheduler, std::shared_ptr<ChannelState> state);

  BatchScheduler* scheduler_;
  std::shared_ptr<ChannelState> state_;
};

}  // namespace mlsim::service
