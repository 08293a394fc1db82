// Cross-request continuous-batching inference scheduler (docs/BATCHING.md).
//
// The paper's entire speedup is the batch dimension: the GPU is efficient
// only when one inference call carries many independent windows. A single
// narrow request (few sub-traces, or the strictly sequential engines) can
// never fill a batch by itself — but a *fleet* of concurrent requests can.
// This scheduler applies LLM-serving-style continuous batching across
// requests:
//
//   engine loops (any request)          scheduler thread
//        │                                   │
//        │ Channel::predict(window)          │
//        ▼                                   ▼
//   bounded shared queue of channels ──► coalesce up to max_batch windows
//        │                             (flush once every open channel has
//        │                              its window queued, or after
//        │                              max_wait)
//        │                                   │ one predict_batch() per
//        │                                   │ rows-group
//        ▼                                   ▼
//   predict() returns ◄──────────── the channel's one result slot
//
// A Channel is the request's LatencyPredictor: the service hands it to the
// engine in place of the primary predictor. predict() queues the window and
// blocks until its result arrives, so a channel holds at most one window by
// construction.
//
// Flush rule: since no open channel can queue a second window, once every
// open channel has its window queued no further window can arrive before
// the flush, and the scheduler flushes at once. max_wait only bounds the
// wait for a request that is busy between windows.
//
// Bit-identity: a window's prediction depends only on the window itself
// (predict_batch computes samples independently), and each result goes
// back to the channel that queued the window, so a request's output is
// byte-identical to an unbatched run regardless of interleave — asserted by
// the interleave fuzz test.
//
// Backpressure: the shared queue is bounded; predict() throws
// QueueFullError (common/check.h) instead of blocking the engine
// thread, and the service maps that to the typed kRejectedQueueFull
// response.
//
// Cancellation: queued windows of a cancelled request (deadline, manual,
// shutdown) are dropped at flush time, never predicted; a caller blocked in
// predict() observes its CancelToken and throws CancelledError.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "core/predictor.h"

namespace mlsim::service {

struct BatcherOptions {
  /// Windows coalesced into one inference call at most. Flushing also
  /// splits on window rows: a batch only carries windows of one shape.
  std::size_t max_batch = 64;
  /// How long a non-full batch may wait for more windows while some open
  /// channel has nothing queued (see the flush rule above). 0 flushes
  /// immediately with whatever is queued (pure opportunistic batching —
  /// lowest latency, smallest batches).
  std::chrono::microseconds max_wait{100};
  /// Bound of the shared queue; predict() throws QueueFullError at
  /// capacity. Size it >= the service's max_outstanding: each in-flight
  /// request queues at most one window, so a correctly sized queue never
  /// rejects (see docs/BATCHING.md).
  std::size_t queue_capacity = 512;
};

class BatchScheduler {
 public:
  /// One scheduler thread serves every batch on `predictor`, which must be
  /// safe to call from that thread and outlive the scheduler.
  explicit BatchScheduler(core::LatencyPredictor& predictor,
                          BatcherOptions opts = {});
  /// Every channel must be released first: destroying the scheduler with a
  /// channel still open aborts the program.
  ~BatchScheduler();

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  class Channel;

  /// Open a per-request channel. `token` governs every window predicted
  /// through it: once cancelled, its queued window is dropped and predict()
  /// throws CancelledError. Predictions after shutdown() fail as
  /// cancelled. An open channel holds every flush until it queues a window,
  /// is released or max_wait expires, so open one only for a request that
  /// predicts through it.
  std::shared_ptr<Channel> open(std::uint64_t request_id, CancelToken token);

  /// Drain the queue (flushing remaining live windows) and join the
  /// scheduler thread. Idempotent; also called by the destructor.
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
    std::uint64_t flush_all_waiting = 0;  // every open channel had a window
    std::size_t max_batch_observed = 0;
    /// Modeled inference time actually charged (batched) and what the same
    /// windows would have cost one by one (batch = 1), both on the
    /// TensorRT+fp16+2:4 engine of the default cost model.
    double modeled_batched_us = 0.0;
    double modeled_unbatched_us = 0.0;
  };
  Stats stats() const;
  std::size_t queue_depth() const;

 private:
  struct ChannelState;
  using Batch = std::vector<std::shared_ptr<ChannelState>>;

  void scheduler_loop();
  /// Take up to max_batch queued windows sharing the front window's shape
  /// (FIFO otherwise). Caller holds mu_.
  Batch take_batch_locked();
  void flush(Batch batch, const char* reason_counter);

  core::LatencyPredictor& predictor_;
  BatcherOptions opts_;

  mutable std::mutex mu_;
  std::condition_variable cv_;  // the scheduler thread waits here
  std::deque<std::shared_ptr<ChannelState>> queue_;
  bool stopping_ = false;
  std::size_t open_channels_ = 0;
  std::size_t waiting_channels_ = 0;  // open channels with a window queued
  Stats stats_;

  std::thread thread_;
};

/// Per-request predictor handed to the engine loops in place of the
/// scheduler's predictor. Thread-compatible with the engines' use (one
/// predicting thread per request); the scheduler delivers results from its
/// own thread.
class BatchScheduler::Channel final : public core::LatencyPredictor {
 public:
  ~Channel() override;
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Queue the window for the next flush and block until its result
  /// arrives. Throws QueueFullError when the shared queue is at capacity,
  /// CancelledError once the request is cancelled, and CheckError when the
  /// batch's inference failed.
  core::LatencyPrediction predict(const core::WindowView& window,
                                  std::uint64_t global_index) override;
  /// Same, building the window straight into the queued slot.
  core::LatencyPrediction predict_lazy(const core::LazyWindow& window) override;

  std::size_t flops_per_window(std::size_t rows) const override;
  device::Engine engine() const override;

 private:
  friend class BatchScheduler;
  /// Counts the channel as open until its destructor runs.
  Channel(BatchScheduler* scheduler, std::shared_ptr<ChannelState> state);

  /// Queue the window already written to the slot and wait for its result.
  core::LatencyPrediction submit_and_wait();

  BatchScheduler* scheduler_;
  std::shared_ptr<ChannelState> state_;
};

}  // namespace mlsim::service
