#include "service/batcher.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"  // QueueFullError
#include "obs/flight_recorder.h"
#include "obs/obs.h"
#include "trace/encoder.h"

namespace mlsim::service {

using Clock = std::chrono::steady_clock;

/// Shared between the engine-side Channel and the items the scheduler holds:
/// the request's completion slot. Results (or failures) arrive keyed by
/// sequence number under `mu`; the waiter consumes them in sequence order.
struct BatchScheduler::ChannelState {
  std::uint64_t request_id = 0;
  CancelToken token;

  std::mutex mu;
  std::condition_variable cv;
  std::unordered_map<std::uint64_t, core::LatencyPrediction> done;
  std::unordered_map<std::uint64_t, std::string> failed;
  std::uint64_t next_seq = 0;  // engine side only (one submitter per request)

  // Guarded by the scheduler's mu_, not by `mu`.
  std::size_t queued = 0;  // this request's items in queue_
  bool open = true;        // false once the Channel is released
};

BatchScheduler::BatchScheduler(std::vector<core::LatencyPredictor*> instances,
                               BatcherOptions opts)
    : instances_(std::move(instances)), opts_(opts) {
  check(!instances_.empty(), "batch scheduler needs at least one predictor");
  for (const auto* p : instances_) {
    check(p != nullptr, "batch scheduler predictor instance is null");
  }
  check(opts_.max_batch > 0, "max_batch must be > 0");
  check(opts_.queue_capacity > 0, "batcher queue capacity must be > 0");
  threads_.reserve(instances_.size());
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    threads_.emplace_back([this, i] { scheduler_loop(i); });
  }
}

BatchScheduler::~BatchScheduler() {
  shutdown();
  std::lock_guard lk(mu_);
  if (open_channels_ != 0) {
    // A channel released later would lock this destroyed mutex.
    std::fprintf(stderr,
                 "BatchScheduler destroyed with %zu channel(s) still open\n",
                 open_channels_);
    std::abort();
  }
}

void BatchScheduler::shutdown() {
  {
    std::lock_guard lk(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

std::shared_ptr<BatchScheduler::Channel> BatchScheduler::open(
    std::uint64_t request_id, CancelToken token) {
  auto state = std::make_shared<ChannelState>();
  state->request_id = request_id;
  state->token = std::move(token);
  return std::shared_ptr<Channel>(new Channel(this, std::move(state)));
}

BatchScheduler::Stats BatchScheduler::stats() const {
  std::lock_guard lk(mu_);
  return stats_;
}

std::size_t BatchScheduler::queue_depth() const {
  std::lock_guard lk(mu_);
  return queue_.size();
}

std::vector<BatchScheduler::Item> BatchScheduler::take_batch_locked() {
  std::vector<Item> batch;
  batch.reserve(std::min(queue_.size(), opts_.max_batch));
  const std::uint32_t rows = queue_.front().rows;
  // One batch carries one window shape; differently-shaped items keep their
  // queue position for the next flush.
  std::deque<Item> rest;
  while (!queue_.empty() && batch.size() < opts_.max_batch) {
    Item item = std::move(queue_.front());
    queue_.pop_front();
    if (item.rows == rows) {
      ChannelState& owner = *item.owner;
      if (--owner.queued == 0 && owner.open) --waiting_channels_;
      batch.push_back(std::move(item));
    } else {
      rest.push_back(std::move(item));
    }
  }
  while (!rest.empty()) {
    queue_.push_front(std::move(rest.back()));
    rest.pop_back();
  }
  MLSIM_GAUGE_SET(obs::names::kBatchQueueDepth,
                  static_cast<double>(queue_.size()));
  return batch;
}

void BatchScheduler::scheduler_loop(std::size_t instance) {
  core::LatencyPredictor& predictor = *instances_[instance];
  std::unique_lock lk(mu_);
  for (;;) {
    cv_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopping_) return;  // drained
      continue;
    }
    // Hold the first item at most max_wait hoping for companions. Flush at
    // once when max_batch are queued, or when every open channel has an
    // item queued: a channel waits on its one outstanding item, so no
    // further window can arrive before this flush.
    const auto all_waiting = [&] {
      return waiting_channels_ == open_channels_;
    };
    if (!stopping_ && opts_.max_wait.count() > 0 &&
        queue_.size() < opts_.max_batch) {
      cv_.wait_until(lk, Clock::now() + opts_.max_wait, [&] {
        return stopping_ || queue_.size() >= opts_.max_batch || all_waiting();
      });
    }
    if (queue_.empty()) continue;  // another instance drained it meanwhile
    const bool complete = all_waiting();
    std::vector<Item> batch = take_batch_locked();
    const char* reason = batch.size() >= opts_.max_batch
                             ? obs::names::kBatchFlushSize
                         : stopping_ ? obs::names::kBatchFlushShutdown
                         : complete  ? obs::names::kBatchFlushAllWaiting
                                     : obs::names::kBatchFlushDeadline;
    lk.unlock();
    flush(predictor, std::move(batch), reason);
    lk.lock();
  }
}

void BatchScheduler::flush(core::LatencyPredictor& predictor,
                           std::vector<Item> batch, const char* reason_counter) {
  // Items of cancelled requests are dropped, never predicted; their waiters
  // observe the CancelToken, so a wake-up is all they need.
  std::vector<Item> live;
  live.reserve(batch.size());
  std::uint64_t dropped = 0;
  for (auto& item : batch) {
    if (item.owner->token.cancelled()) {
      ++dropped;
      item.owner->cv.notify_all();
    } else {
      live.push_back(std::move(item));
    }
  }

  double batched_us = 0.0, unbatched_us = 0.0;
  if (!live.empty()) {
    const std::size_t n = live.size();
    const std::size_t rows = live.front().rows;
    const std::size_t stride = rows * trace::kNumFeatures;
    std::vector<std::int32_t> windows(n * stride);
    std::vector<std::uint64_t> indices(n);
    for (std::size_t k = 0; k < n; ++k) {
      std::copy(live[k].window.begin(), live[k].window.end(),
                windows.begin() + static_cast<std::ptrdiff_t>(k * stride));
      indices[k] = live[k].global_index;
    }
    std::vector<core::LatencyPrediction> preds(n);
    std::string error;
    try {
      predictor.predict_batch(windows.data(), n, rows, indices.data(),
                              preds.data());
    } catch (const std::exception& e) {
      error = e.what();
    } catch (...) {
      error = "unknown predictor error";
    }
    for (std::size_t k = 0; k < n; ++k) {
      ChannelState& st = *live[k].owner;
      std::lock_guard slk(st.mu);
      if (error.empty()) {
        st.done.emplace(live[k].seq, preds[k]);
      } else {
        st.failed.emplace(live[k].seq, error);
      }
      st.cv.notify_all();
    }
    // One flight-recorder event per distinct request in the batch (a batch
    // typically coalesces several windows of the same request).
    std::vector<std::uint64_t> seen;
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint64_t id = live[k].owner->request_id;
      if (std::find(seen.begin(), seen.end(), id) != seen.end()) continue;
      seen.push_back(id);
      obs::flight::record(id, obs::flight::Event::kBatchFlushed, n);
    }

    std::size_t flops = predictor.flops_per_window(rows);
    if (flops == 0) flops = core::simnet3c2f_flops(rows);
    batched_us = opts_.costs.inference_us(opts_.engine, flops, n,
                                          /*custom_conv=*/false, 1.0);
    unbatched_us = static_cast<double>(n) *
                   opts_.costs.inference_us(opts_.engine, flops, 1,
                                            /*custom_conv=*/false, 1.0);

    MLSIM_COUNTER_ADD(obs::names::kBatchItems, n);
    MLSIM_HIST_RECORD(obs::names::kBatchSize, static_cast<double>(n));
  }
  MLSIM_COUNTER_ADD(reason_counter, 1);
  if (dropped > 0) {
    MLSIM_COUNTER_ADD(obs::names::kBatchDroppedCancelled, dropped);
  }

  std::lock_guard lk(mu_);
  ++stats_.flushes;
  if (reason_counter == obs::names::kBatchFlushSize) ++stats_.flush_size;
  if (reason_counter == obs::names::kBatchFlushDeadline) ++stats_.flush_deadline;
  if (reason_counter == obs::names::kBatchFlushShutdown) ++stats_.flush_shutdown;
  if (reason_counter == obs::names::kBatchFlushAllWaiting) {
    ++stats_.flush_all_waiting;
  }
  stats_.items_predicted += live.size();
  stats_.items_dropped_cancelled += dropped;
  stats_.max_batch_observed = std::max(stats_.max_batch_observed, live.size());
  stats_.modeled_batched_us += batched_us;
  stats_.modeled_unbatched_us += unbatched_us;
}

std::uint64_t BatchScheduler::Channel::submit(const std::int32_t* window,
                                              std::size_t rows,
                                              std::uint64_t global_index) {
  state_->token.check();  // don't enqueue work for a dead request
  Item item;
  item.owner = state_;
  item.seq = state_->next_seq;
  item.global_index = global_index;
  item.rows = static_cast<std::uint32_t>(rows);
  item.window.assign(window, window + rows * trace::kNumFeatures);

  BatchScheduler& s = *scheduler_;
  {
    std::lock_guard lk(s.mu_);
    if (s.stopping_) {
      throw CancelledError(CancelReason::kManual,
                           "batch scheduler is shutting down");
    }
    if (s.queue_.size() >= s.opts_.queue_capacity) {
      // Bounded backpressure: never block the engine thread. The service
      // maps this to the typed kRejectedQueueFull response.
      throw QueueFullError("batch queue at capacity (" +
                           std::to_string(s.opts_.queue_capacity) + " items)");
    }
    s.queue_.push_back(std::move(item));
    if (state_->queued++ == 0) ++s.waiting_channels_;
    ++s.stats_.items_submitted;
    MLSIM_GAUGE_SET(obs::names::kBatchQueueDepth,
                    static_cast<double>(s.queue_.size()));
  }
  s.cv_.notify_one();
  return state_->next_seq++;
}

BatchScheduler::Channel::Channel(BatchScheduler* scheduler,
                                 std::shared_ptr<ChannelState> state)
    : scheduler_(scheduler), state_(std::move(state)) {
  std::lock_guard lk(scheduler_->mu_);
  ++scheduler_->open_channels_;
}

BatchScheduler::Channel::~Channel() {
  BatchScheduler& s = *scheduler_;
  {
    std::lock_guard lk(s.mu_);
    --s.open_channels_;
    // Items it left queued no longer count: they stay in queue_ until a
    // flush takes them, but this channel will never submit again.
    if (state_->queued > 0) --s.waiting_channels_;
    state_->open = false;
  }
  s.cv_.notify_all();
}

core::LatencyPrediction BatchScheduler::Channel::wait(std::uint64_t seq) {
  ChannelState& st = *state_;
  std::unique_lock lk(st.mu);
  for (;;) {
    if (const auto it = st.done.find(seq); it != st.done.end()) {
      const core::LatencyPrediction p = it->second;
      st.done.erase(it);
      return p;
    }
    if (const auto it = st.failed.find(seq); it != st.failed.end()) {
      const std::string error = it->second;
      st.failed.erase(it);
      throw CheckError("batched inference failed: " + error);
    }
    // token.check() throws CancelledError with the cancellation reason once
    // the request is cancelled (deadline, manual, shutdown); the timed wait
    // bounds how stale that poll can get, since cancellation has no way to
    // signal this condition variable directly.
    st.token.check();
    st.cv.wait_for(lk, std::chrono::milliseconds(1));
  }
}

}  // namespace mlsim::service
