#include "service/batcher.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "common/check.h"
#include "core/cost_model.h"
#include "obs/flight_recorder.h"
#include "obs/obs.h"
#include "trace/encoder.h"

namespace mlsim::service {

using Clock = std::chrono::steady_clock;

namespace {
/// The engine and cost model the modeled batched/unbatched inference time
/// is charged on.
constexpr device::Engine kModeledEngine = device::Engine::kTensorRTSparse;
const core::CostModel kModeledCosts;
}  // namespace

/// The request's one window slot, shared between the Channel and the queue.
/// The engine thread writes the window before queuing it and does not touch
/// it again until the result arrives (or ever, once the request is
/// cancelled), so the scheduler reads it unlocked.
struct BatchScheduler::ChannelState {
  std::uint64_t request_id = 0;
  CancelToken token;

  std::size_t rows = 0;
  std::uint64_t global_index = 0;
  std::vector<std::int32_t> window;  // rows * kNumFeatures

  // The result slot, under `mu`.
  std::mutex mu;
  std::condition_variable cv;
  bool ready = false;
  core::LatencyPrediction result;
  std::string error;  // non-empty: the batch's inference failed

  // Guarded by the scheduler's mu_, not by `mu`.
  bool queued = false;  // the window is in queue_
  bool open = true;     // false once the Channel is released
};

BatchScheduler::BatchScheduler(core::LatencyPredictor& predictor,
                               BatcherOptions opts)
    : predictor_(predictor), opts_(opts) {
  check(opts_.max_batch > 0, "max_batch must be > 0");
  check(opts_.queue_capacity > 0, "batcher queue capacity must be > 0");
  thread_ = std::thread([this] { scheduler_loop(); });
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
  if (thread_.joinable()) thread_.join();
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

BatchScheduler::Batch BatchScheduler::take_batch_locked() {
  Batch batch;
  batch.reserve(std::min(queue_.size(), opts_.max_batch));
  const std::size_t rows = queue_.front()->rows;
  // One batch carries one window shape; differently-shaped windows keep
  // their queue position for the next flush.
  std::deque<std::shared_ptr<ChannelState>> rest;
  while (!queue_.empty() && batch.size() < opts_.max_batch) {
    std::shared_ptr<ChannelState> st = std::move(queue_.front());
    queue_.pop_front();
    if (st->rows == rows) {
      st->queued = false;
      if (st->open) --waiting_channels_;
      batch.push_back(std::move(st));
    } else {
      rest.push_back(std::move(st));
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

void BatchScheduler::scheduler_loop() {
  std::unique_lock lk(mu_);
  for (;;) {
    cv_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping and drained
    // Hold the first window at most max_wait hoping for companions. Flush
    // at once when max_batch are queued, or when every open channel has its
    // window queued: a channel blocks on its one window, so no further
    // window can arrive before this flush.
    const auto all_waiting = [&] {
      return waiting_channels_ == open_channels_;
    };
    if (!stopping_ && opts_.max_wait.count() > 0 &&
        queue_.size() < opts_.max_batch) {
      cv_.wait_until(lk, Clock::now() + opts_.max_wait, [&] {
        return stopping_ || queue_.size() >= opts_.max_batch || all_waiting();
      });
    }
    const bool complete = all_waiting();
    Batch batch = take_batch_locked();
    const char* reason = batch.size() >= opts_.max_batch
                             ? obs::names::kBatchFlushSize
                         : stopping_ ? obs::names::kBatchFlushShutdown
                         : complete  ? obs::names::kBatchFlushAllWaiting
                                     : obs::names::kBatchFlushDeadline;
    lk.unlock();
    flush(std::move(batch), reason);
    lk.lock();
  }
}

void BatchScheduler::flush(Batch batch, const char* reason_counter) {
  // Windows of cancelled requests are dropped, never predicted; their
  // callers observe the CancelToken, so a wake-up is all they need.
  Batch live;
  live.reserve(batch.size());
  std::uint64_t dropped = 0;
  for (auto& st : batch) {
    if (st->token.cancelled()) {
      ++dropped;
      st->cv.notify_all();
    } else {
      live.push_back(std::move(st));
    }
  }

  double batched_us = 0.0, unbatched_us = 0.0;
  if (!live.empty()) {
    const std::size_t n = live.size();
    const std::size_t rows = live.front()->rows;
    const std::size_t stride = rows * trace::kNumFeatures;
    std::vector<std::int32_t> windows(n * stride);
    std::vector<std::uint64_t> indices(n);
    for (std::size_t k = 0; k < n; ++k) {
      std::copy(live[k]->window.begin(), live[k]->window.end(),
                windows.begin() + static_cast<std::ptrdiff_t>(k * stride));
      indices[k] = live[k]->global_index;
    }
    std::vector<core::LatencyPrediction> preds(n);
    std::string error;
    try {
      predictor_.predict_batch(windows.data(), n, rows, indices.data(),
                               preds.data());
    } catch (const std::exception& e) {
      error = e.what();
    } catch (...) {
      error = "unknown predictor error";
    }
    for (std::size_t k = 0; k < n; ++k) {
      ChannelState& st = *live[k];
      {
        std::lock_guard slk(st.mu);
        st.result = preds[k];
        st.error = error;
        st.ready = true;
      }
      st.cv.notify_all();
      obs::flight::record(st.request_id, obs::flight::Event::kBatchFlushed, n);
    }

    std::size_t flops = predictor_.flops_per_window(rows);
    if (flops == 0) flops = core::simnet3c2f_flops(rows);
    batched_us = kModeledCosts.inference_us(kModeledEngine, flops, n,
                                            /*custom_conv=*/false, 1.0);
    unbatched_us = static_cast<double>(n) *
                   kModeledCosts.inference_us(kModeledEngine, flops, 1,
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
    // A window it left queued no longer counts: it stays in queue_ until a
    // flush takes it, but this channel will never queue again.
    if (state_->queued) --s.waiting_channels_;
    state_->open = false;
  }
  s.cv_.notify_all();
}

core::LatencyPrediction BatchScheduler::Channel::predict(
    const core::WindowView& window, std::uint64_t global_index) {
  // Before touching the slot: a cancelled request's last window may still
  // be queued, and the scheduler may be reading it.
  state_->token.check();
  ChannelState& st = *state_;
  st.rows = window.rows;
  st.global_index = global_index;
  st.window.assign(window.data,
                   window.data + window.rows * trace::kNumFeatures);
  return submit_and_wait();
}

core::LatencyPrediction BatchScheduler::Channel::predict_lazy(
    const core::LazyWindow& window) {
  state_->token.check();  // before touching the slot, as in predict()
  ChannelState& st = *state_;
  st.rows = window.rows();
  st.global_index = window.current_index();
  window.materialize(st.window);
  return submit_and_wait();
}

std::size_t BatchScheduler::Channel::flops_per_window(std::size_t rows) const {
  return scheduler_->predictor_.flops_per_window(rows);
}

device::Engine BatchScheduler::Channel::engine() const {
  return scheduler_->predictor_.engine();
}

core::LatencyPrediction BatchScheduler::Channel::submit_and_wait() {
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
    s.queue_.push_back(state_);
    state_->queued = true;
    ++s.waiting_channels_;
    ++s.stats_.items_submitted;
    MLSIM_GAUGE_SET(obs::names::kBatchQueueDepth,
                    static_cast<double>(s.queue_.size()));
  }
  s.cv_.notify_one();

  ChannelState& st = *state_;
  std::unique_lock lk(st.mu);
  for (;;) {
    if (st.ready) {
      st.ready = false;
      if (!st.error.empty()) {
        throw CheckError("batched inference failed: " + st.error);
      }
      return st.result;
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
