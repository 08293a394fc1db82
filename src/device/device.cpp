#include "device/device.h"

#include <algorithm>

namespace mlsim::device {

Device::Device(GpuSpec spec) : spec_(std::move(spec)) {
  streams_.push_back(0.0);  // default stream 0
}

StreamId Device::create_stream() {
  streams_.push_back(synchronize());
  return streams_.size() - 1;
}

double Device::copy_h2d(std::size_t bytes, StreamId stream) {
  check_index(stream, streams_.size(), "stream id");
  streams_[stream] += spec_.h2d_time_us(bytes);
  return streams_[stream];
}

double Device::launch(StreamId stream, std::size_t bytes_moved, std::size_t flops) {
  check_index(stream, streams_.size(), "stream id");
  streams_[stream] += spec_.kernel_time_us(bytes_moved, flops);
  return streams_[stream];
}

double Device::advance(StreamId stream, double cost_us) {
  check_index(stream, streams_.size(), "stream id");
  check(cost_us >= 0.0, "cost must be non-negative");
  streams_[stream] += cost_us;
  return streams_[stream];
}

double Device::record(StreamId stream) const {
  check_index(stream, streams_.size(), "stream id");
  return streams_[stream];
}

void Device::wait(StreamId stream, double event_us) {
  check_index(stream, streams_.size(), "stream id");
  streams_[stream] = std::max(streams_[stream], event_us);
}

double Device::synchronize() const {
  return *std::max_element(streams_.begin(), streams_.end());
}

void Device::reset_time() {
  std::fill(streams_.begin(), streams_.end(), 0.0);
}

}  // namespace mlsim::device
