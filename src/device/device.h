// Simulated GPU device: streams, events, async copies, kernels.
//
// A cost model only: copies and kernels move no data and run no code. Each
// stream carries a simulated-time cursor advanced by the GpuSpec cost model.
// Async semantics — copy/compute overlap, double buffering, multi-stream
// pipelines — are reproduced exactly in simulated time: an operation on
// stream S starts at max(S.cursor, dependencies) and finishes start + cost.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "device/gpu_spec.h"

namespace mlsim::device {

using StreamId = std::size_t;

class Device {
 public:
  explicit Device(GpuSpec spec = GpuSpec::a100());

  const GpuSpec& spec() const { return spec_; }

  StreamId create_stream();

  /// Async H2D copy of `bytes` on `stream`: advances the stream cursor by
  /// the modeled transfer time. Returns the completion timestamp (µs).
  double copy_h2d(std::size_t bytes, StreamId stream);

  /// Kernel launch on `stream`: advances the stream cursor by the modeled
  /// kernel time for (bytes_moved, flops). Returns the completion timestamp.
  double launch(StreamId stream, std::size_t bytes_moved, std::size_t flops);

  /// Advance a stream by an explicit cost (for composite modeled steps).
  double advance(StreamId stream, double cost_us);

  /// Event timestamp of the last operation on `stream`.
  double record(StreamId stream) const;

  /// Make `stream` wait for an event timestamp (cudaStreamWaitEvent).
  void wait(StreamId stream, double event_us);

  /// Device-wide synchronisation point: max cursor across streams.
  double synchronize() const;

  /// Reset all stream cursors to zero (new measurement window).
  void reset_time();

 private:
  GpuSpec spec_;
  std::vector<double> streams_;  // per-stream simulated-time cursor (µs)
};

}  // namespace mlsim::device
