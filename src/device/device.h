// Simulated GPU device: streams, events, async copies, kernels.
//
// Execution model: kernels run immediately on the host (their results are
// real and unit-tested for bit-exactness), while each stream carries a
// simulated-time cursor advanced by the GpuSpec cost model. Async semantics
// — copy/compute overlap, double buffering, multi-stream pipelines — are
// reproduced exactly in simulated time: an operation on stream S starts at
// max(S.cursor, dependencies) and finishes start + cost.
#pragma once

#include <cstdint>
#include <functional>
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

  /// Async H2D copy of `bytes` from `src` to `dst` on `stream`; performs the
  /// real memcpy now, advances the stream cursor by the modeled time.
  /// Returns the completion timestamp (µs).
  double copy_h2d(void* dst, const void* src, std::size_t bytes, StreamId stream);

  /// Launch a kernel: `fn` executes immediately; the stream cursor advances
  /// by the modeled kernel time for (bytes_moved, flops).
  double launch(StreamId stream, std::size_t bytes_moved, std::size_t flops,
                const std::function<void()>& fn, bool fp16 = false);

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
