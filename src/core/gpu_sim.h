// Single-device GPU-optimised simulator (paper §IV).
//
// Functionally identical to SequentialSimulator (same windows, same
// predictions, same Clock — asserted by tests); what changes with the
// option toggles is *where* each step runs and how much simulated time it
// costs:
//   gpu_input_construction (GIC) — window construction as a device kernel;
//     only the new instruction row crosses the PCIe/NVLink link.
//   sliding_window (SWIQ)        — the window is a view into the resident
//     queue; batch-of-N staging amortises copies; no gather kernel. The
//     queue's moves are charged, not executed: each window is a LazyWindow
//     over the trace and a retire ring, the rows the queue would hold.
//   custom_conv (CC)             — first conv consumes the queue in place:
//     no transpose, padded columns skipped.
//   engine (OI)                  — LibTorch / TensorRT / +fp16 / +2:4.
//   pipelined (PS)               — double-buffered copy/compute overlap.
#pragma once

#include <memory>

#include "core/cost_model.h"
#include "core/predictor.h"
#include "core/sim_output.h"
#include "device/device.h"
#include "trace/trace.h"

namespace mlsim::core {

struct GpuSimOptions {
  std::size_t context_length = kDefaultContextLength;
  std::size_t batch_n = 10;  // paper's sweet spot (Fig. 12/15)
  bool gpu_input_construction = true;
  bool sliding_window = true;
  bool custom_conv = true;
  device::Engine engine = device::Engine::kTensorRTSparse;
  bool pipelined = true;
  bool record_predictions = false;
  bool record_context_counts = false;
  CostModel costs;
};

class GpuSimulator {
 public:
  GpuSimulator(LatencyPredictor& predictor, device::Device& dev,
               GpuSimOptions opts = {});

  /// Simulate trace rows [begin, end); end = 0 means the whole trace.
  SimOutput run(const trace::EncodedTrace& trace, std::size_t begin = 0,
                std::size_t end = 0);

 private:
  LatencyPredictor& predictor_;
  device::Device& dev_;
  GpuSimOptions opts_;
};

}  // namespace mlsim::core
