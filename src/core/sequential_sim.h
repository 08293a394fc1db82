// Sequential SimNet-style simulator (the Fig. 1 reference workflow).
//
// Walks the encoded trace one instruction at a time through the reference
// InstructionQueue, invoking a LatencyPredictor per instruction, and
// accounts the simulated time of every step of the naive flow — the four
// redundant copies the paper's optimisations remove:
//   copy 1: trace row -> instruction queue          (host)
//   copy 2: queue -> concatenated/padded input       (host)
//   copy 3: input -> GPU                             (H2D)
//   copy 4: transpose on the GPU                     (device kernel)
// plus inference and update/retire.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/cancellation.h"
#include "core/cost_model.h"
#include "core/instruction_queue.h"
#include "core/predictor.h"
#include "core/sim_output.h"
#include "trace/trace.h"

namespace mlsim::core {

struct SequentialSimOptions {
  std::size_t context_length = kDefaultContextLength;
  bool record_predictions = false;
  bool record_context_counts = false;
  /// The unoptimised baseline runs LibTorch inference (paper §III).
  device::Engine engine = device::Engine::kLibTorch;
  CostModel costs;
  /// Cooperative cancellation: polled once per instruction; a cancelled or
  /// past-deadline run throws CancelledError. nullptr = never cancelled.
  const CancelToken* cancel = nullptr;
};

class SequentialSimulator {
 public:
  SequentialSimulator(LatencyPredictor& predictor, SequentialSimOptions opts = {});

  /// Simulate trace rows [begin, end); pass end = 0 for the whole trace.
  SimOutput run(const trace::EncodedTrace& trace, std::size_t begin = 0,
                std::size_t end = 0);

 private:
  LatencyPredictor& predictor_;
  SequentialSimOptions opts_;
};

}  // namespace mlsim::core
