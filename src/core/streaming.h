// Streaming simulation: run the ML simulator over a LabeledTraceStream with
// bounded memory (one chunk of trace rows + the context window), so
// arbitrarily long programs can be simulated — the regime of the paper's
// 10-100 billion-instruction scalability runs.
#pragma once

#include <cstdint>

#include "core/predictor.h"
#include "core/window.h"
#include "uarch/ground_truth.h"

namespace mlsim::core {

struct StreamingResult {
  std::uint64_t predicted_cycles = 0;   // sum of predicted fetch latencies
  std::uint64_t truth_cycles = 0;       // sum of ground-truth fetch latencies
  std::uint64_t instructions = 0;

  double cpi() const {
    return instructions ? static_cast<double>(predicted_cycles) /
                              static_cast<double>(instructions)
                        : 0.0;
  }
  double truth_cpi() const {
    return instructions ? static_cast<double>(truth_cycles) /
                              static_cast<double>(instructions)
                        : 0.0;
  }
};

/// Simulate `total_instructions` from the stream sequentially. Holds at
/// most `chunk_size` + context_length trace rows in memory at any time and
/// produces exactly the same predictions as materialising the whole trace.
StreamingResult simulate_stream(LatencyPredictor& predictor,
                                uarch::LabeledTraceStream& stream,
                                std::uint64_t total_instructions,
                                std::size_t context_length,
                                std::size_t chunk_size = 1 << 16);

}  // namespace mlsim::core
