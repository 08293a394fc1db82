#include "core/streaming.h"

#include <algorithm>

#include "common/check.h"
#include "obs/obs.h"

namespace mlsim::core {

StreamingResult simulate_stream(LatencyPredictor& predictor,
                                uarch::LabeledTraceStream& stream,
                                std::uint64_t total_instructions,
                                std::size_t context_length,
                                std::size_t chunk_size) {
  check(context_length > 0, "context length must be positive");
  check(chunk_size > 0, "chunk size must be positive");
  StreamingResult res;
  if (total_instructions == 0) return res;

  const std::size_t rows = context_length + 1;
  const std::size_t cap = context_length;
  std::vector<std::uint64_t> ring(cap, 0);
  std::uint64_t clock = 0;

  trace::EncodedTrace buf(stream.benchmark());
  std::size_t local = 0;      // next buffer row to simulate
  std::uint64_t dropped = 0;  // rows compacted away: buffer row 0's index

  MLSIM_TRACE_SPAN("stream/run");
  while (res.instructions < total_instructions) {
    const std::size_t want = static_cast<std::size_t>(std::min<std::uint64_t>(
        chunk_size, total_instructions - res.instructions));
    {
      MLSIM_TRACE_SPAN("stream/fill");
      MLSIM_HIST_TIMER(obs::names::kStreamFillNs);
      stream.fill(buf, want);
    }
    MLSIM_GAUGE_SET(obs::names::kStreamRowsResident,
                    static_cast<double>(buf.size()));

    {
      MLSIM_TRACE_SPAN("stream/predict");
      MLSIM_HIST_TIMER(obs::names::kStreamPredictNs);
      for (; local < buf.size(); ++local) {
        const LazyWindow lw(buf, local, /*oldest=*/0, ring.data(), cap, clock,
                            rows, dropped);
        const LatencyPrediction p = predictor.predict_lazy(lw);
        ring[local % cap] = clock + p.fetch + p.exec + p.store;
        clock += p.fetch;
        res.predicted_cycles += p.fetch;
        res.truth_cycles += buf.targets(local)[0];
        ++res.instructions;
      }
    }
    MLSIM_COUNTER_ADD(obs::names::kStreamChunks, 1);

    // Compact: keep at least the context window; drop a multiple of the
    // ring capacity so (index % cap) stays aligned across the shift.
    if (buf.size() > context_length) {
      const std::size_t drop =
          (buf.size() - context_length) / cap * cap;
      if (drop > 0) {
        buf = buf.slice(drop, buf.size());
        local -= drop;
        dropped += drop;
        MLSIM_GAUGE_SET(obs::names::kStreamRowsResident,
                        static_cast<double>(buf.size()));
      }
    }
  }
  MLSIM_COUNTER_ADD(obs::names::kStreamInstructions, res.instructions);
  return res;
}

}  // namespace mlsim::core
