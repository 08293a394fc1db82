#include "core/predictor.h"

#include <algorithm>

#include "common/check.h"

namespace mlsim::core {

LazyWindow::LazyWindow(const trace::EncodedTrace& tr, std::uint64_t current,
                       std::uint64_t oldest, const std::uint64_t* retire_ring,
                       std::size_t ring_capacity, std::uint64_t clock,
                       std::size_t rows, std::uint64_t first_index)
    : trace_(tr),
      current_(current),
      first_index_(first_index),
      ring_(retire_ring),
      ring_cap_(ring_capacity),
      slot_(ring_capacity != 0 ? current % ring_capacity : 0),
      history_(std::min<std::uint64_t>(rows - 1,
                                       current > oldest ? current - oldest : 0)),
      clock_(clock),
      rows_(rows) {
  check(ring_capacity >= rows - 1, "retire ring smaller than context length");
  check(current < tr.size(), "current index out of trace bounds");
}

void LazyWindow::materialize(std::vector<std::int32_t>& out) const {
  out.resize(rows_ * trace::kNumFeatures);
  materialize_to(out.data());
}

void LazyWindow::materialize_to(std::int32_t* out) const {
  std::fill(out, out + rows_ * trace::kNumFeatures, 0);
  const auto cur = features(0);
  std::copy(cur.begin(), cur.end(), out);
  for (std::size_t r = 1; r < rows_; ++r) {
    const std::int32_t rem = remaining(r);
    if (rem > 0) {
      auto* dst = out + r * trace::kNumFeatures;
      const auto row = features(r);
      std::copy(row.begin(), row.end(), dst);
      dst[kCtxLatFeature] = rem;
    }
  }
}

std::size_t LazyWindow::context_count() const {
  // Rows 1..history_ sit at ring slots slot_-1 down to slot_-history_: the
  // `low` rows above slot 0, then the rest at the top of the ring.
  const std::size_t low = std::min(history_, slot_);
  std::size_t n = 0;
  for (const std::uint64_t* p = ring_ + slot_ - low; p != ring_ + slot_; ++p) {
    n += *p > clock_;
  }
  for (const std::uint64_t* p = ring_ + ring_cap_ - (history_ - low);
       p != ring_ + ring_cap_; ++p) {
    n += *p > clock_;
  }
  return n;
}

LatencyPrediction LatencyPredictor::predict_lazy(const LazyWindow& window) {
  std::vector<std::int32_t> buf;
  window.materialize(buf);
  return predict(WindowView{buf.data(), window.rows()}, window.current_index());
}

void LatencyPredictor::predict_batch(const std::int32_t* windows, std::size_t batch,
                                     std::size_t rows,
                                     const std::uint64_t* global_indices,
                                     LatencyPrediction* out) {
  for (std::size_t b = 0; b < batch; ++b) {
    WindowView w{windows + b * rows * trace::kNumFeatures, rows};
    out[b] = predict(w, global_indices != nullptr ? global_indices[b] : 0);
  }
}

OraclePredictor::OraclePredictor(const trace::EncodedTrace& labeled)
    : trace_(labeled) {
  check(labeled.labeled(), "OraclePredictor requires a labeled trace");
}

LatencyPrediction OraclePredictor::predict(const WindowView& /*window*/,
                                           std::uint64_t global_index) {
  const auto t = trace_.targets(global_index);
  return {t[0], t[1], t[2]};
}

}  // namespace mlsim::core
