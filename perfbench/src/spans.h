// In-memory span recorder of the traced run. A span is one call into a
// layer's public function: name, start, end, the span open around it on the
// same thread (its parent), and the id of the op it belongs to. Spans are
// kept in memory and written out as Chrome trace JSON when the run ends.
// While disabled, begin/end cost one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Spans {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  void enable(bool on) { on_ = on; }
  bool on() const { return on_; }

  /// Open a span under the innermost span open on this thread.
  std::size_t begin(const char* name, std::uint64_t op);
  void end(std::size_t id);
  /// Record a finished interval that does not nest on this thread (a
  /// request overlapping others); it has no parent.
  void record(const char* name, std::uint64_t op,
              std::chrono::steady_clock::time_point start,
              std::chrono::steady_clock::time_point end);

  /// Summed duration of every closed span named `name`.
  std::uint64_t total_ns(const std::string& name) const;

  /// Chrome trace JSON (the format `mlsim_cli --trace-out` emits).
  bool write_chrome(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    std::uint64_t op;
    std::size_t parent;
    std::chrono::steady_clock::time_point start, end;
    std::uint32_t tid;
  };
  bool on_ = false;
  mutable std::mutex mu_;
  std::vector<Record> records_;
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
};

/// RAII span; a no-op when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Spans& spans, const char* name, std::uint64_t op)
      : spans_(spans), id_(spans.on() ? spans.begin(name, op) : Spans::kNone) {}
  ~ScopedSpan() {
    if (id_ != Spans::kNone) spans_.end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Spans& spans_;
  std::size_t id_;
};

}  // namespace perfbench
