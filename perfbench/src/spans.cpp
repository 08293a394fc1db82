#include "spans.h"

#include <fstream>
#include <functional>
#include <thread>

namespace perfbench {

namespace {
// Open spans of the calling thread, innermost last.
thread_local std::vector<std::size_t> t_open;

std::uint32_t thread_tag() {
  return static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffff);
}
}  // namespace

std::size_t Spans::begin(const char* name, std::uint64_t op) {
  const auto now = std::chrono::steady_clock::now();
  const std::size_t parent = t_open.empty() ? kNone : t_open.back();
  std::lock_guard lk(mu_);
  records_.push_back({name, op, parent, now, now, thread_tag()});
  t_open.push_back(records_.size() - 1);
  return records_.size() - 1;
}

void Spans::end(std::size_t id) {
  const auto now = std::chrono::steady_clock::now();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  std::lock_guard lk(mu_);
  records_[id].end = now;
}

void Spans::record(const char* name, std::uint64_t op,
                   std::chrono::steady_clock::time_point start,
                   std::chrono::steady_clock::time_point end) {
  std::lock_guard lk(mu_);
  records_.push_back({name, op, kNone, start, end, thread_tag()});
}

std::uint64_t Spans::total_ns(const std::string& name) const {
  std::lock_guard lk(mu_);
  std::uint64_t ns = 0;
  for (const Record& r : records_) {
    if (name != r.name) continue;
    ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(r.end - r.start)
            .count());
  }
  return ns;
}

bool Spans::write_chrome(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os.precision(15);
  const auto us = [this](std::chrono::steady_clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  };
  std::lock_guard lk(mu_);
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (i != 0) os << ",\n";
    os << "{\"name\":\"" << r.name << "\",\"ph\":\"X\",\"ts\":" << us(r.start)
       << ",\"dur\":" << us(r.end) - us(r.start) << ",\"pid\":1,\"tid\":"
       << r.tid << ",\"args\":{\"span\":" << i << ",\"op\":" << r.op
       << ",\"parent\":";
    if (r.parent == kNone) {
      os << "null";
    } else {
      os << r.parent;
    }
    os << "}}";
  }
  os << "],\"displayTimeUnit\":\"ns\"}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
