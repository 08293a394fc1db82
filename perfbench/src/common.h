// Shared pieces of the host-time benchmark: arguments, seeded input
// generation, op/phase bookkeeping, the correctness gate, the predictor
// timing decorator and the staged trace generator.
//
// Every time here is host wall-clock (std::chrono::steady_clock) unless its
// name or unit says "modeled".
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/predictor.h"
#include "spans.h"
#include "trace/trace.h"
#include "uarch/config.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Chrome trace JSON of the traced run (empty = not written).
  std::string trace_out;
  /// Input-size multiplier; the self-test runs every workload at a small one.
  double scale = 1.0;
  /// Self-test only: offset every reference cycle total by one, so the
  /// correctness gate must reject every op.
  bool corrupt_reference = false;
};

/// Set-up runs from scratch at least kSetupRuns times and for at least
/// kSetupSeconds in total; setup_s is the median.
inline constexpr std::size_t kSetupRuns = 3;
inline constexpr double kSetupSeconds = 1.0;

/// The timed phase holds whole passes and is cut into at most kSlices
/// consecutive slices of whole passes; host_kips is the median over the
/// slices, so a burst of host contention in part of a run moves it less.
inline constexpr std::size_t kSlices = 5;

/// Deterministic generator for workload inputs (splitmix64): the same seed
/// gives the same traces, lattices, request mixes and repeat patterns on
/// every platform.
class SeededRng {
 public:
  explicit SeededRng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t s_;
};

/// Size of input i of n, evenly spaced over [lo, hi].
std::size_t spread_size(std::size_t i, std::size_t n, std::size_t lo, std::size_t hi);

/// Trace seed of corpus entry i. Trace content is a fixed corpus, the same
/// for every workload seed, so CPI error and per-instruction costs compare
/// across seeds; the workload seed drives op order, engine and tenant
/// pairing, lattice order and repeat patterns.
inline std::uint64_t corpus_seed(std::size_t i) { return 1 + i; }

/// Scaled input size, never below `floor`.
std::size_t scaled(std::size_t n, double scale, std::size_t floor = 64);

/// What one simulation op produced. `cycles` is the value the correctness
/// gate compares bit-exactly.
struct OpResult {
  std::uint64_t cycles = 0;
  std::size_t instructions = 0;
  double cpi = 0.0;
  double modeled_us = 0.0;  // device cost model, not host time
  bool ok = true;
  std::string error;
  /// Ground-truth (OoO label) CPI of the op's trace; set by references.
  double truth_cpi = 0.0;
};

/// One executed op of a phase.
struct OpRecord {
  std::size_t k = 0;  // global op index
  double latency_ms = 0.0;
  double end_s = 0.0;  // completion, seconds after the phase started
  OpResult out;
};

struct PhaseResult {
  std::vector<OpRecord> ops;
  double wall_s = 0.0;

  std::size_t instructions() const;
  /// Completed simulated instructions per host second / 1000.
  double kips() const;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything a workload reports; main() prints it.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& line) { notes.push_back(line); }
};

/// A workload: distinct ops repeat in passes of pass_length() ops. Op k's
/// identity (for references and the CPI-error set) is distinct_key(k).
class Workload {
 public:
  virtual ~Workload() = default;

  /// Generate inputs and start whatever the timed phase needs. Called
  /// several times (see kSetupRuns); each call starts from scratch and the
  /// last one is kept. `traced` builds inputs through the staged generator.
  virtual void setup(bool traced) = 0;
  virtual std::size_t pass_length() const = 0;
  virtual std::size_t distinct_key(std::size_t k) const { return k % pass_length(); }
  /// Run op k through the program's public API. Workloads that override
  /// run_phase need not implement it.
  virtual OpResult run_op(std::size_t k, bool traced);
  /// Run ops from k0 on until `seconds` have passed and the op count is a
  /// multiple of `granularity`, or exactly `max_ops` ops when non-zero.
  /// The default runs run_op back to back on the calling thread.
  virtual PhaseResult run_phase(std::size_t k0, double seconds,
                                std::size_t granularity, std::size_t max_ops,
                                bool traced);
  /// The same op through an independent public engine, outside any timed
  /// phase, with its trace's ground-truth CPI.
  virtual OpResult reference(std::size_t k) = 0;
  /// Per-layer metrics of the traced run: `untraced` is its first half with
  /// spans off, `traced` the same number of ops with spans on. Called right
  /// after the traced phase with spans still on, so side measurements made
  /// here (outside the phase's wall-clock) are recorded as spans.
  virtual void layer_metrics(const PhaseResult& untraced,
                             const PhaseResult& traced, Report& r) = 0;
  /// Stop anything setup() started (services, cluster threads).
  virtual void teardown() {}

  Spans spans;
  /// Correctness failures found during setup (each counts as a failed op).
  std::vector<std::string> setup_failures;
};

/// Runs a workload per Args and returns its report.
Report run_workload(Workload& w, const Args& a);

/// Binds the calling thread, and every thread it starts later, to the first
/// CPU this process may use, and keeps that CPU busy with an idle-priority
/// (SCHED_IDLE) thread for the object's lifetime; any other runnable thread
/// preempts it at once. The service and cluster workloads hand each op
/// between threads that sleep in between. Spread over the guest's CPUs,
/// every hand-off and timer wake-up would wait for the host to run an idle
/// virtual CPU again, and the timed metrics would follow the load of the
/// host's other guests from run to run (README, "Steadiness"). Throws when
/// either the binding or the priority cannot be set.
class CpuPin {
 public:
  CpuPin();
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

  int cpu() const { return cpu_; }

 private:
  int cpu_ = -1;
  std::atomic<int> spinner_state_{0};  // 0 starting, 1 spinning, 2 failed
  std::atomic<bool> stop_{false};
  std::thread spinner_;
};

/// Cuts a phase of whole passes, starting at op 0, into at most kSlices
/// consecutive slices of whole passes and returns each slice's completed
/// simulated instructions per host second / 1000. A slice runs from the
/// last completion of the slice before it to its own last completion.
std::vector<double> slice_kips(const PhaseResult& p, std::size_t pass_length);

/// Linear-interpolated percentile (p in [0,100]) of unsorted samples.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/// Peak resident set size of this process (VmHWM), MB.
double peak_rss_mb();

/// CPU time counters of the whole machine (first line of /proc/stat), in
/// clock ticks: the time the hypervisor ran other guests on the guest's
/// CPUs (steal), and all time.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTicks cpu_ticks();

/// Byte-identical encoded traces (features, labels and name).
bool same_trace(const mlsim::trace::EncodedTrace& a,
                const mlsim::trace::EncodedTrace& b);

/// Ground-truth CPI of a labeled trace.
double truth_cpi_of(const mlsim::trace::EncodedTrace& tr);

/// Records `total` correctness checks of which `passed` held.
void check_identity(Report& r, std::size_t passed, std::size_t total,
                    const std::string& what);

// ---- predictor decorator ----------------------------------------------------

/// Times every call into a wrapped LatencyPredictor. Lazy windows are
/// materialised here, exactly as LatencyPredictor::predict_lazy's default
/// does, so the window copy and the forward pass are timed apart; a
/// predictor with its own lazy path (analytic) keeps it. Counters are
/// atomic so a batch scheduler thread may call while another thread reads.
class TimedPredictor final : public mlsim::core::LatencyPredictor {
 public:
  /// `own_lazy`: the inner predictor overrides predict_lazy itself.
  TimedPredictor(mlsim::core::LatencyPredictor& inner, bool own_lazy);

  mlsim::core::LatencyPrediction predict(const mlsim::core::WindowView& window,
                                         std::uint64_t global_index) override;
  void predict_batch(const std::int32_t* windows, std::size_t batch,
                     std::size_t rows, const std::uint64_t* global_indices,
                     mlsim::core::LatencyPrediction* out) override;
  mlsim::core::LatencyPrediction predict_lazy(
      const mlsim::core::LazyWindow& window) override;
  std::size_t flops_per_window(std::size_t rows) const override {
    return inner_.flops_per_window(rows);
  }
  mlsim::device::Engine engine() const override { return inner_.engine(); }

  struct Counters {
    std::uint64_t predict_ns = 0;      // inside the inner predictor
    std::uint64_t materialize_ns = 0;  // LazyWindow::materialize
    std::uint64_t call_ns = 0;         // whole decorator calls
    std::uint64_t windows = 0;         // windows predicted
    std::uint64_t materialized = 0;
    std::uint64_t context_rows = 0;    // in-flight context rows (lazy path)
    std::uint64_t window_rows = 0;     // context rows of those lazy windows

    Counters operator-(const Counters& o) const {
      return {predict_ns - o.predict_ns,     materialize_ns - o.materialize_ns,
              call_ns - o.call_ns,           windows - o.windows,
              materialized - o.materialized, context_rows - o.context_rows,
              window_rows - o.window_rows};
    }
  };
  Counters counters() const;

 private:
  mlsim::core::LatencyPredictor& inner_;
  bool own_lazy_;
  std::vector<std::int32_t> buf_;
  std::atomic<std::uint64_t> predict_ns_{0}, materialize_ns_{0}, call_ns_{0},
      windows_{0}, materialized_{0}, context_rows_{0}, window_rows_{0};
};

// ---- staged trace generation ------------------------------------------------

/// Simulated structure counters of one generated trace (the Annotator's).
struct UarchCounts {
  std::uint64_t instructions = 0;
  std::uint64_t l1d_misses = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t branch_mispredicts = 0;

  void add(const UarchCounts& o);
};

/// The labeled trace core::labeled_trace builds, produced by driving
/// FunctionalSim → Annotator → OooCore → FeatureEncoder directly in chunks,
/// with a span per stage and chunk when `spans` records. Caches and
/// predictors start empty (cold) exactly as in labeled_trace.
mlsim::trace::EncodedTrace staged_trace(const std::string& abbr, std::size_t n,
                                        const mlsim::uarch::MachineConfig& machine,
                                        std::uint64_t seed, Spans& spans,
                                        std::uint64_t op, UarchCounts* counts);

/// Adds the core.* metrics of engine runs timed through a TimedPredictor:
/// `engine_ns` is the time inside the engine calls, `fingerprint_ns` the
/// time of separate run_fingerprint calls over `fingerprinted`
/// instructions, `instructions` what the engine calls simulated.
void add_core_metrics(const TimedPredictor::Counters& c, std::uint64_t engine_ns,
                      std::uint64_t fingerprint_ns, std::uint64_t fingerprinted,
                      std::uint64_t instructions, Report& r);

/// device.modeled_us_per_inst over a phase's ops (cost model, not host time).
void add_modeled_metric(const PhaseResult& p, Report& r);

/// Nanoseconds between two steady-clock points.
std::uint64_t ns_between(Clock::time_point a, Clock::time_point b);

/// Adds the trace-stage and uarch metrics from the spans and counters of
/// staged_trace calls.
void add_trace_stage_metrics(const Spans& spans, const UarchCounts& counts,
                             Report& r);

/// The labeled traces a workload generates during setup: through
/// core::labeled_trace, or, in the traced run, through staged_trace, whose
/// output check_staged() then compares with labeled_trace byte for byte.
class TraceSet {
 public:
  void clear();
  void add(const std::string& abbr, std::size_t n, std::uint64_t seed, bool staged,
           Spans& spans);
  const mlsim::trace::EncodedTrace& operator[](std::size_t i) const { return traces_[i]; }
  std::size_t size() const { return traces_.size(); }
  /// Trace-stage and uarch metrics of the staged traces, plus the identity
  /// check.
  void report(const Spans& spans, Report& r) const;

 private:
  struct Input {
    std::string abbr;
    std::size_t n;
    std::uint64_t seed;
  };
  std::vector<mlsim::trace::EncodedTrace> traces_;
  std::vector<Input> staged_;
  UarchCounts counts_;
};

}  // namespace perfbench
