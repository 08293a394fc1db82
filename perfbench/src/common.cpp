#include "common.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/metrics.h"
#include "core/simulator.h"
#include "trace/encoder.h"
#include "trace/functional_sim.h"
#include "trace/program.h"
#include "trace/workload.h"
#include "uarch/ground_truth.h"
#include "uarch/ooo_core.h"

namespace perfbench {

namespace mc = mlsim::core;

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

std::uint64_t SeededRng::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::size_t spread_size(std::size_t i, std::size_t n, std::size_t lo, std::size_t hi) {
  return n > 1 ? lo + (hi - lo) * i / (n - 1) : lo;
}

std::size_t scaled(std::size_t n, double scale, std::size_t floor) {
  return std::max(floor, static_cast<std::size_t>(static_cast<double>(n) * scale));
}

std::size_t PhaseResult::instructions() const {
  std::size_t n = 0;
  for (const OpRecord& op : ops) {
    if (op.out.ok) n += op.out.instructions;
  }
  return n;
}

double PhaseResult::kips() const {
  return wall_s > 0.0 ? static_cast<double>(instructions()) / wall_s / 1000.0
                      : 0.0;
}

std::vector<double> slice_kips(const PhaseResult& p, std::size_t pass_length) {
  const std::size_t passes = p.ops.size() / pass_length;
  const std::size_t n = std::min(kSlices, passes);
  std::vector<double> end(n, 0.0), inst(n, 0.0);
  for (const OpRecord& op : p.ops) {
    const std::size_t j = op.k / pass_length * n / passes;
    end[j] = std::max(end[j], op.end_s);
    if (op.out.ok) inst[j] += static_cast<double>(op.out.instructions);
  }
  std::vector<double> kips(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double wall = end[j] - (j == 0 ? 0.0 : end[j - 1]);
    kips[j] = wall > 0.0 ? inst[j] / wall / 1000.0 : 0.0;
  }
  return kips;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double peak_rss_mb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ls(line.substr(6));
      double kb = 0.0;
      ls >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

CpuTicks cpu_ticks() {
  std::ifstream is("/proc/stat");
  std::string cpu;
  is >> cpu;
  CpuTicks t;
  std::uint64_t v = 0;
  for (int field = 0; field < 8 && is >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

bool same_trace(const mlsim::trace::EncodedTrace& a,
                const mlsim::trace::EncodedTrace& b) {
  return a.benchmark() == b.benchmark() && a.size() == b.size() &&
         a.raw_features() == b.raw_features() &&
         a.raw_targets() == b.raw_targets();
}

double truth_cpi_of(const mlsim::trace::EncodedTrace& tr) {
  return static_cast<double>(mc::total_cycles_from_targets(tr)) /
         static_cast<double>(tr.size());
}

void check_identity(Report& r, std::size_t passed, std::size_t total,
                    const std::string& what) {
  r.attempted += total;
  r.failed += total - passed;
  std::ostringstream os;
  os << (passed == total ? "ok: " : "FAIL: ") << what << ": " << passed << " of "
     << total << " identical";
  r.note(os.str());
}

// ---- phases and the correctness gate ---------------------------------------

OpResult Workload::run_op(std::size_t /*k*/, bool /*traced*/) {
  throw std::logic_error("workload runs its ops in run_phase");
}

PhaseResult Workload::run_phase(std::size_t k0, double seconds,
                                std::size_t granularity, std::size_t max_ops,
                                bool traced) {
  PhaseResult p;
  const auto t0 = Clock::now();
  for (std::size_t k = k0;; ++k) {
    const std::size_t done = k - k0;
    if (max_ops != 0 ? done >= max_ops
                     : done > 0 && done % granularity == 0 &&
                           seconds_between(t0, Clock::now()) >= seconds) {
      break;
    }
    ScopedSpan span(spans, "op", k);
    OpRecord rec;
    rec.k = k;
    const auto s = Clock::now();
    try {
      rec.out = run_op(k, traced);
    } catch (const std::exception& e) {
      rec.out.ok = false;
      rec.out.error = e.what();
    }
    const auto e = Clock::now();
    rec.latency_ms = seconds_between(s, e) * 1e3;
    rec.end_s = seconds_between(t0, e);
    p.ops.push_back(std::move(rec));
  }
  p.wall_s = seconds_between(t0, Clock::now());
  return p;
}

Report run_workload(Workload& w, const Args& a) {
  Report r;
  std::vector<double> setup_times;
  double setup_total = 0.0;
  while (setup_times.size() < kSetupRuns || setup_total < kSetupSeconds) {
    if (!setup_times.empty()) w.teardown();
    const auto t0 = Clock::now();
    w.setup(false);
    setup_times.push_back(seconds_between(t0, Clock::now()));
    setup_total += setup_times.back();
  }
  if (a.trace) {
    // One more, untimed, with spans: its staged inputs are the ones measured.
    w.teardown();
    w.spans.enable(true);
    w.setup(true);
    w.spans.enable(false);
  }

  // Timed phase with tracing off, over whole passes. The traced run runs it
  // for half the time, then as many ops again with spans on.
  const CpuTicks ticks0 = cpu_ticks();
  PhaseResult timed =
      w.run_phase(0, a.trace ? a.seconds / 2.0 : a.seconds, w.pass_length(), 0, false);
  const CpuTicks ticks1 = cpu_ticks();
  PhaseResult traced;
  if (a.trace) {
    w.spans.enable(true);
    traced = w.run_phase(timed.ops.size(), 0.0, 1, timed.ops.size(), true);
    // Side measurements (fingerprints, in-process re-runs, codecs) run in
    // layer_metrics, after the traced phase, still under spans.
    w.layer_metrics(timed, traced, r);
    w.spans.enable(false);
    const double overhead =
        timed.kips() > 0.0 ? 1.0 - traced.kips() / timed.kips() : 0.0;
    r.add("bench.trace_overhead_frac", overhead, "ratio");
  }
  // Peak memory of set-up and the timed phases, before the references.
  const double rss_mb = peak_rss_mb();

  // Correctness gate: every executed op against a reference computed now,
  // outside the timed phases, through an independent public engine.
  std::map<std::size_t, OpResult> refs;
  const auto ref_of = [&](std::size_t k) -> const OpResult& {
    const std::size_t key = w.distinct_key(k);
    auto it = refs.find(key);
    if (it == refs.end()) {
      OpResult ref = w.reference(k);
      if (a.corrupt_reference) ref.cycles += 1;
      it = refs.emplace(key, std::move(ref)).first;
    }
    return it->second;
  };
  for (const std::string& f : w.setup_failures) {
    ++r.attempted;
    ++r.failed;
    r.note("FAIL: " + f);
  }
  std::size_t reported = 0;
  for (const PhaseResult* ph : {&timed, &traced}) {
    for (const OpRecord& op : ph->ops) {
      ++r.attempted;
      const OpResult& ref = ref_of(op.k);
      const bool good = op.out.ok && op.out.cycles == ref.cycles &&
                        op.out.instructions == ref.instructions;
      if (good) continue;
      ++r.failed;
      if (reported++ < 5) {
        std::ostringstream os;
        os << "MISMATCH op " << op.k << ": "
           << (op.out.ok ? "" : "error '" + op.out.error + "' ") << "cycles "
           << op.out.cycles << " vs reference " << ref.cycles
           << ", instructions " << op.out.instructions << " vs "
           << ref.instructions;
        r.note(os.str());
      }
    }
  }

  // CPI error over the distinct ops of one pass, from the (gate-checked)
  // reference results: independent of how many ops the timed phase ran.
  double err_sum = 0.0;
  std::size_t distinct = 0;
  std::set<std::size_t> seen;
  for (std::size_t k = 0; k < w.pass_length(); ++k) {
    if (!seen.insert(w.distinct_key(k)).second) continue;
    const OpResult& ref = ref_of(k);
    err_sum += std::fabs(ref.cpi - ref.truth_cpi) / ref.truth_cpi * 100.0;
    ++distinct;
  }

  std::vector<double> lat;
  for (const OpRecord& op : timed.ops) lat.push_back(op.latency_ms);
  const std::vector<double> kips = slice_kips(timed, w.pass_length());
  std::ostringstream slices;
  slices << "kinst/s of the timed phase's slices:";
  for (const double k : kips) slices << ' ' << k;
  r.note(slices.str());
  r.add("setup_s", median(setup_times), "s");
  r.add("host_kips", median(kips), "kinst/s");
  r.add("latency_p50_ms", percentile(lat, 50.0), "ms");
  r.add("latency_p90_ms", percentile(lat, 90.0), "ms");
  r.add("cpi_err_pct", err_sum / static_cast<double>(distinct), "%");
  r.add("peak_rss_mb", rss_mb, "MB");
  r.add("failed_frac",
        r.attempted ? static_cast<double>(r.failed) / static_cast<double>(r.attempted)
                    : 0.0,
        "ratio");
  {
    std::ostringstream os;
    os << "timed phase: " << timed.ops.size() << " ops, "
       << timed.instructions() << " simulated instructions in " << timed.wall_s
       << " s host wall-clock (" << timed.kips() << " kinst/s overall; "
       << timed.ops.size() / w.pass_length() << " full passes of "
       << w.pass_length() << " ops); latency samples " << lat.size()
       << " (samples beyond p90: "
       << lat.size() - static_cast<std::size_t>(0.9 * static_cast<double>(lat.size()))
       << ")";
    r.note(os.str());
    // Steal: time the hypervisor gave the run's CPUs to other guests. The
    // timed metrics slow down with it (see README).
    const double total = static_cast<double>(ticks1.total - ticks0.total);
    std::ostringstream st;
    st << "host CPU steal during the timed phase: "
       << (total > 0 ? 100.0 * static_cast<double>(ticks1.steal - ticks0.steal) / total : 0.0)
       << "% of all CPU time";
    r.note(st.str());
    std::ostringstream ss;
    ss << "setup runs (s):";
    for (const double t : setup_times) ss << ' ' << t;
    r.note(ss.str());
  }
  w.teardown();
  if (a.trace && !a.trace_out.empty() && !w.spans.write_chrome(a.trace_out)) {
    r.note("could not write " + a.trace_out);
  }
  return r;
}

// ---- one awake CPU ----------------------------------------------------------

CpuPin::CpuPin() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE && cpu_ < 0; ++c) {
      if (CPU_ISSET(c, &allowed)) cpu_ = c;
    }
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  if (cpu_ >= 0) CPU_SET(cpu_, &one);
  if (cpu_ < 0 || sched_setaffinity(0, sizeof one, &one) != 0) {
    throw std::runtime_error("cannot bind the benchmark to one CPU");
  }
  spinner_ = std::thread([this] {
    const sched_param idle{};
    if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &idle) != 0) {
      spinner_state_ = 2;
      return;
    }
    spinner_state_ = 1;
    while (!stop_.load(std::memory_order_relaxed)) {
    }
  });
  while (spinner_state_ == 0) std::this_thread::yield();
  if (spinner_state_ == 2) {
    spinner_.join();
    throw std::runtime_error("cannot give the keep-awake thread idle priority");
  }
}

CpuPin::~CpuPin() {
  stop_ = true;
  spinner_.join();
}

// ---- predictor decorator ----------------------------------------------------

TimedPredictor::TimedPredictor(mc::LatencyPredictor& inner, bool own_lazy)
    : inner_(inner), own_lazy_(own_lazy) {}

mc::LatencyPrediction TimedPredictor::predict(const mc::WindowView& window,
                                              std::uint64_t global_index) {
  const auto t0 = Clock::now();
  const mc::LatencyPrediction p = inner_.predict(window, global_index);
  const auto t1 = Clock::now();
  predict_ns_ += ns_between(t0, t1);
  call_ns_ += ns_between(t0, t1);
  ++windows_;
  return p;
}

void TimedPredictor::predict_batch(const std::int32_t* windows, std::size_t batch,
                                   std::size_t rows,
                                   const std::uint64_t* global_indices,
                                   mc::LatencyPrediction* out) {
  const auto t0 = Clock::now();
  inner_.predict_batch(windows, batch, rows, global_indices, out);
  const auto t1 = Clock::now();
  predict_ns_ += ns_between(t0, t1);
  call_ns_ += ns_between(t0, t1);
  windows_ += batch;
}

mc::LatencyPrediction TimedPredictor::predict_lazy(const mc::LazyWindow& window) {
  const auto t0 = Clock::now();
  context_rows_ += window.context_count();
  window_rows_ += window.rows() - 1;
  mc::LatencyPrediction p;
  if (own_lazy_) {
    const auto t1 = Clock::now();
    p = inner_.predict_lazy(window);
    const auto t2 = Clock::now();
    predict_ns_ += ns_between(t1, t2);
    call_ns_ += ns_between(t0, t2);
  } else {
    const auto t1 = Clock::now();
    window.materialize(buf_);
    const auto t2 = Clock::now();
    p = inner_.predict(mc::WindowView{buf_.data(), window.rows()},
                       window.current_index());
    const auto t3 = Clock::now();
    materialize_ns_ += ns_between(t1, t2);
    predict_ns_ += ns_between(t2, t3);
    call_ns_ += ns_between(t0, t3);
    ++materialized_;
  }
  ++windows_;
  return p;
}

TimedPredictor::Counters TimedPredictor::counters() const {
  return {predict_ns_.load(), materialize_ns_.load(), call_ns_.load(),
          windows_.load(),    materialized_.load(),   context_rows_.load(),
          window_rows_.load()};
}

// ---- staged trace generation ------------------------------------------------

void UarchCounts::add(const UarchCounts& o) {
  instructions += o.instructions;
  l1d_misses += o.l1d_misses;
  l2_misses += o.l2_misses;
  branch_mispredicts += o.branch_mispredicts;
}

mlsim::trace::EncodedTrace staged_trace(const std::string& abbr, std::size_t n,
                                        const mlsim::uarch::MachineConfig& machine,
                                        std::uint64_t seed, Spans& spans,
                                        std::uint64_t op, UarchCounts* counts) {
  namespace tr = mlsim::trace;
  const tr::WorkloadProfile& profile = tr::find_workload(abbr);
  const tr::Program prog = tr::Program::generate(profile, seed);
  tr::FunctionalSim fsim(prog, seed);
  mlsim::uarch::Annotator annotator(machine);
  mlsim::uarch::OooCore core(machine);
  tr::FeatureEncoder encoder;
  tr::EncodedTrace out(profile.abbr);
  out.reserve(n);

  // Each stage is a sequential state machine over the instruction stream,
  // so running them chunk by chunk yields the interleaved pipeline's bytes.
  constexpr std::size_t kChunk = 4096;
  std::vector<tr::DynInst> insts(kChunk);
  std::vector<tr::Annotation> anns(kChunk);
  std::vector<mlsim::uarch::InstTiming> timing(kChunk);
  for (std::size_t base = 0; base < n; base += kChunk) {
    const std::size_t m = std::min(kChunk, n - base);
    {
      ScopedSpan s(spans, "trace.FunctionalSim::next", op);
      for (std::size_t i = 0; i < m; ++i) insts[i] = fsim.next();
    }
    {
      ScopedSpan s(spans, "uarch.Annotator::annotate", op);
      for (std::size_t i = 0; i < m; ++i) anns[i] = annotator.annotate(insts[i]);
    }
    {
      ScopedSpan s(spans, "uarch.OooCore::process", op);
      for (std::size_t i = 0; i < m; ++i) timing[i] = core.process(insts[i], anns[i]);
    }
    {
      ScopedSpan s(spans, "trace.FeatureEncoder::encode", op);
      for (std::size_t i = 0; i < m; ++i) {
        out.append(encoder.encode(insts[i], anns[i]), timing[i].fetch_lat,
                   timing[i].exec_lat, timing[i].store_lat);
      }
    }
  }
  if (counts != nullptr) {
    counts->add({n, annotator.l1d().misses(), annotator.l2().misses(),
                 annotator.branch_predictor().mispredicts()});
  }
  return out;
}

void add_core_metrics(const TimedPredictor::Counters& c, std::uint64_t engine_ns,
                      std::uint64_t fingerprint_ns, std::uint64_t fingerprinted,
                      std::uint64_t instructions, Report& r) {
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  r.add("core.window_materialize_ns", ratio(d(c.materialize_ns), d(c.materialized)), "ns");
  r.add("core.engine_self_ns_per_inst",
        ratio(d(engine_ns) - d(c.call_ns), d(instructions)), "ns");
  r.add("core.fingerprint_ns_per_inst", ratio(d(fingerprint_ns), d(fingerprinted)), "ns");
  r.add("core.predictions_per_inst", ratio(d(c.windows), d(instructions)), "ratio");
  r.add("core.context_occupancy", ratio(d(c.context_rows), d(c.window_rows)), "ratio");
}

void add_modeled_metric(const PhaseResult& p, Report& r) {
  double us = 0.0;
  for (const OpRecord& op : p.ops) us += op.out.modeled_us;
  const double n = static_cast<double>(p.instructions());
  r.add("device.modeled_us_per_inst", n > 0.0 ? us / n : 0.0, "us-modeled");
}

void add_trace_stage_metrics(const Spans& spans, const UarchCounts& counts,
                             Report& r) {
  const double n = static_cast<double>(std::max<std::uint64_t>(counts.instructions, 1));
  const auto per_inst = [&](const char* span) {
    return static_cast<double>(spans.total_ns(span)) / n;
  };
  r.add("trace.functional_ns_per_inst", per_inst("trace.FunctionalSim::next"), "ns");
  r.add("trace.encode_ns_per_inst", per_inst("trace.FeatureEncoder::encode"), "ns");
  r.add("uarch.annotate_ns_per_inst", per_inst("uarch.Annotator::annotate"), "ns");
  r.add("uarch.ooo_ns_per_inst", per_inst("uarch.OooCore::process"), "ns");
  r.add("uarch.l1d_mpki", static_cast<double>(counts.l1d_misses) * 1000.0 / n,
        "1/kinst");
  r.add("uarch.l2_mpki", static_cast<double>(counts.l2_misses) * 1000.0 / n,
        "1/kinst");
  r.add("uarch.branch_mpki",
        static_cast<double>(counts.branch_mispredicts) * 1000.0 / n, "1/kinst");
}

void TraceSet::clear() {
  traces_.clear();
  staged_.clear();
  counts_ = {};
}

void TraceSet::add(const std::string& abbr, std::size_t n, std::uint64_t seed,
                   bool staged, Spans& spans) {
  if (!staged) {
    traces_.push_back(mc::labeled_trace(abbr, n, {}, seed, false));
    return;
  }
  traces_.push_back(staged_trace(abbr, n, {}, seed, spans, traces_.size(), &counts_));
  staged_.push_back({abbr, n, seed});
}

void TraceSet::report(const Spans& spans, Report& r) const {
  add_trace_stage_metrics(spans, counts_, r);
  std::size_t identical = 0;
  for (std::size_t i = 0; i < staged_.size(); ++i) {
    const Input& in = staged_[i];
    identical += same_trace(traces_[i], mc::labeled_trace(in.abbr, in.n, {}, in.seed, false));
  }
  check_identity(r, identical, staged_.size(), "staged traces vs labeled_trace");
}

}  // namespace perfbench
