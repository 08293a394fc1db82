// mlsim_cli — command-line driver for the library.
//
//   mlsim_cli trace <benchmark> <instructions> [out.bin]
//       Generate a labeled trace (functional sim -> annotate -> cycle-level
//       ground truth -> encode) and optionally save it.
//
//   mlsim_cli simulate <benchmark|trace.bin> [instructions]
//              [--parallel=P] [--gpus=G] [--context=C] [--no-recovery]
//              [--set key=value]...
//       Run the ML simulator (single optimised device, or the parallel
//       scheme when --parallel is given) and report CPI, error vs ground
//       truth, and modeled throughput. --set applies one machine-config
//       axis (same keys as sweep --axis; docs/SWEEPS.md) to the generated
//       trace — e.g. --set l2.size_kb=512 --set l1d.replacement=drrip —
//       and therefore requires a benchmark, not a trace file.
//       Fault tolerance (parallel mode only; docs/RESILIENCE.md):
//         --fault-kill=R / --fault-corrupt=R / --fault-straggler=R
//             inject device kills / corrupted inference outputs / stragglers
//             at rate R in [0,1];
//         --fault-seed=S   deterministic injection seed (default 1);
//         --retries=N      per-partition retry budget (default 3);
//         --checkpoint[=path]  checkpoint after every partition
//             (default path lives in the artifact cache);
//         --resume         continue from the checkpoint if one exists.
//
//   mlsim_cli suite <instructions-per-benchmark> <gpus>
//              [--checkpoint[=path]] [--resume]
//       Simulate all 21 Table I benchmarks scheduled across a GPU cluster;
//       with --checkpoint a killed run resumes past completed jobs.
//
//   mlsim_cli rates <benchmark|trace.bin> [instructions]
//       Print §VI-E architectural metrics (miss rates, mispredict rate,
//       bandwidth) derived from the trace.
//
//   mlsim_cli stream <benchmark> <instructions> [context]
//       Streaming simulation with bounded memory (generation and ML
//       simulation pipelined chunk by chunk) — the mode for very long
//       programs that cannot be materialised.
//
//   mlsim_cli coordinator <benchmark|trace.bin> [instructions]
//              [--port=N] [--workers=W] [--heartbeat-ms=M] [--timeout-ms=T]
//              [--parallel=P] [--gpus=G] [--context=C] [--no-recovery]
//              [--fault-worker-kill=R] [--fault-seed=S] [--verify]
//              [--steal] [--speculate-pct=P] [--result-cache[=N]]
//              [--journal=PATH] [--resume] [--journal-strict]
//              [--drain-timeout-ms=T]
//       Run one distributed parallel simulation as the cluster coordinator
//       (docs/DISTRIBUTED.md): bind 127.0.0.1:<port> (0 = ephemeral, the
//       bound port is printed), wait for --workers workers, dispatch shard
//       descriptors, recover in-flight shards from dead/hung workers, and
//       merge. --fault-worker-kill simulates whole-worker kills at rate R;
//       --verify reruns in-process and asserts the merged CPI is
//       bit-identical. Elasticity (docs/DISTRIBUTED.md "Elasticity &
//       churn"): --steal rebalances shards off slow workers, --speculate-pct
//       duplicates shards older than that percentile of completed latency
//       onto idle workers, --result-cache memoizes shard outcomes (N
//       entries, default 1024) so repeated runs dispatch nothing.
//       Crash safety (docs/RESILIENCE.md "Crash-safe coordination"):
//       --journal appends every assignment and result to a durable
//       write-ahead journal; after a crash, rerunning with --resume replays
//       it so completed shards are never recomputed (--journal-strict makes
//       a corrupt journal tail fatal instead of truncating it). SIGTERM or
//       SIGINT drains gracefully: in-flight shards get --drain-timeout-ms
//       (default 5000) to finish, the journal records a drained run-close,
//       and the process exits 6; a second signal force-exits 7.
//
//   mlsim_cli worker --connect=host:port [--heartbeat-ms=M] [--no-reconnect]
//              [--leave-after=N] [--reconnect-budget=N]
//       Join a coordinator as one worker process and compute shards until
//       shut down. With --no-reconnect a simulated worker kill is final
//       (the process exits) instead of rejoining like a supervised restart.
//       --leave-after announces a planned departure (Goodbye) after N
//       computed shards — models scale-down or spot preemption with notice.
//       A worker that loses its connection mid-run reconnects with bounded
//       exponential backoff (--reconnect-budget attempts, default 10) and
//       re-attaches to its session — including to a coordinator restarted
//       with --resume — re-delivering any finished-but-unacknowledged shard.
//
//   mlsim_cli serve <benchmark|trace.bin> [instructions] [--requests=N]
//              [--workers=W] [--queue=Q] [--parallel=P] [--deadline-ms=D]
//              [--tenant-quota=N]
//              [--fault-kill=R] [--fault-corrupt=R] [--fault-straggler=R]
//              [--fault-seed=S] [--stall-ms=M]
//       Soak the resilient simulation service (docs/SERVICE.md): submit N
//       requests across all priority classes through admission control and
//       report the typed outcome of every one, the health snapshot, and the
//       service metrics. With --fault-* the run doubles as a chaos drill:
//       device kills and corrupted outputs go through the parallel engine's
//       recovery, and straggler attempts really stall workers for
//       --stall-ms so the hang watchdog fires. --deadline-ms and --stall-ms
//       take at most 9223372036854 (the nanosecond clock's range); a
//       deadline the clock cannot reach is none. SIGTERM/SIGINT drains: the
//       service stops admitting, in-flight requests get --drain-timeout-ms
//       (default 5000) to finish, and the process exits 6 (a second signal
//       force-exits 7).
//
//   mlsim_cli sweep <benchmark> [instructions] | --spec=FILE
//              [--axis key=v1,v2,...]... [--parallel=P] [--gpus=G]
//              [--context=C] [--no-recovery] [--seed=S]
//              [--pareto] [--top=N] [--json[=path]]
//              [--port=N] [--workers=W] [--heartbeat-ms=M] [--timeout-ms=T]
//              [--steal] [--result-cache[=N]] [--repeat=N]
//       Design-space exploration (docs/SWEEPS.md): expand a config lattice
//       (the cartesian product of the --axis value lists, or a spec file;
//       both may be combined as long as no axis repeats) over one shared
//       workload, simulate every point — only the trace is regenerated per
//       point; the predictor is reused, and each point's CPI is
//       bit-identical to `simulate` of that configuration — and rank the
//       Pareto frontier over (CPI, area proxy) plus per-axis sensitivity.
//       --pareto prints frontier points only; --top=N the N best by CPI;
//       --json emits the full report as JSON (stdout, or to `path`).
//       With --workers=W the points fan out through a cluster coordinator
//       (same flags as the coordinator command); one point = one run
//       fingerprint, so with --result-cache a repeated lattice (--repeat=N,
//       or re-running the command against long-lived workers) dispatches
//       zero shards. --telemetry-port serves sweep progress in /healthz.
//
// Observability (simulate/suite/stream; see docs/OBSERVABILITY.md):
//   --metrics[=path]     enable the metrics registry; print a per-phase
//                        breakdown and the registry dump (text to stdout, or
//                        to `path` — JSON when it ends in .json).
//   --trace-out=<file>   record scoped spans and write Chrome trace-event
//                        JSON loadable in chrome://tracing / Perfetto. The
//                        target directory must exist and be writable (checked
//                        up front, before the run).
//   --telemetry-port=N   (serve/coordinator) serve live GET /metrics
//                        (Prometheus), /healthz (health JSON, with
//                        ?last_errors=N flight-recorder post-mortems), and
//                        /tracez (Chrome trace) on 127.0.0.1:N while the
//                        command runs (0 = ephemeral; the bound port is
//                        printed).
//
// Exit codes: 0 success, 2 bad usage, 3 I/O failure (missing/unwritable
// files), 4 corrupt data or violated invariant (CheckError), 5 any other
// internal error, 6 graceful drain after SIGTERM/SIGINT (progress journaled
// — not a failure), 7 forced exit on a second signal.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/artifacts.h"
#include "common/check.h"
#include "common/table.h"
#include "core/analytic_predictor.h"
#include "core/metrics.h"
#include "core/simulator.h"
#include "core/streaming.h"
#include "core/suite.h"
#include "device/fault.h"
#include "dist/coordinator.h"
#include "dist/worker.h"
#include "net/signal_pipe.h"
#include "net/socket.h"
#include "obs/obs.h"
#include "obs/telemetry_http.h"
#include "service/service.h"
#include "sweep/sweep.h"
#include "trace/stream.h"

using namespace mlsim;

namespace {

/// Bad flag or argument value — maps to exit code 2 (bad usage) in main(),
/// distinct from I/O failures (3), corrupt data (4), and bugs (5).
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Graceful drain after SIGTERM/SIGINT: not a failure — progress was
/// journaled (coordinator) or in-flight requests finished (serve).
constexpr int kExitDrained = 6;
/// A second signal while draining: immediate _exit from the handler.
constexpr int kExitForced = 7;

/// Strict unsigned decimal parse. Unlike std::stoull, rejects (with a
/// distinct message each) empty values, signs — strtoull silently wraps
/// "-1" to 2^64-1 — garbage suffixes ("10x"), and overflow.
std::uint64_t parse_u64(const char* what, const std::string& text) {
  if (text.empty()) throw UsageError(std::string(what) + " needs a value");
  for (const char c : text) {
    if (c < '0' || c > '9') {
      throw UsageError(std::string(what) + ": '" + text +
                       "' is not a non-negative integer");
    }
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno == ERANGE || end != text.c_str() + text.size()) {
    throw UsageError(std::string(what) + ": '" + text +
                     "' overflows a 64-bit integer");
  }
  return v;
}

std::size_t parse_size(const char* what, const std::string& text) {
  const std::uint64_t v = parse_u64(what, text);
  if (v > std::numeric_limits<std::size_t>::max()) {
    throw UsageError(std::string(what) + ": '" + text + "' is too large");
  }
  return static_cast<std::size_t>(v);
}

/// A millisecond duration flag that must fit the nanosecond steady clock:
/// at most 9223372036854 ms (about 292 years).
std::uint64_t parse_ms(const char* what, const std::string& text) {
  const std::uint64_t v = parse_u64(what, text);
  constexpr auto kMax = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::nanoseconds::max());
  if (v > static_cast<std::uint64_t>(kMax.count())) {
    throw UsageError(std::string(what) + ": '" + text + "' exceeds " +
                     std::to_string(kMax.count()) + " ms");
  }
  return v;
}

/// A count/interval flag that must be at least 1.
std::uint64_t parse_positive(const char* what, const std::string& text) {
  const std::uint64_t v = parse_u64(what, text);
  if (v == 0) {
    throw UsageError(std::string(what) + ": '" + text + "' must be >= 1");
  }
  return v;
}

double parse_finite(const char* what, const std::string& text) {
  if (text.empty()) throw UsageError(std::string(what) + " needs a value");
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || end == text.c_str() ||
      errno == ERANGE || !std::isfinite(v)) {
    throw UsageError(std::string(what) + ": '" + text +
                     "' is not a finite number");
  }
  return v;
}

/// A probability flag: finite and within [0, 1].
double parse_rate(const char* what, const std::string& text) {
  const double v = parse_finite(what, text);
  if (v < 0.0 || v > 1.0) {
    throw UsageError(std::string(what) + ": '" + text +
                     "' must be in [0, 1]");
  }
  return v;
}

struct ObsFlags {
  bool metrics = false;
  std::string metrics_path;  // empty = stdout
  std::string trace_out;

  bool active() const { return metrics || !trace_out.empty(); }
};

bool parse_obs_flag(const std::string& s, ObsFlags& f) {
  if (s == "--metrics") {
    f.metrics = true;
    return true;
  }
  if (s.rfind("--metrics=", 0) == 0) {
    f.metrics = true;
    f.metrics_path = s.substr(10);
    return true;
  }
  if (s.rfind("--trace-out=", 0) == 0) {
    f.trace_out = s.substr(12);
    return true;
  }
  return false;
}

/// Up-front rejection of an unwritable --trace-out target: the span dump
/// happens at exit time, after the (possibly long) run — discovering only
/// then that the directory does not exist wastes the whole run.
void check_trace_out_writable(const std::string& path) {
  if (path.empty()) return;
  namespace fs = std::filesystem;
  const fs::path p(path);
  if (fs::exists(p) && fs::is_directory(p)) {
    throw UsageError("--trace-out: '" + path + "' is a directory, not a file");
  }
  const fs::path dir = p.has_parent_path() ? p.parent_path() : fs::path(".");
  if (!fs::exists(dir) || !fs::is_directory(dir)) {
    throw UsageError("--trace-out: directory '" + dir.string() +
                     "' does not exist");
  }
  std::error_code ec;
  const fs::path probe = dir / ".mlsim_trace_out_probe";
  std::ofstream os(probe);
  if (!os.is_open()) {
    throw UsageError("--trace-out: directory '" + dir.string() +
                     "' is not writable");
  }
  os.close();
  fs::remove(probe, ec);
}

void enable_obs(const ObsFlags& f) {
  check_trace_out_writable(f.trace_out);
  if (!f.active()) return;
  if (!obs::kCompiledIn) {
    std::fprintf(stderr, "note: built with MLSIM_OBS_DISABLE=ON; --metrics and "
                         "--trace-out will produce empty output\n");
  }
  obs::set_enabled(true);
  obs::reset_trace();
}

void finish_obs(const ObsFlags& f) {
  if (!f.active()) return;
  if (f.metrics) {
    if (f.metrics_path.empty()) {
      std::printf("-- metrics --\n");
      obs::default_registry().write_text(std::cout);
    } else {
      std::ofstream os(f.metrics_path);
      if (!os.is_open()) {
        std::fprintf(stderr, "cannot write metrics to %s\n",
                     f.metrics_path.c_str());
      } else {
        const bool json = f.metrics_path.size() >= 5 &&
                          f.metrics_path.rfind(".json") ==
                              f.metrics_path.size() - 5;
        if (json) {
          obs::default_registry().write_json(os);
        } else {
          obs::default_registry().write_text(os);
        }
        std::printf("[metrics written to %s]\n", f.metrics_path.c_str());
      }
    }
  }
  if (!f.trace_out.empty()) {
    if (obs::write_chrome_trace_file(f.trace_out)) {
      std::printf("[trace with %llu spans written to %s — load in "
                  "chrome://tracing or ui.perfetto.dev]\n",
                  static_cast<unsigned long long>(obs::recorded_events()),
                  f.trace_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write trace to %s\n", f.trace_out.c_str());
    }
  }
}

/// §IV per-phase simulated-time breakdown of a single-device run.
void print_phase_table(const core::SimOutput& out) {
  const core::StepProfile& pr = out.profile;
  const double total = pr.total();
  Table t({"phase", "us/instr", "share %"});
  const auto row = [&](const std::string& name, double v) {
    t.add_row({name, v, total > 0.0 ? v / total * 100.0 : 0.0});
  };
  row("queue push", pr.queue_push);
  row("input construction", pr.input_construct);
  row("H2D copy", pr.h2d);
  row("transpose", pr.transpose);
  row("inference", pr.inference);
  row("update/retire", pr.update_retire);
  t.add_row({std::string("total"), total, 100.0});
  t.set_precision(4);
  t.print(std::cout);
}

trace::EncodedTrace acquire(const std::string& what, std::size_t n) {
  if (std::filesystem::exists(what)) return trace::EncodedTrace::load(what);
  return core::labeled_trace(what, n == 0 ? 200000 : n);
}

/// Split a "key=value" / "key=v1,v2,..." flag operand. The axis registry
/// does the semantic validation; this only rejects a missing '='.
std::pair<std::string, std::string> split_axis_flag(const char* what,
                                                    const std::string& s) {
  const auto eq = s.find('=');
  if (eq == std::string::npos || eq == 0 || eq == s.size() - 1) {
    throw UsageError(std::string(what) + ": '" + s +
                     "' is not of the form key=value");
  }
  return {s.substr(0, eq), s.substr(eq + 1)};
}

/// Lattice validation errors on the command line are *usage* errors (exit
/// 2), not corrupt data (4): the run never started.
template <typename F>
void validate_as_usage(F&& f) {
  try {
    f();
  } catch (const CheckError& e) {
    throw UsageError(e.what());
  }
}

int cmd_trace(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr, "usage: mlsim_cli trace <benchmark> <instructions> [out.bin]\n");
    return 2;
  }
  const std::string abbr = argv[2];
  const std::size_t n = parse_size("<instructions>", argv[3]);
  const auto tr = core::labeled_trace(abbr, n);
  std::printf("generated %zu labeled instructions of %s (CPI %.3f)\n", tr.size(),
              abbr.c_str(),
              static_cast<double>(core::total_cycles_from_targets(tr)) /
                  static_cast<double>(tr.size()));
  if (argc > 4) {
    tr.save(argv[4]);
    std::printf("saved to %s\n", argv[4]);
  }
  return 0;
}

int cmd_simulate(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: mlsim_cli simulate <benchmark|trace.bin> "
                         "[instructions] [--parallel=P] [--gpus=G] "
                         "[--context=C] [--no-recovery] [--fault-kill=R] "
                         "[--fault-corrupt=R] [--fault-straggler=R] "
                         "[--fault-seed=S] [--retries=N] [--checkpoint[=path]] "
                         "[--resume] [--set key=value]... [--metrics[=path]] "
                         "[--trace-out=file.json]\n");
    return 2;
  }
  std::size_t n = 0, parallel = 0, gpus = 1, context = 64, retries = 3;
  bool recovery = true, checkpoint = false, resume = false;
  std::string checkpoint_path;
  device::FaultOptions fault;
  fault.seed = 1;
  bool any_fault = false;
  std::vector<std::pair<std::string, std::string>> sets;
  ObsFlags obs_flags;
  for (int i = 3; i < argc; ++i) {
    const std::string s = argv[i];
    if (s.rfind("--parallel=", 0) == 0) {
      parallel = parse_size("--parallel", s.substr(11));
    }
    else if (s == "--set") {
      if (i + 1 >= argc) throw UsageError("--set needs a key=value operand");
      sets.push_back(split_axis_flag("--set", argv[++i]));
    } else if (s.rfind("--set=", 0) == 0) {
      sets.push_back(split_axis_flag("--set", s.substr(6)));
    }
    else if (s.rfind("--gpus=", 0) == 0) {
      gpus = static_cast<std::size_t>(parse_positive("--gpus", s.substr(7)));
    }
    else if (s.rfind("--context=", 0) == 0) {
      context = static_cast<std::size_t>(
          parse_positive("--context", s.substr(10)));
    }
    else if (s == "--no-recovery") recovery = false;
    else if (s.rfind("--fault-kill=", 0) == 0) {
      fault.device_kill_rate = parse_rate("--fault-kill", s.substr(13));
      any_fault = true;
    } else if (s.rfind("--fault-corrupt=", 0) == 0) {
      fault.output_corrupt_rate = parse_rate("--fault-corrupt", s.substr(16));
      any_fault = true;
    } else if (s.rfind("--fault-straggler=", 0) == 0) {
      fault.straggler_rate = parse_rate("--fault-straggler", s.substr(18));
      any_fault = true;
    } else if (s.rfind("--fault-seed=", 0) == 0) {
      fault.seed = parse_u64("--fault-seed", s.substr(13));
    } else if (s.rfind("--retries=", 0) == 0) {
      retries = parse_size("--retries", s.substr(10));
    } else if (s == "--checkpoint") {
      checkpoint = true;
    } else if (s.rfind("--checkpoint=", 0) == 0) {
      checkpoint = true;
      checkpoint_path = s.substr(13);
    } else if (s == "--resume") {
      checkpoint = true;
      resume = true;
    }
    else if (parse_obs_flag(s, obs_flags)) continue;
    else if (s[0] != '-') n = parse_size("<instructions>", s);
    else {
      std::fprintf(stderr, "unknown flag %s\n", s.c_str());
      return 2;
    }
  }
  if (parallel == 0 && (any_fault || checkpoint)) {
    std::fprintf(stderr, "--fault-*/--checkpoint/--resume require "
                         "--parallel=P (fault tolerance is a parallel-"
                         "simulation feature)\n");
    return 2;
  }
  // --set alters the machine the *trace* is generated with; the predictor
  // and engine path stay identical (docs/SWEEPS.md), which is what makes a
  // sweep point bit-identical to this command.
  uarch::MachineConfig machine;
  if (!sets.empty()) {
    if (std::filesystem::exists(argv[2])) {
      throw UsageError("--set regenerates the trace for the modified machine "
                       "and needs a benchmark name, not a trace file");
    }
    validate_as_usage([&] {
      for (const auto& [key, value] : sets) {
        sweep::apply_axis(machine, key, value);
      }
    });
  }
  enable_obs(obs_flags);
  const auto tr = sets.empty()
                      ? acquire(argv[2], n)
                      : core::labeled_trace(argv[2], n == 0 ? 200000 : n,
                                            machine);
  core::MLSimulator::Options opts;
  opts.context_length = context;
  core::MLSimulator sim(opts);

  if (parallel == 0) {
    const auto out = sim.simulate(tr);
    // With --metrics the aggregate one-liner grows into the full §IV
    // per-phase breakdown the paper's Fig. 2/11-16 reason about.
    if (obs_flags.metrics) print_phase_table(out);
    std::printf("single device: CPI %.4f | err vs truth %+.2f%% | %.3f MIPS "
                "(modeled) | ctx occupancy %.2f\n",
                out.cpi(),
                tr.labeled() ? sim.cpi_error_percent(tr, out.cpi()) : 0.0,
                out.mips(), out.avg_context_occupancy);
  } else {
    core::ParallelSimOptions po =
        sim.parallel_options(parallel, gpus, recovery, recovery);
    const device::FaultInjector injector(fault);
    if (any_fault) po.faults = &injector;
    po.max_retries_per_partition = retries;
    if (checkpoint) {
      po.checkpoint_path = checkpoint_path.empty()
                               ? artifact_path("mlsim_cli_simulate.ckpt")
                               : std::filesystem::path(checkpoint_path);
      po.resume = resume;
    }
    const auto out = sim.simulate_parallel(tr, po);
    // The exact cycle total is what `sweep --json` reports per point, so a
    // single standalone run can be checked bit-identical against a sweep row.
    std::printf("parallel (%zu sub-traces, %zu GPUs, recovery %s): CPI %.4f | "
                "%llu cycles | err vs truth %+.2f%% | %.2f MIPS (modeled) | "
                "corrected %zu\n",
                parallel, gpus, recovery ? "on" : "off", out.cpi(),
                static_cast<unsigned long long>(out.total_cycles),
                tr.labeled() ? sim.cpi_error_percent(tr, out.cpi()) : 0.0,
                out.mips(), out.corrected_instructions);
    if (any_fault || out.resumed) {
      std::printf("fault recovery: %zu failed partitions | %zu retries | "
                  "%zu degraded | %zu lost devices | backoff %.0f us%s\n",
                  out.failed_partitions.size(), out.retries,
                  out.degraded_partitions.size(), out.lost_devices,
                  out.retry_backoff_us,
                  out.resumed ? " | resumed from checkpoint" : "");
    }
  }
  finish_obs(obs_flags);
  return 0;
}

int cmd_suite(int argc, char** argv) {
  ObsFlags obs_flags;
  bool checkpoint = false, resume = false;
  std::string checkpoint_path;
  std::vector<std::string> pos;
  for (int i = 2; i < argc; ++i) {
    const std::string s = argv[i];
    if (parse_obs_flag(s, obs_flags)) continue;
    if (s == "--checkpoint") {
      checkpoint = true;
      continue;
    }
    if (s.rfind("--checkpoint=", 0) == 0) {
      checkpoint = true;
      checkpoint_path = s.substr(13);
      continue;
    }
    if (s == "--resume") {
      checkpoint = true;
      resume = true;
      continue;
    }
    if (!s.empty() && s[0] == '-') {
      std::fprintf(stderr, "unknown flag %s\n", s.c_str());
      return 2;
    }
    pos.push_back(s);
  }
  const std::size_t n =
      pos.size() > 0 ? static_cast<std::size_t>(parse_positive(
                           "<instructions-per-benchmark>", pos[0]))
                     : 50000;
  const std::size_t gpus =
      pos.size() > 1
          ? static_cast<std::size_t>(parse_positive("<gpus>", pos[1]))
          : 4;
  enable_obs(obs_flags);
  std::printf("simulating all 21 benchmarks, %zu instructions each, across "
              "%zu modeled GPUs (LPT schedule)\n", n, gpus);

  std::vector<trace::EncodedTrace> traces;
  std::vector<core::SuiteJob> jobs;
  traces.reserve(trace::spec2017_suite().size());
  for (const auto& b : trace::spec2017_suite()) {
    traces.push_back(core::labeled_trace(b.profile.abbr, n));
  }
  for (std::size_t i = 0; i < traces.size(); ++i) {
    jobs.push_back({&traces[i], trace::spec2017_suite()[i].profile.abbr});
  }

  core::AnalyticPredictor pred;
  core::GpuSimOptions opts;
  opts.context_length = 64;
  const std::filesystem::path ckpt =
      checkpoint ? (checkpoint_path.empty()
                        ? artifact_path("mlsim_cli_suite.ckpt")
                        : std::filesystem::path(checkpoint_path))
                 : std::filesystem::path();
  const auto report = core::run_suite(pred, jobs, gpus, opts, ckpt, resume);

  Table t({"benchmark", "device", "CPI", "device time (ms)"});
  for (const auto& j : report.jobs) {
    t.add_row({j.name, static_cast<std::int64_t>(j.device), j.cpi,
               j.sim_time_us / 1000.0});
  }
  t.set_precision(3);
  t.print(std::cout);
  std::printf("makespan %.1f ms | suite throughput %.2f MIPS | device "
              "utilization %.1f%%\n", report.makespan_us / 1000.0, report.mips(),
              report.utilization() * 100.0);
  finish_obs(obs_flags);
  return 0;
}

int cmd_rates(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: mlsim_cli rates <benchmark|trace.bin> [instructions]\n");
    return 2;
  }
  const std::size_t n = argc > 3 ? parse_size("<instructions>", argv[3]) : 0;
  const auto tr = acquire(argv[2], n);
  const auto r = core::trace_rates(tr);
  std::printf("instructions:            %zu\n", tr.size());
  std::printf("memory access fraction:  %.1f%%\n", r.memory_access_fraction * 100);
  std::printf("L1D miss rate:           %.2f%%\n", r.l1d_miss_rate * 100);
  std::printf("L2 miss rate (to mem):   %.2f%%\n", r.l2_miss_rate * 100);
  std::printf("branch mispredict rate:  %.2f%% (%zu branches)\n",
              r.branch_mispredict_rate * 100, r.branches);
  if (tr.labeled()) {
    std::printf("ground-truth CPI:        %.3f\n",
                static_cast<double>(core::total_cycles_from_targets(tr)) /
                    static_cast<double>(tr.size()));
    std::printf("memory bandwidth:        %.1f B/kilocycle\n",
                core::memory_bandwidth_from_targets(tr) * 1000);
  }
  return 0;
}

int cmd_stream(int argc, char** argv) {
  ObsFlags obs_flags;
  std::vector<std::string> pos;
  for (int i = 2; i < argc; ++i) {
    const std::string s = argv[i];
    if (parse_obs_flag(s, obs_flags)) continue;
    if (!s.empty() && s[0] == '-') {
      std::fprintf(stderr, "unknown flag %s\n", s.c_str());
      return 2;
    }
    pos.push_back(s);
  }
  if (pos.size() < 2) {
    std::fprintf(stderr, "usage: mlsim_cli stream <benchmark> <instructions> "
                         "[context] [--metrics[=path]] [--trace-out=file.json]\n");
    return 2;
  }
  const std::string abbr = pos[0];
  const std::uint64_t n = parse_positive("<instructions>", pos[1]);
  const std::size_t ctx =
      pos.size() > 2
          ? static_cast<std::size_t>(parse_positive("[context]", pos[2]))
          : 64;
  enable_obs(obs_flags);
  trace::LabeledTraceStream stream(trace::find_workload(abbr));
  core::AnalyticPredictor pred;
  const auto res = core::simulate_stream(pred, stream, n, ctx);
  std::printf("streamed %llu instructions of %s (context %zu, bounded memory)\n",
              static_cast<unsigned long long>(res.instructions), abbr.c_str(), ctx);
  std::printf("predicted CPI %.4f | ground-truth CPI %.4f | error %+.2f%%\n",
              res.cpi(), res.truth_cpi(),
              (res.truth_cpi() - res.cpi()) / res.truth_cpi() * 100.0);
  finish_obs(obs_flags);
  return 0;
}

/// A TCP port flag: strict decimal, within [0, 65535] (0 = ephemeral).
std::uint16_t parse_port(const char* what, const std::string& text) {
  const std::uint64_t v = parse_u64(what, text);
  if (v > 65535) {
    throw UsageError(std::string(what) + ": '" + text +
                     "' is not a TCP port (0-65535)");
  }
  return static_cast<std::uint16_t>(v);
}

int cmd_coordinator(int argc, char** argv) {
  ObsFlags obs_flags;
  std::vector<std::string> pos;
  std::uint16_t port = 0;
  std::size_t min_workers = 1, parallel = 4, gpus = 1, context = 64;
  int heartbeat_timeout_ms = 2000, run_timeout_ms = 120000;
  bool recovery = true, verify = false;
  bool steal = false;
  double speculate_pct = 0.0;
  std::size_t result_cache = 0;
  bool have_telemetry = false;
  std::uint16_t telemetry_port = 0;
  std::string journal_path;
  bool resume = false, journal_strict = false;
  int drain_timeout_ms = 5000;
  device::FaultOptions fault;
  fault.seed = 1;
  bool any_fault = false;
  for (int i = 2; i < argc; ++i) {
    const std::string s = argv[i];
    if (parse_obs_flag(s, obs_flags)) continue;
    if (s.rfind("--port=", 0) == 0) {
      port = parse_port("--port", s.substr(7));
    } else if (s.rfind("--telemetry-port=", 0) == 0) {
      telemetry_port = parse_port("--telemetry-port", s.substr(17));
      have_telemetry = true;
    } else if (s.rfind("--workers=", 0) == 0) {
      min_workers =
          static_cast<std::size_t>(parse_positive("--workers", s.substr(10)));
    } else if (s.rfind("--heartbeat-ms=", 0) == 0) {
      heartbeat_timeout_ms = static_cast<int>(std::min<std::uint64_t>(
          parse_positive("--heartbeat-ms", s.substr(15)),
          std::numeric_limits<int>::max()));
    } else if (s.rfind("--timeout-ms=", 0) == 0) {
      run_timeout_ms = static_cast<int>(std::min<std::uint64_t>(
          parse_u64("--timeout-ms", s.substr(13)),
          std::numeric_limits<int>::max()));
    } else if (s.rfind("--parallel=", 0) == 0) {
      parallel = static_cast<std::size_t>(
          parse_positive("--parallel", s.substr(11)));
    } else if (s.rfind("--gpus=", 0) == 0) {
      gpus = static_cast<std::size_t>(parse_positive("--gpus", s.substr(7)));
    } else if (s.rfind("--context=", 0) == 0) {
      context = static_cast<std::size_t>(
          parse_positive("--context", s.substr(10)));
    } else if (s == "--no-recovery") {
      recovery = false;
    } else if (s.rfind("--fault-worker-kill=", 0) == 0) {
      fault.worker_kill_rate = parse_rate("--fault-worker-kill", s.substr(20));
      any_fault = true;
    } else if (s.rfind("--fault-seed=", 0) == 0) {
      fault.seed = parse_u64("--fault-seed", s.substr(13));
    } else if (s == "--verify") {
      verify = true;
    } else if (s == "--steal") {
      steal = true;
    } else if (s.rfind("--speculate-pct=", 0) == 0) {
      const std::uint64_t p =
          parse_positive("--speculate-pct", s.substr(16));
      if (p > 100) {
        throw UsageError("--speculate-pct: '" + s.substr(16) +
                         "' must be a percentile in 1..100");
      }
      speculate_pct = static_cast<double>(p);
    } else if (s == "--result-cache") {
      result_cache = 1024;
    } else if (s.rfind("--result-cache=", 0) == 0) {
      result_cache = static_cast<std::size_t>(
          parse_positive("--result-cache", s.substr(15)));
    } else if (s.rfind("--journal=", 0) == 0) {
      journal_path = s.substr(10);
      if (journal_path.empty()) throw UsageError("--journal needs a path");
    } else if (s == "--resume") {
      resume = true;
    } else if (s == "--journal-strict") {
      journal_strict = true;
    } else if (s.rfind("--drain-timeout-ms=", 0) == 0) {
      drain_timeout_ms = static_cast<int>(std::min<std::uint64_t>(
          parse_positive("--drain-timeout-ms", s.substr(19)),
          std::numeric_limits<int>::max()));
    } else if (!s.empty() && s[0] != '-') {
      pos.push_back(s);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", s.c_str());
      return 2;
    }
  }
  if (pos.empty()) {
    std::fprintf(stderr,
                 "usage: mlsim_cli coordinator <benchmark|trace.bin> "
                 "[instructions] [--port=N] [--telemetry-port=N] [--workers=W] "
                 "[--heartbeat-ms=M] [--timeout-ms=T] [--parallel=P] "
                 "[--gpus=G] [--context=C] [--no-recovery] "
                 "[--fault-worker-kill=R] [--fault-seed=S] [--verify] "
                 "[--steal] [--speculate-pct=P] [--result-cache[=N]] "
                 "[--journal=PATH] [--resume] [--journal-strict] "
                 "[--drain-timeout-ms=T] "
                 "[--metrics[=path]] [--trace-out=file.json]\n");
    return 2;
  }
  if (resume && journal_path.empty()) {
    throw UsageError("--resume requires --journal=PATH");
  }
  const std::size_t n =
      pos.size() > 1 ? parse_size("[instructions]", pos[1]) : 20000;
  enable_obs(obs_flags);
  // Bridge SIGTERM/SIGINT into the coordinator poll loop: first signal
  // starts a graceful drain (exit 6), second force-exits 7. Installed
  // before trace acquisition so a signal during slow labeling is queued
  // for the run loop instead of killing the process with work undone.
  net::SignalPipe& sig = net::SignalPipe::install(kExitForced);
  const auto tr = acquire(pos[0], n);

  core::MLSimulator::Options mopts;
  mopts.context_length = context;
  core::MLSimulator sim(mopts);
  core::ParallelSimOptions po =
      sim.parallel_options(parallel, gpus, recovery, recovery);
  const device::FaultInjector injector(fault);
  if (any_fault) po.faults = &injector;

  dist::CoordinatorOptions co;
  co.min_workers = min_workers;
  co.heartbeat_timeout_ms = heartbeat_timeout_ms;
  co.run_timeout_ms = run_timeout_ms;
  co.steal = steal;
  co.speculate_pct = speculate_pct;
  co.result_cache_entries = result_cache;
  co.journal_path = journal_path;
  co.resume = resume;
  co.journal_strict = journal_strict;
  co.drain_timeout_ms = drain_timeout_ms;
  co.wake_fd = sig.fd();
  dist::DistCoordinator coord(net::TcpListener::bind(port), co);
  std::printf("coordinator listening on 127.0.0.1:%u — waiting for %zu "
              "worker(s); join with:\n  mlsim_cli worker "
              "--connect=127.0.0.1:%u\n",
              coord.port(), min_workers, coord.port());
  obs::TelemetryServer telemetry;
  if (have_telemetry) {
    if (obs::kCompiledIn && !obs::enabled()) obs::set_enabled(true);
    obs::TelemetryOptions to;
    to.port = telemetry_port;
    to.health = [&coord](std::size_t errs) { return coord.cluster_json(errs); };
    if (telemetry.start(std::move(to))) {
      std::printf("telemetry on http://127.0.0.1:%u/metrics (also /healthz, "
                  "/tracez)\n", telemetry.port());
    } else {
      std::fprintf(stderr, "note: built with MLSIM_OBS_DISABLE=ON; "
                           "--telemetry-port is inert\n");
    }
  }
  std::fflush(stdout);

  const auto out = coord.run(tr, po);
  const auto& st = coord.stats();
  std::printf("distributed (%zu sub-traces, %zu GPU blocks): CPI %.4f | "
              "err vs truth %+.2f%% | %.2f MIPS (modeled) | corrected %zu\n",
              parallel, gpus, out.cpi(),
              tr.labeled() ? sim.cpi_error_percent(tr, out.cpi()) : 0.0,
              out.mips(), out.corrected_instructions);
  std::printf("cluster: %zu joined | %zu lost | %zu departed | "
              "%zu dispatched | %zu reassigned | %zu duplicates dropped | "
              "%zu heartbeats\n",
              st.workers_joined, st.workers_lost, st.workers_departed,
              st.shards_dispatched, st.reassignments, st.duplicates_dropped,
              st.heartbeats);
  if (steal || speculate_pct > 0.0 || result_cache > 0 ||
      !journal_path.empty()) {
    std::printf("elastic: %zu stolen | %zu speculated | cache %zu hits / "
                "%zu misses / %zu evictions | %zu rejoined | "
                "%zu replayed from journal\n",
                st.steals, st.speculations, st.cache_hits, st.cache_misses,
                st.cache_evictions, st.workers_rejoined, st.journal_replayed);
  }
  if (verify) {
    const auto local = sim.simulate_parallel(tr, po);
    const bool same = local.total_cycles == out.total_cycles &&
                      local.corrected_instructions == out.corrected_instructions;
    std::printf("verify vs in-process: local CPI %.6f, distributed CPI %.6f "
                "— %s\n", local.cpi(), out.cpi(),
                same ? "bit-identical" : "MISMATCH");
    if (!same) {
      throw CheckError("distributed result diverged from the in-process "
                       "engine");
    }
  }
  coord.shutdown_workers();
  finish_obs(obs_flags);
  if (coord.drain_requested()) {
    // The run finished inside the drain window: report success, but exit
    // with the drain code so a supervisor sees "terminated by request".
    std::printf("drain requested — run completed before the deadline\n");
    return kExitDrained;
  }
  return 0;
}

int cmd_worker(int argc, char** argv) {
  dist::WorkerConfig cfg;
  bool have_endpoint = false;
  for (int i = 2; i < argc; ++i) {
    const std::string s = argv[i];
    std::string endpoint;
    if (s.rfind("--connect=", 0) == 0) {
      endpoint = s.substr(10);
    } else if (s.rfind("--heartbeat-ms=", 0) == 0) {
      cfg.heartbeat_ms = static_cast<int>(std::min<std::uint64_t>(
          parse_positive("--heartbeat-ms", s.substr(15)),
          std::numeric_limits<int>::max()));
      continue;
    } else if (s == "--no-reconnect") {
      cfg.reconnect_after_kill = false;
      continue;
    } else if (s.rfind("--leave-after=", 0) == 0) {
      cfg.leave_after_shards = static_cast<std::size_t>(
          parse_positive("--leave-after", s.substr(14)));
      continue;
    } else if (s.rfind("--reconnect-budget=", 0) == 0) {
      cfg.reconnect_budget = static_cast<int>(std::min<std::uint64_t>(
          parse_positive("--reconnect-budget", s.substr(19)),
          std::numeric_limits<int>::max()));
      continue;
    } else if (!s.empty() && s[0] != '-') {
      endpoint = s;  // bare host:port positional
    } else {
      std::fprintf(stderr, "unknown flag %s\n", s.c_str());
      return 2;
    }
    const auto hp = net::parse_host_port(endpoint);
    if (!hp.has_value()) {
      throw UsageError("--connect: '" + endpoint +
                       "' is not a valid host:port endpoint");
    }
    cfg.host = hp->host;
    cfg.port = hp->port;
    have_endpoint = true;
  }
  if (!have_endpoint) {
    std::fprintf(stderr, "usage: mlsim_cli worker --connect=host:port "
                         "[--heartbeat-ms=M] [--no-reconnect] "
                         "[--leave-after=N] [--reconnect-budget=N]\n");
    return 2;
  }
  std::printf("worker joining %s:%u\n", cfg.host.c_str(), cfg.port);
  std::fflush(stdout);
  // Record spans so a coordinator-propagated trace context (AssignMsg
  // trace_id) produces worker spans in the merged cross-process trace. The
  // ring is fixed-size and updates are lock-free, so this stays cheap even
  // when no coordinator ever requests tracing.
  if (obs::kCompiledIn) obs::set_enabled(true);
  const auto st = dist::run_worker(cfg);
  std::printf("worker done: %zu shard(s) computed across %zu session(s), "
              "%zu simulated kill(s), %zu rejoin(s)\n",
              st.shards_computed, st.sessions, st.kills_simulated,
              st.rejoins);
  return 0;
}

/// Soak the resilient service: a burst of requests across all priority
/// classes, optionally under chaos (fault injection + real worker stalls),
/// with every typed outcome tallied at the end.
int cmd_serve(int argc, char** argv) {
  ObsFlags obs_flags;
  std::vector<std::string> pos;
  std::size_t requests = 32, workers = 2, queue = 8, parallel = 4;
  std::size_t tenant_quota = 0;
  std::uint64_t deadline_ms = 0, stall_ms = 0;
  std::uint64_t drain_timeout_ms = 5000;
  bool have_telemetry = false;
  std::uint16_t telemetry_port = 0;
  bool batching = false;
  std::size_t batch_max = 64;
  std::uint64_t batch_wait_us = 100;
  device::FaultOptions fault;
  fault.seed = 1;
  bool any_fault = false;
  for (int i = 2; i < argc; ++i) {
    const std::string s = argv[i];
    if (parse_obs_flag(s, obs_flags)) continue;
    if (s.rfind("--requests=", 0) == 0) {
      requests = parse_size("--requests", s.substr(11));
    } else if (s.rfind("--telemetry-port=", 0) == 0) {
      telemetry_port = parse_port("--telemetry-port", s.substr(17));
      have_telemetry = true;
    } else if (s.rfind("--workers=", 0) == 0) {
      workers =
          static_cast<std::size_t>(parse_positive("--workers", s.substr(10)));
    } else if (s.rfind("--queue=", 0) == 0) {
      queue = static_cast<std::size_t>(parse_positive("--queue", s.substr(8)));
    } else if (s.rfind("--parallel=", 0) == 0) {
      parallel = static_cast<std::size_t>(
          parse_positive("--parallel", s.substr(11)));
    } else if (s.rfind("--deadline-ms=", 0) == 0) {
      deadline_ms = parse_ms("--deadline-ms", s.substr(14));
    } else if (s.rfind("--tenant-quota=", 0) == 0) {
      tenant_quota = static_cast<std::size_t>(
          parse_positive("--tenant-quota", s.substr(15)));
    } else if (s.rfind("--stall-ms=", 0) == 0) {
      stall_ms = parse_ms("--stall-ms", s.substr(11));
    } else if (s.rfind("--drain-timeout-ms=", 0) == 0) {
      drain_timeout_ms = parse_positive("--drain-timeout-ms", s.substr(19));
    } else if (s == "--batch") {
      batching = true;
    } else if (s.rfind("--batch=", 0) == 0) {
      batching = true;
      batch_max =
          static_cast<std::size_t>(parse_positive("--batch", s.substr(8)));
    } else if (s.rfind("--batch-wait-us=", 0) == 0) {
      batching = true;
      batch_wait_us = parse_u64("--batch-wait-us", s.substr(16));
    } else if (s.rfind("--fault-kill=", 0) == 0) {
      fault.device_kill_rate = parse_rate("--fault-kill", s.substr(13));
      any_fault = true;
    } else if (s.rfind("--fault-corrupt=", 0) == 0) {
      fault.output_corrupt_rate = parse_rate("--fault-corrupt", s.substr(16));
      any_fault = true;
    } else if (s.rfind("--fault-straggler=", 0) == 0) {
      fault.straggler_rate = parse_rate("--fault-straggler", s.substr(18));
      any_fault = true;
    } else if (s.rfind("--fault-seed=", 0) == 0) {
      fault.seed = parse_u64("--fault-seed", s.substr(13));
    } else if (!s.empty() && s[0] != '-') {
      pos.push_back(s);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", s.c_str());
      return 2;
    }
  }
  if (pos.empty()) {
    std::fprintf(stderr,
                 "usage: mlsim_cli serve <benchmark|trace.bin> [instructions] "
                 "[--requests=N] [--workers=W] [--queue=Q] [--parallel=P] "
                 "[--deadline-ms=D] [--tenant-quota=N] [--telemetry-port=N] "
                 "[--drain-timeout-ms=T] [--batch[=N]] "
                 "[--batch-wait-us=U] [--fault-kill=R] [--fault-corrupt=R] "
                 "[--fault-straggler=R] [--fault-seed=S] [--stall-ms=M] "
                 "[--metrics[=path]] [--trace-out=file.json]\n");
    return 2;
  }
  const std::size_t n =
      pos.size() > 1 ? parse_size("[instructions]", pos[1]) : 20000;
  enable_obs(obs_flags);
  const auto tr = acquire(pos[0], n);

  core::AnalyticPredictor primary, fallback;
  service::ServiceOptions so;
  so.num_workers = workers;
  so.queue_capacity = queue;
  so.tenant_quota = tenant_quota;
  so.batching = batching;
  so.batcher.max_batch = batch_max;
  so.batcher.max_wait = std::chrono::microseconds(batch_wait_us);
  service::SimulationService svc(primary, fallback, so);
  const device::FaultInjector injector(fault);

  obs::TelemetryServer telemetry;
  if (have_telemetry) {
    if (obs::kCompiledIn && !obs::enabled()) obs::set_enabled(true);
    obs::TelemetryOptions to;
    to.port = telemetry_port;
    to.health = [&svc](std::size_t errs) { return svc.health_json(errs); };
    if (telemetry.start(std::move(to))) {
      std::printf("telemetry on http://127.0.0.1:%u/metrics (also /healthz, "
                  "/tracez)\n", telemetry.port());
    } else {
      std::fprintf(stderr, "note: built with MLSIM_OBS_DISABLE=ON; "
                           "--telemetry-port is inert\n");
    }
  }

  std::printf("serving %zu requests (%zu workers, queue %zu, %zu sub-traces"
              "%s%s%s)\n",
              requests, workers, queue, parallel,
              any_fault ? ", chaos on" : "",
              deadline_ms ? ", deadline set" : "",
              batching ? ", batching on" : "");
  std::vector<service::SimulationService::Ticket> tickets;
  tickets.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    service::Request rq;
    rq.trace = &tr;
    rq.engine = service::EngineKind::kParallel;
    rq.num_subtraces = parallel;
    rq.priority = static_cast<service::Priority>(i % service::kNumPriorities);
    if (tenant_quota > 0) {
      // Spread the soak across three synthetic tenants so the quota and the
      // fair-share drain actually engage.
      rq.tenant = "tenant-" + std::to_string(i % 3);
    }
    if (deadline_ms > 0) rq.deadline = std::chrono::milliseconds(deadline_ms);
    if (any_fault) {
      rq.faults = &injector;
      rq.straggler_stall = std::chrono::milliseconds(stall_ms);
    }
    tickets.push_back(svc.submit(std::move(rq)));
  }

  // Collect outcomes, watching the signal pipe: a SIGTERM/SIGINT mid-soak
  // drains the service (stop admitting, let in-flight requests finish,
  // cancel the rest) instead of dying with futures unresolved.
  net::SignalPipe& sig = net::SignalPipe::install(kExitForced);
  bool drained = false;
  std::size_t by_status[9] = {};
  for (auto& t : tickets) {
    while (t.future.wait_for(std::chrono::milliseconds(50)) !=
           std::future_status::ready) {
      if (drained || !sig.signalled()) continue;
      std::printf("signal %d: draining (timeout %llu ms)\n",
                  sig.last_signal(),
                  static_cast<unsigned long long>(drain_timeout_ms));
      std::fflush(stdout);
      // shutdown() blocks until in-flight work finishes — bound it with
      // the drain deadline. On timeout, leave without running destructors
      // (the stopper thread still owns the service).
      auto stopper =
          std::async(std::launch::async, [&svc] { svc.shutdown(); });
      if (stopper.wait_for(std::chrono::milliseconds(drain_timeout_ms)) ==
          std::future_status::timeout) {
        std::fprintf(stderr, "drain deadline exceeded — exiting\n");
        std::_Exit(kExitDrained);
      }
      drained = true;
    }
    const service::Response rsp = t.future.get();
    ++by_status[static_cast<std::size_t>(rsp.status)];
  }
  Table table({"outcome", "requests"});
  for (std::size_t s = 0; s < 9; ++s) {
    if (by_status[s] == 0) continue;
    table.add_row({std::string(to_string(
                       static_cast<service::ResponseStatus>(s))),
                   static_cast<std::int64_t>(by_status[s])});
  }
  table.print(std::cout);
  const auto st = svc.stats();
  std::printf("hangs detected %llu | hang requeues %llu | degraded %llu | "
              "breaker %s (%llu trips)\n",
              static_cast<unsigned long long>(st.hangs_detected),
              static_cast<unsigned long long>(st.hang_requeues),
              static_cast<unsigned long long>(st.degraded),
              to_string(svc.breaker_state()),
              static_cast<unsigned long long>(svc.breaker_trips()));
  if (const auto* b = svc.batcher()) {
    const auto bs = b->stats();
    std::printf("batcher: %llu windows in %llu flushes (max batch %zu; "
                "size %llu / all-waiting %llu / deadline %llu / shutdown "
                "%llu) | modeled inference %.1f us batched vs %.1f us "
                "unbatched\n",
                static_cast<unsigned long long>(bs.items_predicted),
                static_cast<unsigned long long>(bs.flushes),
                bs.max_batch_observed,
                static_cast<unsigned long long>(bs.flush_size),
                static_cast<unsigned long long>(bs.flush_all_waiting),
                static_cast<unsigned long long>(bs.flush_deadline),
                static_cast<unsigned long long>(bs.flush_shutdown),
                bs.modeled_batched_us, bs.modeled_unbatched_us);
  }
  std::printf("health: %s\n", svc.health_json().c_str());
  svc.shutdown();
  finish_obs(obs_flags);
  return drained ? kExitDrained : 0;
}

/// Serialize a sweep report as JSON (stable field order, lattice order).
std::string sweep_report_json(const sweep::SweepSpec& spec,
                              const sweep::SweepReport& report) {
  std::ostringstream os;
  os << "{\"benchmark\":\"" << spec.benchmark << '"'
     << ",\"instructions\":" << spec.instructions
     << ",\"points\":[";
  for (std::size_t i = 0; i < report.points.size(); ++i) {
    const auto& p = report.points[i];
    if (i > 0) os << ',';
    os << "{\"index\":" << p.point.index << ",\"settings\":{";
    for (std::size_t j = 0; j < p.point.settings.size(); ++j) {
      if (j > 0) os << ',';
      os << '"' << p.point.settings[j].first << "\":\""
         << p.point.settings[j].second << '"';
    }
    os << "},\"cpi\":" << p.cpi << ",\"truth_cpi\":" << p.truth_cpi
       << ",\"area\":" << p.area << ",\"total_cycles\":" << p.total_cycles
       << ",\"on_frontier\":" << (p.on_frontier ? "true" : "false") << '}';
  }
  os << "],\"frontier\":[";
  for (std::size_t i = 0; i < report.frontier.size(); ++i) {
    if (i > 0) os << ',';
    os << report.frontier[i];
  }
  os << "],\"sensitivity\":[";
  for (std::size_t i = 0; i < report.sensitivity.size(); ++i) {
    const auto& s = report.sensitivity[i];
    if (i > 0) os << ',';
    os << "{\"axis\":\"" << s.key << "\",\"span\":" << s.span
       << ",\"mean_cpi\":{";
    for (std::size_t j = 0; j < s.values.size(); ++j) {
      if (j > 0) os << ',';
      os << '"' << s.values[j] << "\":" << s.mean_cpi[j];
    }
    os << "}}";
  }
  os << "],\"elapsed_s\":" << report.elapsed_s
     << ",\"points_per_sec\":" << report.points_per_sec << '}';
  return os.str();
}

/// Design-space exploration: expand a config lattice, simulate every point
/// (locally or through a worker cluster), rank the Pareto frontier.
int cmd_sweep(int argc, char** argv) {
  ObsFlags obs_flags;
  std::vector<std::string> pos;
  std::string spec_path;
  std::vector<sweep::SweepAxis> axes;
  std::size_t parallel = 4, gpus = 1, context = 64;
  bool recovery = true;
  std::uint64_t seed = 1;
  bool pareto_only = false;
  std::size_t top = 0;
  bool json = false;
  std::string json_path;
  std::uint16_t port = 0;
  std::size_t workers = 0;
  int heartbeat_timeout_ms = 2000, run_timeout_ms = 120000;
  bool steal = false;
  std::size_t result_cache = 0;
  std::size_t repeat = 1;
  bool have_telemetry = false;
  std::uint16_t telemetry_port = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string s = argv[i];
    if (parse_obs_flag(s, obs_flags)) continue;
    if (s.rfind("--spec=", 0) == 0) {
      spec_path = s.substr(7);
      if (spec_path.empty()) throw UsageError("--spec needs a path");
    } else if (s == "--axis") {
      if (i + 1 >= argc) {
        throw UsageError("--axis needs a key=v1,v2,... operand");
      }
      const auto [key, values] = split_axis_flag("--axis", argv[++i]);
      sweep::SweepAxis ax;
      ax.key = key;
      std::size_t start = 0;
      while (start <= values.size()) {
        const auto comma = values.find(',', start);
        const std::string v = values.substr(
            start,
            comma == std::string::npos ? std::string::npos : comma - start);
        if (v.empty()) {
          throw UsageError("--axis " + key + ": empty value in list");
        }
        ax.values.push_back(v);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
      axes.push_back(std::move(ax));
    } else if (s.rfind("--axis=", 0) == 0) {
      throw UsageError("--axis takes a separate operand: "
                       "--axis key=v1,v2,...");
    } else if (s.rfind("--parallel=", 0) == 0) {
      parallel = static_cast<std::size_t>(
          parse_positive("--parallel", s.substr(11)));
    } else if (s.rfind("--gpus=", 0) == 0) {
      gpus = static_cast<std::size_t>(parse_positive("--gpus", s.substr(7)));
    } else if (s.rfind("--context=", 0) == 0) {
      context = static_cast<std::size_t>(
          parse_positive("--context", s.substr(10)));
    } else if (s == "--no-recovery") {
      recovery = false;
    } else if (s.rfind("--seed=", 0) == 0) {
      seed = parse_u64("--seed", s.substr(7));
    } else if (s == "--pareto") {
      pareto_only = true;
    } else if (s.rfind("--top=", 0) == 0) {
      top = static_cast<std::size_t>(parse_positive("--top", s.substr(6)));
    } else if (s == "--json") {
      json = true;
    } else if (s.rfind("--json=", 0) == 0) {
      json = true;
      json_path = s.substr(7);
      if (json_path.empty()) throw UsageError("--json= needs a path");
    } else if (s.rfind("--port=", 0) == 0) {
      port = parse_port("--port", s.substr(7));
    } else if (s.rfind("--workers=", 0) == 0) {
      workers =
          static_cast<std::size_t>(parse_positive("--workers", s.substr(10)));
    } else if (s.rfind("--heartbeat-ms=", 0) == 0) {
      heartbeat_timeout_ms = static_cast<int>(std::min<std::uint64_t>(
          parse_positive("--heartbeat-ms", s.substr(15)),
          std::numeric_limits<int>::max()));
    } else if (s.rfind("--timeout-ms=", 0) == 0) {
      run_timeout_ms = static_cast<int>(std::min<std::uint64_t>(
          parse_u64("--timeout-ms", s.substr(13)),
          std::numeric_limits<int>::max()));
    } else if (s == "--steal") {
      steal = true;
    } else if (s == "--result-cache") {
      result_cache = 1024;
    } else if (s.rfind("--result-cache=", 0) == 0) {
      result_cache = static_cast<std::size_t>(
          parse_positive("--result-cache", s.substr(15)));
    } else if (s.rfind("--repeat=", 0) == 0) {
      repeat = static_cast<std::size_t>(
          parse_positive("--repeat", s.substr(9)));
    } else if (s.rfind("--telemetry-port=", 0) == 0) {
      telemetry_port = parse_port("--telemetry-port", s.substr(17));
      have_telemetry = true;
    } else if (!s.empty() && s[0] != '-') {
      pos.push_back(s);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", s.c_str());
      return 2;
    }
  }

  if (spec_path.empty() && pos.empty()) {
    std::fprintf(stderr,
                 "usage: mlsim_cli sweep <benchmark> [instructions] | "
                 "--spec=FILE [--axis key=v1,v2,...]... [--parallel=P] "
                 "[--gpus=G] [--context=C] [--no-recovery] [--seed=S] "
                 "[--pareto] [--top=N] [--json[=path]] [--port=N] "
                 "[--workers=W] [--heartbeat-ms=M] [--timeout-ms=T] "
                 "[--steal] [--result-cache[=N]] [--repeat=N] "
                 "[--telemetry-port=N] [--metrics[=path]] "
                 "[--trace-out=file.json]\n");
    return 2;
  }
  if (!spec_path.empty() && !pos.empty()) {
    throw UsageError("--spec and a positional benchmark are mutually "
                     "exclusive (put benchmark/instructions in the spec "
                     "file)");
  }
  if (pos.size() > 2) {
    throw UsageError("sweep takes at most two positionals: <benchmark> "
                     "[instructions]");
  }
  if (result_cache > 0 && workers == 0) {
    throw UsageError("--result-cache is the coordinator's shard cache and "
                     "requires --workers=W");
  }

  sweep::SweepSpec spec;
  if (!spec_path.empty()) {
    spec = sweep::load_spec_text(spec_path);
  } else {
    spec.benchmark = pos[0];
    spec.instructions =
        pos.size() > 1 ? parse_size("[instructions]", pos[1]) : 200000;
  }
  for (auto& ax : axes) spec.axes.push_back(std::move(ax));
  // Strict up-front validation: an unknown axis, a duplicate (including a
  // --axis colliding with a spec-file axis), or an unparsable value — e.g.
  // an unimplemented replacement policy — is a usage error (exit 2), caught
  // before any simulation work runs.
  validate_as_usage([&] { sweep::validate_spec(spec); });

  enable_obs(obs_flags);

  sweep::SweepOptions so;
  so.num_subtraces = parallel;
  so.num_gpus = gpus;
  so.context_length = context;
  so.recovery = recovery;
  so.seed = seed;

  // Sweep progress for /healthz: plain atomics the telemetry thread reads.
  std::atomic<std::size_t> points_done{0};
  std::atomic<std::size_t> iterations_done{0};
  const std::size_t points_total = spec.points();
  so.progress = [&points_done](std::size_t done, std::size_t) {
    points_done.store(done, std::memory_order_relaxed);
  };

  obs::TelemetryServer telemetry;
  if (have_telemetry) {
    if (obs::kCompiledIn && !obs::enabled()) obs::set_enabled(true);
    obs::TelemetryOptions to;
    to.port = telemetry_port;
    to.health = [&points_done, &iterations_done, points_total,
                 repeat](std::size_t) {
      std::ostringstream os;
      os << "{\"status\":\"ok\",\"sweep\":{\"points_total\":" << points_total
         << ",\"points_done\":"
         << points_done.load(std::memory_order_relaxed)
         << ",\"iterations_done\":"
         << iterations_done.load(std::memory_order_relaxed)
         << ",\"iterations\":" << repeat << "}}";
      return os.str();
    };
    if (telemetry.start(std::move(to))) {
      std::printf("telemetry on http://127.0.0.1:%u/metrics (also /healthz, "
                  "/tracez)\n", telemetry.port());
    } else {
      std::fprintf(stderr, "note: built with MLSIM_OBS_DISABLE=ON; "
                           "--telemetry-port is inert\n");
    }
  }

  std::optional<dist::DistCoordinator> coord;
  if (workers > 0) {
    dist::CoordinatorOptions co;
    co.min_workers = workers;
    co.heartbeat_timeout_ms = heartbeat_timeout_ms;
    co.run_timeout_ms = run_timeout_ms;
    co.steal = steal;
    co.result_cache_entries = result_cache;
    coord.emplace(net::TcpListener::bind(port), co);
    so.remote = &*coord;
    std::printf("sweep coordinator listening on 127.0.0.1:%u — waiting for "
                "%zu worker(s); join with:\n  mlsim_cli worker "
                "--connect=127.0.0.1:%u\n",
                coord->port(), workers, coord->port());
  }
  std::printf("sweeping %s: %zu point(s) across %zu axis/axes, %zu "
              "instructions each%s\n",
              spec.benchmark.c_str(), points_total, spec.axes.size(),
              spec.instructions, workers > 0 ? " (distributed)" : "");
  std::fflush(stdout);

  sweep::SweepReport report;
  for (std::size_t it = 0; it < repeat; ++it) {
    std::size_t dispatched0 = 0, cache_hits0 = 0;
    if (coord.has_value()) {
      dispatched0 = coord->stats().shards_dispatched;
      cache_hits0 = coord->stats().cache_hits;
    }
    points_done.store(0, std::memory_order_relaxed);
    report = sweep::run_sweep(spec, so);
    iterations_done.store(it + 1, std::memory_order_relaxed);
    if (repeat > 1 || coord.has_value()) {
      std::printf("iteration %zu/%zu: %zu points in %.3f s (%.2f points/s)",
                  it + 1, repeat, report.points.size(), report.elapsed_s,
                  report.points_per_sec);
      if (coord.has_value()) {
        const auto& st = coord->stats();
        std::printf(" | +%zu shard(s) dispatched, +%zu cache hit(s)",
                    st.shards_dispatched - dispatched0,
                    st.cache_hits - cache_hits0);
      }
      std::printf("\n");
      std::fflush(stdout);
    }
  }
  if (coord.has_value()) coord->shutdown_workers();

  if (json) {
    const std::string body = sweep_report_json(spec, report);
    if (json_path.empty()) {
      std::printf("%s\n", body.c_str());
    } else {
      std::ofstream os(json_path);
      if (!os.is_open()) {
        throw IoError("cannot write sweep report to " + json_path);
      }
      os << body << '\n';
      std::printf("[sweep report written to %s]\n", json_path.c_str());
    }
  } else {
    // Row selection: frontier only (--pareto), N best by CPI (--top), or
    // the whole lattice in row-major order.
    std::vector<std::size_t> rows;
    if (pareto_only) {
      rows = report.frontier;
    } else {
      rows.resize(report.points.size());
      for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
    }
    if (top > 0) {
      std::sort(rows.begin(), rows.end(), [&](std::size_t a, std::size_t b) {
        if (report.points[a].cpi != report.points[b].cpi) {
          return report.points[a].cpi < report.points[b].cpi;
        }
        return a < b;
      });
      if (rows.size() > top) rows.resize(top);
    }
    Table t({"point", "ML CPI", "truth CPI", "area (kc)", "pareto"});
    for (const std::size_t i : rows) {
      const auto& p = report.points[i];
      const std::string label =
          p.point.settings.empty() ? "(base)" : p.point.label();
      t.add_row({label, p.cpi, p.truth_cpi, p.area,
                 std::string(p.on_frontier ? "*" : "")});
    }
    t.set_precision(4);
    t.print(std::cout);
    if (!report.sensitivity.empty()) {
      Table s({"axis", "CPI span", "best value (lowest mean CPI)"});
      for (const auto& ax : report.sensitivity) {
        std::size_t best = 0;
        for (std::size_t j = 1; j < ax.mean_cpi.size(); ++j) {
          if (ax.mean_cpi[j] < ax.mean_cpi[best]) best = j;
        }
        s.add_row({ax.key, ax.span,
                   ax.values.empty() ? std::string() : ax.values[best]});
      }
      s.set_precision(4);
      s.print(std::cout);
    }
    std::printf("%zu point(s) | %zu on the Pareto frontier | %.3f s | "
                "%.2f points/s\n",
                report.points.size(), report.frontier.size(),
                report.elapsed_s, report.points_per_sec);
  }
  finish_obs(obs_flags);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: mlsim_cli <trace|simulate|sweep|suite|rates|stream|"
                 "serve|coordinator|worker> ...\n");
    return 2;
  }
  // Distinct exit codes per failure class so scripts and the test harness
  // can tell bad invocations (2) from broken files (3), corrupt data (4),
  // and genuine bugs (5). See the header comment.
  try {
    const std::string cmd = argv[1];
    if (cmd == "trace") return cmd_trace(argc, argv);
    if (cmd == "simulate") return cmd_simulate(argc, argv);
    if (cmd == "sweep") return cmd_sweep(argc, argv);
    if (cmd == "suite") return cmd_suite(argc, argv);
    if (cmd == "rates") return cmd_rates(argc, argv);
    if (cmd == "stream") return cmd_stream(argc, argv);
    if (cmd == "serve") return cmd_serve(argc, argv);
    if (cmd == "coordinator") return cmd_coordinator(argc, argv);
    if (cmd == "worker") return cmd_worker(argc, argv);
    std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
    return 2;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "mlsim_cli: %s\n", e.what());
    return 2;
  } catch (const DrainError& e) {
    // Graceful drain, not a failure: progress is journaled for --resume.
    std::fprintf(stderr, "mlsim_cli: %s\n", e.what());
    return kExitDrained;
  } catch (const IoError& e) {
    std::fprintf(stderr, "mlsim_cli: I/O error: %s\n", e.what());
    return 3;
  } catch (const std::filesystem::filesystem_error& e) {
    std::fprintf(stderr, "mlsim_cli: I/O error: %s\n", e.what());
    return 3;
  } catch (const CheckError& e) {
    std::fprintf(stderr, "mlsim_cli: %s\n", e.what());
    return 4;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mlsim_cli: internal error: %s\n", e.what());
    return 5;
  }
}
