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
// Observability (simulate/suite/stream/serve/coordinator/sweep; see
// docs/OBSERVABILITY.md):
//   --metrics[=path]     enable the metrics registry; print a per-phase
//                        breakdown and the registry dump (text to stdout, or
//                        to `path` — JSON when it ends in .json).
//   --trace-out=<file>   record scoped spans and write Chrome trace-event
//                        JSON loadable in chrome://tracing / Perfetto. The
//                        target directory must exist and be writable (checked
//                        up front, before the run).
//   --telemetry-port=N   (serve/coordinator/sweep) serve live GET /metrics
//                        (Prometheus), /healthz (health JSON, with
//                        ?last_errors=N flight-recorder post-mortems), and
//                        /tracez (Chrome trace) on 127.0.0.1:N while the
//                        command runs (0 = ephemeral; the bound port is
//                        printed).
//
// Every flag is one row of the subcommand's table (src/common/flags.h); a
// usage error prints the subcommand's synopsis, rendered from that table.
//
// Exit codes: 0 success, 2 bad usage, 3 I/O failure (missing/unwritable
// files), 4 corrupt data or violated invariant (CheckError), 5 any other
// internal error, 6 graceful drain after SIGTERM/SIGINT (progress journaled
// — not a failure), 7 forced exit on a second signal.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/artifacts.h"
#include "common/check.h"
#include "common/flags.h"
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
#include "obs/report.h"
#include "obs/telemetry_http.h"
#include "service/service.h"
#include "sweep/sweep.h"
#include "trace/stream.h"

using namespace mlsim;
using flags::Kind;
using flags::UsageError;

namespace {

/// Graceful drain after SIGTERM/SIGINT: not a failure — progress was
/// journaled (coordinator) or in-flight requests finished (serve).
constexpr int kExitDrained = 6;
/// A second signal while draining: immediate _exit from the handler.
constexpr int kExitForced = 7;

// ---------------------------------------------------------- flag groups --
// Flags several subcommands share, each declared once.

/// The partitioned engine (§V): --parallel, --gpus, --context, --no-recovery.
struct Engine {
  std::size_t parallel = 4, gpus = 1, context = 64;
  bool no_recovery = false;

  flags::Group flags() {
    return {{"--parallel=P", &parallel, Kind::kPositive},
            {"--gpus=G", &gpus, Kind::kPositive},
            {"--context=C", &context, Kind::kPositive},
            {"--no-recovery", &no_recovery}};
  }
  core::MLSimulator simulator() const {
    core::MLSimulator::Options opts;
    opts.context_length = context;
    return core::MLSimulator(opts);
  }
  core::ParallelSimOptions options(const core::MLSimulator& sim) const {
    return sim.parallel_options(parallel, gpus, !no_recovery, !no_recovery);
  }
};

/// Seeded fault injection (docs/RESILIENCE.md): a --fault-<kind>=R rate per
/// fault kind the command injects, and --fault-seed.
struct Faults {
  device::FaultOptions opts{.seed = 1};
  bool any = false;  // a rate flag was given

  /// simulate and serve inject device faults; the coordinator, worker kills.
  flags::Group flags(bool worker_kills) {
    flags::Group g;
    if (worker_kills) {
      g = {{"--fault-worker-kill=R", &opts.worker_kill_rate, Kind::kRate,
            &any}};
    } else {
      g = {{"--fault-kill=R", &opts.device_kill_rate, Kind::kRate, &any},
           {"--fault-corrupt=R", &opts.output_corrupt_rate, Kind::kRate, &any},
           {"--fault-straggler=R", &opts.straggler_rate, Kind::kRate, &any}};
    }
    g.push_back({"--fault-seed=S", &opts.seed});
    return g;
  }
};

/// --checkpoint[=path] and --resume, which implies --checkpoint: a killed
/// simulate resumes past its finished partitions, a suite past its jobs.
struct Checkpoint {
  bool on = false, resume = false;
  std::string path;

  flags::Group flags() {
    return {{"--checkpoint[=path]", &path, Kind::kText, &on},
            {.spec = "--resume", .field = &resume, .seen = &on}};
  }
  /// The checkpoint file (`default_name` in the artifact cache unless a
  /// path was given); empty without --checkpoint.
  std::filesystem::path file(const std::string& default_name) const {
    if (!on) return {};
    return path.empty() ? artifact_path(default_name)
                        : std::filesystem::path(path);
  }
};

/// The coordinator of a worker cluster (docs/DISTRIBUTED.md), for
/// `coordinator` and `sweep --workers`: --port, --workers, --heartbeat-ms,
/// --timeout-ms, --steal, --result-cache[=N].
struct Cluster {
  std::uint16_t port = 0;
  dist::CoordinatorOptions co;
  bool result_cache = false;  // --result-cache was given

  flags::Group flags() {
    return {{"--port=N", &port},
            {"--workers=W", &co.min_workers, Kind::kPositive},
            {"--heartbeat-ms=M", &co.heartbeat_timeout_ms, Kind::kPositiveMs},
            {"--timeout-ms=T", &co.run_timeout_ms, Kind::kMs},
            {"--steal", &co.steal},
            {"--result-cache[=N]", &co.result_cache_entries, Kind::kPositive,
             &result_cache}};
  }
  /// The parsed options; a bare --result-cache keeps 1024 shard outcomes.
  dist::CoordinatorOptions options() const {
    dist::CoordinatorOptions o = co;
    if (result_cache && o.result_cache_entries == 0) {
      o.result_cache_entries = 1024;
    }
    return o;
  }
};

/// --telemetry-port=N: serve live /metrics, /healthz and /tracez on
/// 127.0.0.1:N while the command runs (docs/OBSERVABILITY.md).
struct Telemetry {
  bool on = false;
  std::uint16_t port = 0;

  flags::Flag flag() {
    return {"--telemetry-port=N", &port, Kind::kCount, &on};
  }

  /// Start `server` when the flag was given; `health` renders /healthz.
  void start(obs::TelemetryServer& server,
             std::function<std::string(std::size_t)> health) const {
    if (!on) return;
    if (obs::kCompiledIn && !obs::enabled()) obs::set_enabled(true);
    if (server.start({port, std::move(health)})) {
      std::printf("telemetry on http://127.0.0.1:%u/metrics (also /healthz, "
                  "/tracez)\n", server.port());
    } else {
      std::fprintf(stderr, "note: built with MLSIM_OBS_DISABLE=ON; "
                           "--telemetry-port is inert\n");
    }
  }
};

/// --drain-timeout-ms: how long a SIGTERM/SIGINT drain lets in-flight work
/// finish before the process exits 6.
flags::Flag drain_flag(int& ms) {
  return {"--drain-timeout-ms=T", &ms, Kind::kPositiveMs};
}

// -------------------------------------------------------------- helpers --

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

trace::EncodedTrace acquire(const std::string& what, std::size_t n,
                            const uarch::MachineConfig& machine = {}) {
  if (std::filesystem::exists(what)) return trace::EncodedTrace::load(what);
  return core::labeled_trace(what, n == 0 ? 200000 : n, machine);
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

// ---------------------------------------------------------- subcommands --

int cmd_trace(flags::CommandLine& cli) {
  std::string abbr, out;
  std::size_t n = 0;
  cli.parse({{{"<benchmark>", &abbr, Kind::kText},
              {"<instructions>", &n},
              {"[out.bin]", &out, Kind::kPath}}});
  const auto tr = core::labeled_trace(abbr, n);
  std::printf("generated %zu labeled instructions of %s (CPI %.3f)\n", tr.size(),
              abbr.c_str(),
              static_cast<double>(core::total_cycles_from_targets(tr)) /
                  static_cast<double>(tr.size()));
  if (!out.empty()) {
    tr.save(out);
    std::printf("saved to %s\n", out.c_str());
  }
  return 0;
}

int cmd_simulate(flags::CommandLine& cli) {
  std::string input;
  std::size_t n = 0, retries = 3;
  Engine engine;
  engine.parallel = 0;  // one optimised device unless --parallel is given
  Faults faults;
  Checkpoint checkpoint;
  std::vector<std::string> sets;
  obs::Report reports;
  cli.parse({{{"<benchmark|trace.bin>", &input, Kind::kText},
              {"[instructions]", &n}},
             engine.flags(),
             faults.flags(false),
             {{"--retries=N", &retries}},
             checkpoint.flags(),
             {{"--set key=value", &sets}},
             reports.flags()});
  if (engine.parallel == 0 && (faults.any || checkpoint.on)) {
    throw UsageError("--fault-*/--checkpoint/--resume require --parallel=P "
                     "(fault tolerance is a parallel-simulation feature)");
  }
  // --set alters the machine the *trace* is generated with; the predictor
  // and engine path stay identical (docs/SWEEPS.md), which is what makes a
  // sweep point bit-identical to this command.
  uarch::MachineConfig machine;
  if (!sets.empty()) {
    if (std::filesystem::exists(input)) {
      throw UsageError("--set regenerates the trace for the modified machine "
                       "and needs a benchmark name, not a trace file");
    }
    validate_as_usage([&] {
      for (const std::string& set : sets) {
        const auto [key, value] = split_axis_flag("--set", set);
        sweep::apply_axis(machine, key, value);
      }
    });
  }
  reports.start();
  const auto tr = acquire(input, n, machine);
  core::MLSimulator sim = engine.simulator();

  if (engine.parallel == 0) {
    const auto out = sim.simulate(tr);
    // With --metrics the aggregate one-liner grows into the full §IV
    // per-phase breakdown the paper's Fig. 2/11-16 reason about.
    if (reports.metrics) print_phase_table(out);
    std::printf("single device: CPI %.4f | err vs truth %+.2f%% | %.3f MIPS "
                "(modeled) | ctx occupancy %.2f\n",
                out.cpi(),
                tr.labeled() ? sim.cpi_error_percent(tr, out.cpi()) : 0.0,
                out.mips(), out.avg_context_occupancy);
  } else {
    core::ParallelSimOptions po = engine.options(sim);
    const device::FaultInjector injector(faults.opts);
    if (faults.any) po.faults = &injector;
    po.max_retries_per_partition = retries;
    po.checkpoint_path = checkpoint.file("mlsim_cli_simulate.ckpt");
    po.resume = checkpoint.resume;
    const auto out = sim.simulate_parallel(tr, po);
    // The exact cycle total is what `sweep --json` reports per point, so a
    // single standalone run can be checked bit-identical against a sweep row.
    std::printf("parallel (%zu sub-traces, %zu GPUs, recovery %s): CPI %.4f | "
                "%llu cycles | err vs truth %+.2f%% | %.2f MIPS (modeled) | "
                "corrected %zu\n",
                engine.parallel, engine.gpus,
                engine.no_recovery ? "off" : "on", out.cpi(),
                static_cast<unsigned long long>(out.total_cycles),
                tr.labeled() ? sim.cpi_error_percent(tr, out.cpi()) : 0.0,
                out.mips(), out.corrected_instructions);
    if (faults.any || out.resumed) {
      std::printf("fault recovery: %zu failed partitions | %zu retries | "
                  "%zu degraded | %zu lost devices | backoff %.0f us%s\n",
                  out.failed_partitions.size(), out.retries,
                  out.degraded_partitions.size(), out.lost_devices,
                  out.retry_backoff_us,
                  out.resumed ? " | resumed from checkpoint" : "");
    }
  }
  reports.write();
  return 0;
}

int cmd_suite(flags::CommandLine& cli) {
  std::size_t n = 50000, gpus = 4;
  Checkpoint checkpoint;
  obs::Report reports;
  cli.parse({{{"[instructions-per-benchmark]", &n, Kind::kPositive},
              {"[gpus]", &gpus, Kind::kPositive}},
             checkpoint.flags(),
             reports.flags()});
  reports.start();
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
  const auto report = core::run_suite(pred, jobs, gpus, opts,
                                      checkpoint.file("mlsim_cli_suite.ckpt"),
                                      checkpoint.resume);

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
  reports.write();
  return 0;
}

int cmd_rates(flags::CommandLine& cli) {
  std::string input;
  std::size_t n = 0;
  cli.parse({{{"<benchmark|trace.bin>", &input, Kind::kText},
              {"[instructions]", &n}}});
  const auto tr = acquire(input, n);
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

int cmd_stream(flags::CommandLine& cli) {
  std::string abbr;
  std::uint64_t n = 0;
  std::size_t ctx = 64;
  obs::Report reports;
  cli.parse({{{"<benchmark>", &abbr, Kind::kText},
              {"<instructions>", &n, Kind::kPositive},
              {"[context]", &ctx, Kind::kPositive}},
             reports.flags()});
  reports.start();
  trace::LabeledTraceStream stream(trace::find_workload(abbr));
  core::AnalyticPredictor pred;
  const auto res = core::simulate_stream(pred, stream, n, ctx);
  std::printf("streamed %llu instructions of %s (context %zu, bounded memory)\n",
              static_cast<unsigned long long>(res.instructions), abbr.c_str(), ctx);
  std::printf("predicted CPI %.4f | ground-truth CPI %.4f | error %+.2f%%\n",
              res.cpi(), res.truth_cpi(),
              (res.truth_cpi() - res.cpi()) / res.truth_cpi() * 100.0);
  reports.write();
  return 0;
}

int cmd_coordinator(flags::CommandLine& cli) {
  std::string input, journal;
  std::size_t n = 20000;
  bool verify = false;
  Cluster cluster;
  Engine engine;
  Faults faults;
  Telemetry telemetry;
  obs::Report reports;
  cli.parse({{{"<benchmark|trace.bin>", &input, Kind::kText},
              {"[instructions]", &n}},
             cluster.flags(),
             engine.flags(),
             faults.flags(true),
             {{"--verify", &verify},
              {"--speculate-pct=P", &cluster.co.speculate_pct,
               Kind::kPositive},
              {"--journal=PATH", &journal, Kind::kPath},
              {"--resume", &cluster.co.resume},
              {"--journal-strict", &cluster.co.journal_strict},
              drain_flag(cluster.co.drain_timeout_ms),
              telemetry.flag()},
             reports.flags()});
  if (cluster.co.speculate_pct > 100.0) {
    throw UsageError("--speculate-pct must be a percentile in 1..100");
  }
  if (cluster.co.resume && journal.empty()) {
    throw UsageError("--resume requires --journal=PATH");
  }
  reports.start();
  // Bridge SIGTERM/SIGINT into the coordinator poll loop: first signal
  // starts a graceful drain (exit 6), second force-exits 7. Installed
  // before trace acquisition so a signal during slow labeling is queued
  // for the run loop instead of killing the process with work undone.
  net::SignalPipe& sig = net::SignalPipe::install(kExitForced);
  const auto tr = acquire(input, n);

  core::MLSimulator sim = engine.simulator();
  core::ParallelSimOptions po = engine.options(sim);
  const device::FaultInjector injector(faults.opts);
  if (faults.any) po.faults = &injector;

  dist::CoordinatorOptions opts = cluster.options();
  opts.journal_path = journal;
  opts.wake_fd = sig.fd();
  dist::DistCoordinator coord(net::TcpListener::bind(cluster.port), opts);
  std::printf("coordinator listening on 127.0.0.1:%u — waiting for %zu "
              "worker(s); join with:\n  mlsim_cli worker "
              "--connect=127.0.0.1:%u\n",
              coord.port(), opts.min_workers, coord.port());
  obs::TelemetryServer server;
  telemetry.start(server, [&coord](std::size_t errs) {
    return coord.cluster_json(errs);
  });
  std::fflush(stdout);

  const auto out = coord.run(tr, po);
  const auto& st = coord.stats();
  std::printf("distributed (%zu sub-traces, %zu GPU blocks): CPI %.4f | "
              "err vs truth %+.2f%% | %.2f MIPS (modeled) | corrected %zu\n",
              engine.parallel, engine.gpus, out.cpi(),
              tr.labeled() ? sim.cpi_error_percent(tr, out.cpi()) : 0.0,
              out.mips(), out.corrected_instructions);
  std::printf("cluster: %zu joined | %zu lost | %zu departed | "
              "%zu dispatched | %zu reassigned | %zu duplicates dropped | "
              "%zu heartbeats\n",
              st.workers_joined, st.workers_lost, st.workers_departed,
              st.shards_dispatched, st.reassignments, st.duplicates_dropped,
              st.heartbeats);
  if (opts.steal || opts.speculate_pct > 0.0 ||
      opts.result_cache_entries > 0 || !journal.empty()) {
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
  reports.write();
  if (coord.drain_requested()) {
    // The run finished inside the drain window: report success, but exit
    // with the drain code so a supervisor sees "terminated by request".
    std::printf("drain requested — run completed before the deadline\n");
    return kExitDrained;
  }
  return 0;
}

int cmd_worker(flags::CommandLine& cli) {
  dist::WorkerConfig cfg;
  std::string endpoint;
  bool no_reconnect = false;
  cli.parse({{{"[host:port]", &endpoint, Kind::kText},
              {"--connect=host:port", &endpoint, Kind::kText},
              {"--heartbeat-ms=M", &cfg.heartbeat_ms, Kind::kPositiveMs},
              {"--no-reconnect", &no_reconnect},
              {"--leave-after=N", &cfg.leave_after_shards, Kind::kPositive},
              {"--reconnect-budget=N", &cfg.reconnect_budget,
               Kind::kPositive}}});
  const auto hp = net::parse_host_port(endpoint);
  if (!hp.has_value()) {
    throw UsageError("--connect: '" + endpoint +
                     "' is not a valid host:port endpoint");
  }
  cfg.host = hp->host;
  cfg.port = hp->port;
  cfg.reconnect_after_kill = !no_reconnect;
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
int cmd_serve(flags::CommandLine& cli) {
  std::string input;
  std::size_t n = 20000, requests = 32, parallel = 4;
  std::uint64_t deadline_ms = 0, stall_ms = 0, batch_wait_us = 100;
  int drain_timeout_ms = 5000;
  service::ServiceOptions so;
  Faults faults;
  Telemetry telemetry;
  obs::Report reports;
  cli.parse({{{"<benchmark|trace.bin>", &input, Kind::kText},
              {"[instructions]", &n},
              {"--requests=N", &requests},
              {"--workers=W", &so.num_workers, Kind::kPositive},
              {"--queue=Q", &so.queue_capacity, Kind::kPositive},
              {"--parallel=P", &parallel, Kind::kPositive},
              {"--deadline-ms=D", &deadline_ms, Kind::kMs},
              {"--tenant-quota=N", &so.tenant_quota, Kind::kPositive},
              {"--batch[=N]", &so.batcher.max_batch, Kind::kPositive,
               &so.batching},
              {"--batch-wait-us=U", &batch_wait_us, Kind::kUs, &so.batching},
              {"--stall-ms=M", &stall_ms, Kind::kMs},
              drain_flag(drain_timeout_ms),
              telemetry.flag()},
             faults.flags(false),
             reports.flags()});
  so.batcher.max_wait = std::chrono::microseconds(batch_wait_us);
  reports.start();
  const auto tr = acquire(input, n);

  core::AnalyticPredictor primary, fallback;
  service::SimulationService svc(primary, fallback, so);
  const device::FaultInjector injector(faults.opts);

  obs::TelemetryServer server;
  telemetry.start(server, [&svc](std::size_t errs) {
    return svc.health_json(errs);
  });

  std::printf("serving %zu requests (%zu workers, queue %zu, %zu sub-traces"
              "%s%s%s)\n",
              requests, so.num_workers, so.queue_capacity, parallel,
              faults.any ? ", chaos on" : "",
              deadline_ms ? ", deadline set" : "",
              so.batching ? ", batching on" : "");
  std::vector<service::SimulationService::Ticket> tickets;
  tickets.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    service::Request rq;
    rq.trace = &tr;
    rq.engine = service::EngineKind::kParallel;
    rq.num_subtraces = parallel;
    rq.priority = static_cast<service::Priority>(i % service::kNumPriorities);
    if (so.tenant_quota > 0) {
      // Spread the soak across three synthetic tenants so the quota and the
      // fair-share drain actually engage.
      rq.tenant = "tenant-" + std::to_string(i % 3);
    }
    if (deadline_ms > 0) rq.deadline = std::chrono::milliseconds(deadline_ms);
    if (faults.any) {
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
      std::printf("signal %d: draining (timeout %d ms)\n", sig.last_signal(),
                  drain_timeout_ms);
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
  reports.write();
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
int cmd_sweep(flags::CommandLine& cli) {
  sweep::SweepSpec spec;
  spec.instructions = 200000;
  std::string spec_path, json_path;
  std::size_t top = 0, repeat = 1;
  std::vector<std::string> axis_flags;
  bool pareto_only = false, json = false;
  sweep::SweepOptions so;
  Engine engine;
  Cluster cluster;
  cluster.co.min_workers = 0;  // points run in-process unless --workers=W
  Telemetry telemetry;
  obs::Report reports;
  cli.parse({{{"[benchmark]", &spec.benchmark, Kind::kText},
              {"[instructions]", &spec.instructions},
              {"--spec=FILE", &spec_path, Kind::kPath},
              {"--axis key=v1,v2,...", &axis_flags},
              {"--seed=S", &so.seed},
              {"--pareto", &pareto_only},
              {"--top=N", &top, Kind::kPositive},
              {"--json[=path]", &json_path, Kind::kPath, &json},
              {"--repeat=N", &repeat, Kind::kPositive},
              telemetry.flag()},
             engine.flags(),
             cluster.flags(),
             reports.flags()});
  if (spec_path.empty() == spec.benchmark.empty()) {
    throw UsageError("sweep takes a <benchmark> operand or --spec=FILE, not "
                     "both (a spec file names its benchmark and instructions)");
  }
  const std::size_t workers = cluster.co.min_workers;
  if (cluster.result_cache && workers == 0) {
    throw UsageError("--result-cache is the coordinator's shard cache and "
                     "requires --workers=W");
  }

  if (!spec_path.empty()) spec = sweep::load_spec_text(spec_path);
  // Strict up-front validation: an empty or unparsable value (e.g. an
  // unimplemented replacement policy), an unknown axis, or a duplicate
  // (including a --axis colliding with a spec-file axis) is a usage error
  // (exit 2), caught before any simulation work runs.
  validate_as_usage([&] {
    for (const std::string& flag : axis_flags) {
      auto [key, values] = split_axis_flag("--axis", flag);
      spec.axes.push_back(sweep::parse_axis(std::move(key), values, "--axis"));
    }
    sweep::validate_spec(spec);
  });

  reports.start();

  so.num_subtraces = engine.parallel;
  so.num_gpus = engine.gpus;
  so.context_length = engine.context;
  so.recovery = !engine.no_recovery;

  // Sweep progress for /healthz: plain atomics the telemetry thread reads.
  std::atomic<std::size_t> points_done{0};
  std::atomic<std::size_t> iterations_done{0};
  const std::size_t points_total = spec.points();
  so.progress = [&points_done](std::size_t done, std::size_t) {
    points_done.store(done, std::memory_order_relaxed);
  };

  obs::TelemetryServer server;
  telemetry.start(server, [&points_done, &iterations_done, points_total,
                           repeat](std::size_t) {
    std::ostringstream os;
    os << "{\"status\":\"ok\",\"sweep\":{\"points_total\":" << points_total
       << ",\"points_done\":" << points_done.load(std::memory_order_relaxed)
       << ",\"iterations_done\":"
       << iterations_done.load(std::memory_order_relaxed)
       << ",\"iterations\":" << repeat << "}}";
    return os.str();
  });

  std::optional<dist::DistCoordinator> coord;
  if (workers > 0) {
    coord.emplace(net::TcpListener::bind(cluster.port), cluster.options());
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
  reports.write();
  return 0;
}

struct Command {
  std::string_view name;
  int (*run)(flags::CommandLine&);
};

constexpr Command kCommands[] = {
    {"trace", cmd_trace},       {"simulate", cmd_simulate},
    {"sweep", cmd_sweep},       {"suite", cmd_suite},
    {"rates", cmd_rates},       {"stream", cmd_stream},
    {"serve", cmd_serve},       {"coordinator", cmd_coordinator},
    {"worker", cmd_worker}};

}  // namespace

int main(int argc, char** argv) {
  const std::string_view name = argc < 2 ? "" : argv[1];
  const auto* const cmd =
      std::find_if(std::begin(kCommands), std::end(kCommands),
                   [&](const Command& c) { return c.name == name; });
  if (cmd == std::end(kCommands)) {
    if (argc >= 2) std::fprintf(stderr, "unknown command: %s\n", argv[1]);
    std::string names;
    for (const Command& c : kCommands) {
      names += (names.empty() ? "" : "|") + std::string(c.name);
    }
    std::fprintf(stderr, "usage: mlsim_cli <%s> ...\n", names.c_str());
    return 2;
  }
  flags::CommandLine cli("mlsim_cli " + std::string(name),
                         std::vector<std::string>(argv + 2, argv + argc));
  // Distinct exit codes per failure class so scripts and the test harness
  // can tell bad invocations (2) from broken files (3), corrupt data (4),
  // and genuine bugs (5). See the header comment.
  try {
    return cmd->run(cli);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "mlsim_cli: %s\n%s\n", e.what(), cli.usage().c_str());
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
