// Sweep-subsystem tests (docs/SWEEPS.md): lattice expansion order and
// validation, Pareto ranking and per-axis sensitivity on a synthetic
// frontier, bit-identity of a sweep point against a standalone run of the
// same configuration, the sweep.* metrics of an in-process run, and cluster
// fan-out with a repeated lattice served 100% from the coordinator's result
// cache.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/check.h"
#include "core/metrics.h"
#include "core/simulator.h"
#include "dist/coordinator.h"
#include "dist/worker.h"
#include "net/socket.h"
#include "obs/metric_names.h"
#include "obs/obs.h"
#include "obs/registry.h"
#include "sweep/lattice.h"
#include "sweep/sweep.h"
#include "uarch/config.h"

namespace mlsim::sweep {
namespace {

SweepSpec two_axis_spec() {
  SweepSpec spec;
  spec.benchmark = "xz";
  spec.instructions = 1000;
  spec.axes.push_back({"l2.size_kb", {"512", "1024", "2048"}});
  spec.axes.push_back({"l1d.assoc", {"4", "8"}});
  return spec;
}

TEST(Lattice, RowMajorExpansionLastAxisFastest) {
  const SweepSpec spec = two_axis_spec();
  EXPECT_EQ(spec.points(), 6u);
  const auto pts = expand_lattice(spec);
  ASSERT_EQ(pts.size(), 6u);
  const std::vector<std::pair<std::string, std::string>> expected[] = {
      {{"l2.size_kb", "512"}, {"l1d.assoc", "4"}},
      {{"l2.size_kb", "512"}, {"l1d.assoc", "8"}},
      {{"l2.size_kb", "1024"}, {"l1d.assoc", "4"}},
      {{"l2.size_kb", "1024"}, {"l1d.assoc", "8"}},
      {{"l2.size_kb", "2048"}, {"l1d.assoc", "4"}},
      {{"l2.size_kb", "2048"}, {"l1d.assoc", "8"}},
  };
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(pts[i].index, i);
    EXPECT_EQ(pts[i].settings, expected[i]) << "point " << i;
  }
  // The expanded machine reflects the settings, not just the labels.
  EXPECT_EQ(pts[0].machine.l2.size_bytes, 512u * 1024u);
  EXPECT_EQ(pts[0].machine.l1d.assoc, 4u);
  EXPECT_EQ(pts[5].machine.l2.size_bytes, 2048u * 1024u);
  EXPECT_EQ(pts[5].machine.l1d.assoc, 8u);
}

TEST(Lattice, DuplicateAxisRejected) {
  SweepSpec spec = two_axis_spec();
  spec.axes.push_back({"l2.size_kb", {"256"}});
  EXPECT_THROW(validate_spec(spec), CheckError);
}

TEST(Lattice, UnknownAxisKeyRejected) {
  SweepSpec spec = two_axis_spec();
  spec.axes.push_back({"l2.sizekb", {"256"}});
  EXPECT_THROW(validate_spec(spec), CheckError);
  uarch::MachineConfig m;
  EXPECT_THROW(apply_axis(m, "not.a.key", "1"), CheckError);
}

TEST(Lattice, BadAxisValueRejected) {
  uarch::MachineConfig m;
  EXPECT_THROW(apply_axis(m, "l2.size_kb", "abc"), CheckError);
  EXPECT_THROW(apply_axis(m, "l1d.replacement", "plru"), CheckError);
  EXPECT_THROW(apply_axis(m, "bp.kind", "perceptron"), CheckError);
  SweepSpec spec = two_axis_spec();
  spec.axes[0].values.push_back("-3");
  EXPECT_THROW(validate_spec(spec), CheckError);
}

/// Axis `key` with `values` appended to `spec`, for the lattice-size cases.
void add_axes(SweepSpec& spec, const std::vector<std::string>& keys,
              const std::vector<std::string>& values) {
  for (const auto& k : keys) spec.axes.push_back({k, values});
}

const std::vector<std::string> kSixteenNumericAxes = {
    "tlb.l1_entries",   "tlb.l2_entries",   "bp.btb_entries",
    "bp.mispredict_penalty", "bp.history_bits", "core.fetch_width",
    "core.issue_width", "core.commit_width", "core.iq_entries",
    "core.rob_entries", "core.lq_entries",  "core.sq_entries",
    "memory_latency",   "l1i.latency",      "l1d.latency",
    "l2.latency"};

// 16 axes of 16 values: 16^16 = 2^64 points wrap std::size_t to 0.
TEST(Lattice, PointCountOverflowingSizeTRejected) {
  SweepSpec spec = two_axis_spec();
  spec.axes.clear();
  std::vector<std::string> values;
  for (int v = 1; v <= 16; ++v) values.push_back(std::to_string(v));
  add_axes(spec, kSixteenNumericAxes, values);
  EXPECT_THROW(validate_spec(spec), CheckError);
  EXPECT_THROW(expand_lattice(spec), CheckError);
}

// 28 axes of 4 values: 4^28 = 2^56 points fit std::size_t but not one
// vector of points.
TEST(Lattice, PointCountBeyondVectorMaxSizeRejected) {
  ASSERT_LT(std::vector<SweepPoint>().max_size(), std::size_t{1} << 56);
  SweepSpec spec = two_axis_spec();
  spec.axes.clear();
  add_axes(spec, kSixteenNumericAxes, {"1", "2", "3", "4"});
  add_axes(spec,
           {"l1i.size_kb", "l1d.size_kb", "l2.size_kb", "l1i.assoc",
            "l1d.assoc", "l2.assoc", "l1i.mshrs", "l1d.mshrs", "l2.mshrs"},
           {"1", "2", "3", "4"});
  add_axes(spec, {"l1i.line_bytes", "l1d.line_bytes", "l2.line_bytes"},
           {"16", "32", "64", "128"});
  ASSERT_EQ(spec.axes.size(), 28u);
  EXPECT_THROW(validate_spec(spec), CheckError);
  EXPECT_THROW(expand_lattice(spec), CheckError);
}

TEST(Lattice, ReplacementAxisCoversEveryPolicy) {
  uarch::MachineConfig m;
  apply_axis(m, "l1d.replacement", "dip");
  EXPECT_EQ(m.l1d.replacement, uarch::ReplacementPolicy::kDip);
  apply_axis(m, "l1d.replacement", "drrip");
  EXPECT_EQ(m.l1d.replacement, uarch::ReplacementPolicy::kDrrip);
  apply_axis(m, "l1d.replacement", "arc");
  EXPECT_EQ(m.l1d.replacement, uarch::ReplacementPolicy::kArc);
  apply_axis(m, "l2.replacement", "fifo");
  EXPECT_EQ(m.l2.replacement, uarch::ReplacementPolicy::kFifo);
}

TEST(Lattice, SpecFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/sweep_spec.txt";
  {
    std::ofstream f(path);
    f << "# DSE over the L2 and the D-cache policy\n"
      << "benchmark xz\n"
      << "instructions 5000\n"
      << "axis l2.size_kb 512,1024\n"
      << "axis l1d.replacement lru,arc\n";
  }
  const SweepSpec spec = load_spec_text(path);
  EXPECT_EQ(spec.benchmark, "xz");
  EXPECT_EQ(spec.instructions, 5000u);
  ASSERT_EQ(spec.axes.size(), 2u);
  EXPECT_EQ(spec.axes[0].key, "l2.size_kb");
  EXPECT_EQ(spec.axes[1].values, (std::vector<std::string>{"lru", "arc"}));
  EXPECT_EQ(spec.points(), 4u);
  std::remove(path.c_str());
}

TEST(Lattice, SpecFileErrorsNameTheLine) {
  const std::string path = ::testing::TempDir() + "/bad_spec.txt";
  {
    std::ofstream f(path);
    f << "benchmark xz\ninstructions 5000\nfrequency 3ghz\n";
  }
  try {
    load_spec_text(path);
    FAIL() << "expected CheckError for the unknown directive";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(":3"), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

TEST(Pareto, DominanceAndSensitivityOnSyntheticFrontier) {
  // Three L2 sizes give three strictly increasing areas; CPIs are chosen so
  // the middle point is dominated (worse CPI than small, worse area too).
  SweepSpec spec;
  spec.benchmark = "xz";
  spec.instructions = 1;
  spec.axes.push_back({"l2.size_kb", {"256", "1024", "4096"}});
  const auto pts = expand_lattice(spec);
  SweepReport rep;
  const double cpis[] = {1.0, 2.0, 0.5};
  for (std::size_t i = 0; i < 3; ++i) {
    SweepPointResult r;
    r.point = pts[i];
    r.cpi = cpis[i];
    rep.points.push_back(r);
  }
  rank_report(rep, spec);
  ASSERT_EQ(rep.frontier.size(), 2u);
  // Sorted by CPI ascending: the big/fast point, then the small/cheap one.
  EXPECT_EQ(rep.frontier[0], 2u);
  EXPECT_EQ(rep.frontier[1], 0u);
  EXPECT_TRUE(rep.points[0].on_frontier);
  EXPECT_FALSE(rep.points[1].on_frontier);
  EXPECT_TRUE(rep.points[2].on_frontier);
  EXPECT_GT(rep.points[2].area, rep.points[0].area);

  ASSERT_EQ(rep.sensitivity.size(), 1u);
  const AxisSensitivity& s = rep.sensitivity[0];
  EXPECT_EQ(s.key, "l2.size_kb");
  ASSERT_EQ(s.mean_cpi.size(), 3u);
  // One point per value on a single axis: means are the points' own CPIs.
  EXPECT_DOUBLE_EQ(s.mean_cpi[0], 1.0);
  EXPECT_DOUBLE_EQ(s.mean_cpi[1], 2.0);
  EXPECT_DOUBLE_EQ(s.mean_cpi[2], 0.5);
  EXPECT_DOUBLE_EQ(s.span, 1.5);
}

TEST(Sweep, PointsBitIdenticalToStandaloneRuns) {
  SweepSpec spec;
  spec.benchmark = "xz";
  spec.instructions = 20000;
  spec.axes.push_back({"l2.size_kb", {"512", "2048"}});
  spec.axes.push_back({"l1d.replacement", {"lru", "drrip"}});
  SweepOptions so;
  so.num_subtraces = 2;
  so.context_length = 32;
  const SweepReport rep = run_sweep(spec, so);
  ASSERT_EQ(rep.points.size(), 4u);
  for (const SweepPointResult& p : rep.points) {
    // What `mlsim_cli simulate` would compute for this configuration.
    const trace::EncodedTrace tr =
        core::labeled_trace(spec.benchmark, spec.instructions, p.point.machine);
    core::MLSimulator::Options mo;
    mo.context_length = so.context_length;
    core::MLSimulator sim(mo);
    const auto r = sim.simulate_parallel(
        tr, sim.parallel_options(so.num_subtraces, 1, true, true));
    EXPECT_EQ(p.total_cycles, r.total_cycles) << p.point.label();
    EXPECT_GT(p.cpi, 0.0);
    EXPECT_GT(p.truth_cpi, 0.0);
  }
}

// run_sweep is the only writer of the sweep.* metrics: one request, one
// progress count and one latency sample per point, and an active gauge back
// at zero whether the sweep completes or is cancelled.
TEST(Sweep, MetricsCountEveryPoint) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "stripped build";
  obs::set_enabled(true);
  obs::Registry& reg = obs::default_registry();
  reg.reset();

  SweepSpec spec;
  spec.benchmark = "xz";
  spec.instructions = 2000;
  spec.axes.push_back({"l2.size_kb", {"256", "512"}});
  spec.axes.push_back({"l1d.replacement", {"lru", "drrip"}});
  SweepOptions so;
  so.use_trace_cache = false;
  const SweepReport rep = run_sweep(spec, so);
  ASSERT_EQ(rep.points.size(), 4u);

  EXPECT_EQ(reg.counter(obs::names::kSweepRequests).value(), 1u);
  EXPECT_EQ(reg.counter(obs::names::kSweepPointsTotal).value(), 4u);
  EXPECT_EQ(reg.counter(obs::names::kSweepPointsCompleted).value(), 4u);
  EXPECT_EQ(reg.histogram(obs::names::kSweepPointNs).count(), 4u);
  EXPECT_EQ(reg.gauge(obs::names::kSweepActive).value(), 0.0);
  EXPECT_EQ(reg.gauge(obs::names::kSweepParetoSize).value(),
            static_cast<double>(rep.frontier.size()));

  CancelSource cancelled;
  cancelled.cancel();
  const CancelToken token = cancelled.token();
  so.cancel = &token;
  EXPECT_THROW(run_sweep(spec, so), CancelledError);
  EXPECT_EQ(reg.gauge(obs::names::kSweepActive).value(), 0.0);
}

TEST(DistSweep, RepeatedLatticeServedEntirelyFromResultCache) {
  dist::CoordinatorOptions co;
  co.min_workers = 1;
  co.poll_ms = 2;
  co.result_cache_entries = 256;
  dist::DistCoordinator coord(net::TcpListener::bind(0), co);
  std::thread worker([port = coord.port()] {
    dist::WorkerConfig cfg;
    cfg.port = port;
    cfg.heartbeat_ms = 50;
    try {
      dist::run_worker(cfg);
    } catch (const IoError&) {
    }
  });

  SweepSpec spec;
  spec.benchmark = "xz";
  spec.instructions = 12000;
  // Both axes genuinely perturb the D-cache hit pattern at this trace
  // length, so all four points encode different traces. (An axis with no
  // effect on the trace — say a too-large L2 — would legitimately share a
  // fingerprint with its neighbour and be served from cache even cold.)
  spec.axes.push_back({"l1d.assoc", {"4", "8"}});
  spec.axes.push_back({"l1d.replacement", {"lru", "arc"}});
  SweepOptions so;
  so.num_subtraces = 2;
  so.num_gpus = 2;
  so.context_length = 16;
  so.remote = &coord;

  const SweepReport first = run_sweep(spec, so);
  const dist::CoordinatorStats cold = coord.stats();
  // Every point must land on its own run fingerprint: the cold sweep
  // dispatches every shard of every point, with zero cross-point cache hits.
  // Points that differ only in mid-trace hit-level features must not
  // collide — a collision would silently serve one config's result for
  // another, and the repeat-identity checks below would still look green.
  EXPECT_EQ(cold.shards_dispatched, 2u * first.points.size());
  EXPECT_EQ(cold.cache_hits, 0u);
  std::set<std::uint64_t> distinct;
  for (const auto& p : first.points) distinct.insert(p.total_cycles);
  EXPECT_GT(distinct.size(), 1u);

  const SweepReport second = run_sweep(spec, so);
  const dist::CoordinatorStats warm = coord.stats();
  // 100% cache-served: not one shard dispatched for the repeated lattice.
  EXPECT_EQ(warm.shards_dispatched, cold.shards_dispatched);
  EXPECT_GT(warm.cache_hits, cold.cache_hits);
  ASSERT_EQ(second.points.size(), first.points.size());
  for (std::size_t i = 0; i < first.points.size(); ++i) {
    EXPECT_EQ(second.points[i].total_cycles, first.points[i].total_cycles);
  }

  coord.shutdown_workers();
  worker.join();
}

}  // namespace
}  // namespace mlsim::sweep
