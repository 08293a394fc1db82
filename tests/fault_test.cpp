// Fault-tolerance tests (docs/RESILIENCE.md): deterministic injection,
// partition requeue under device kills, anomaly degradation, checkpoint/
// restart bit-identity, and the hardened trace and bundle files and the
// artifact cache that holds them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>

#include "common/check.h"
#include "common/wire.h"
#include "core/analytic_predictor.h"
#include "core/checkpoint.h"
#include "core/cnn_predictor.h"
#include "core/parallel_sim.h"
#include "core/simulator.h"
#include "core/suite.h"
#include "device/fault.h"
#include "trace/trace.h"
#include "uarch/ground_truth.h"

namespace mlsim::core {
namespace {

namespace fs = std::filesystem;

trace::EncodedTrace make_trace(const std::string& abbr, std::size_t n) {
  return uarch::make_encoded_trace(trace::find_workload(abbr), n, {}, 1);
}

ParallelSimOptions base_options(std::size_t parts, std::size_t gpus) {
  ParallelSimOptions o;
  o.num_subtraces = parts;
  o.num_gpus = gpus;
  o.context_length = 16;
  o.warmup = 16;
  o.post_error_correction = true;
  o.record_predictions = true;
  return o;
}

fs::path temp_file(const std::string& name) {
  const fs::path p = fs::temp_directory_path() / name;
  fs::remove(p);
  return p;
}

void expect_identical(const ParallelSimResult& a, const ParallelSimResult& b) {
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.corrected_instructions, b.corrected_instructions);
  ASSERT_EQ(a.predictions.size(), b.predictions.size());
  for (std::size_t i = 0; i < a.predictions.size(); ++i) {
    ASSERT_EQ(a.predictions[i], b.predictions[i]) << "at " << i;
  }
}

// ---- injector determinism ---------------------------------------------------

TEST(FaultInjector, DecisionsAreDeterministicInSeed) {
  device::FaultOptions fo;
  fo.seed = 42;
  fo.device_kill_rate = 0.3;
  fo.straggler_rate = 0.3;
  fo.output_corrupt_rate = 0.1;
  const device::FaultInjector a(fo), b(fo);
  fo.seed = 43;
  const device::FaultInjector other(fo);

  bool any_difference = false;
  for (std::size_t p = 0; p < 64; ++p) {
    for (std::size_t attempt = 0; attempt < 3; ++attempt) {
      EXPECT_EQ(a.kill_point(p, attempt), b.kill_point(p, attempt));
      EXPECT_EQ(a.straggler_factor(p, attempt), b.straggler_factor(p, attempt));
      EXPECT_EQ(a.corrupts(p, attempt, 7), b.corrupts(p, attempt, 7));
      if (a.kill_point(p, attempt) != other.kill_point(p, attempt) ||
          a.corrupts(p, attempt, 7) != other.corrupts(p, attempt, 7)) {
        any_difference = true;
      }
    }
  }
  EXPECT_TRUE(any_difference) << "different seeds produced the same schedule";
}

TEST(FaultInjector, InertByDefaultAndValidatesRates) {
  const device::FaultInjector inert;
  EXPECT_FALSE(inert.enabled());
  EXPECT_EQ(inert.kill_point(0, 0), std::nullopt);
  EXPECT_EQ(inert.straggler_factor(0, 0), 1.0);
  EXPECT_FALSE(inert.corrupts(0, 0, 0));

  device::FaultOptions bad;
  bad.device_kill_rate = 1.5;
  EXPECT_THROW(device::FaultInjector{bad}, CheckError);
  bad = {};
  bad.straggler_slowdown = 0.5;
  EXPECT_THROW(device::FaultInjector{bad}, CheckError);
}

TEST(FaultInjector, CorruptLatenciesAlwaysTripTheDefaultGuard) {
  device::FaultOptions fo;
  fo.output_corrupt_rate = 1.0;
  const device::FaultInjector inj(fo);
  const ParallelSimOptions defaults;
  for (std::uint64_t i = 0; i < 256; ++i) {
    const auto g = inj.corrupt_latencies(0, 0, i);
    EXPECT_GT(g.fetch, defaults.anomaly_latency_limit);
    EXPECT_GT(g.exec, defaults.anomaly_latency_limit);
    EXPECT_GT(g.store, defaults.anomaly_latency_limit);
  }
}

// ---- engine recovery --------------------------------------------------------

TEST(FaultRecovery, DisabledInjectionIsBitIdentical) {
  const trace::EncodedTrace tr = make_trace("mcf", 6000);
  AnalyticPredictor pred;
  const ParallelSimOptions plain = base_options(12, 2);

  ParallelSimulator bare(pred, plain);
  const auto want = bare.run(tr);

  const device::FaultInjector inert;  // attached but all rates zero
  ParallelSimOptions wired = plain;
  wired.faults = &inert;
  ParallelSimulator sim(pred, wired);
  const auto got = sim.run(tr);

  expect_identical(want, got);
  EXPECT_DOUBLE_EQ(got.sim_time_us, want.sim_time_us);
  EXPECT_EQ(got.retries, 0u);
  EXPECT_TRUE(got.failed_partitions.empty());
  EXPECT_TRUE(got.degraded_partitions.empty());
}

TEST(FaultRecovery, DeviceKillsRequeueWithoutChangingPredictions) {
  const trace::EncodedTrace tr = make_trace("mcf", 6000);
  AnalyticPredictor pred;
  const ParallelSimOptions plain = base_options(12, 2);
  ParallelSimulator bare(pred, plain);
  const auto want = bare.run(tr);

  device::FaultOptions fo;
  fo.seed = 1;  // seed 1 kills several of the 12 partitions
  fo.device_kill_rate = 0.3;
  const device::FaultInjector inj(fo);
  ParallelSimOptions wired = plain;
  wired.faults = &inj;
  wired.max_retries_per_partition = 8;
  ParallelSimulator sim(pred, wired);
  const auto got = sim.run(tr);

  // A killed attempt is discarded and replayed deterministically, so the
  // predictions — and hence CPI — are exactly the fault-free ones.
  expect_identical(want, got);
  EXPECT_GT(got.retries, 0u);
  EXPECT_FALSE(got.failed_partitions.empty());
  EXPECT_GE(got.lost_devices, 1u);
  // Wasted attempts, device loss, and backoff all cost modeled time.
  EXPECT_GT(got.sim_time_us, want.sim_time_us);
  EXPECT_GT(got.retry_backoff_us, 0.0);
  // The §V-B acceptance bar: recovered CPI error within 2x fault-free error
  // is trivially met by exact equality.
  EXPECT_DOUBLE_EQ(got.cpi(), want.cpi());
}

TEST(FaultRecovery, RetryBudgetExhaustionThrows) {
  const trace::EncodedTrace tr = make_trace("xz", 2000);
  AnalyticPredictor pred;
  device::FaultOptions fo;
  fo.device_kill_rate = 1.0;  // every attempt dies
  const device::FaultInjector inj(fo);
  ParallelSimOptions o = base_options(4, 1);
  o.faults = &inj;
  o.max_retries_per_partition = 3;
  ParallelSimulator sim(pred, o);
  EXPECT_THROW(sim.run(tr), CheckError);
}

TEST(FaultRecovery, CorruptionDegradesToFallbackPredictor) {
  const trace::EncodedTrace tr = make_trace("mcf", 6000);
  AnalyticPredictor pred;
  const ParallelSimOptions plain = base_options(12, 2);
  ParallelSimulator bare(pred, plain);
  const auto want = bare.run(tr);

  device::FaultOptions fo;
  fo.seed = 1;
  fo.output_corrupt_rate = 0.02;
  const device::FaultInjector inj(fo);
  AnalyticPredictor fallback;
  ParallelSimOptions wired = plain;
  wired.faults = &inj;
  wired.fallback = &fallback;
  wired.max_retries_per_partition = 8;
  ParallelSimulator sim(pred, wired);
  const auto got = sim.run(tr);

  // The fallback equals the primary here, and a degraded re-run skips the
  // injector (the analytic predictor runs outside the faulty device), so
  // recovery reproduces the fault-free predictions exactly.
  expect_identical(want, got);
  EXPECT_FALSE(got.degraded_partitions.empty());
  EXPECT_GT(got.retries, 0u);
  EXPECT_TRUE(got.failed_partitions.empty());  // corruption is not a kill
}

TEST(FaultRecovery, CorruptionWithoutFallbackThrows) {
  const trace::EncodedTrace tr = make_trace("xz", 2000);
  AnalyticPredictor pred;
  device::FaultOptions fo;
  fo.output_corrupt_rate = 0.5;
  const device::FaultInjector inj(fo);
  ParallelSimOptions o = base_options(4, 1);
  o.faults = &inj;
  o.fallback = nullptr;
  ParallelSimulator sim(pred, o);
  EXPECT_THROW(sim.run(tr), CheckError);
}

TEST(FaultRecovery, StragglersStretchModeledTimeOnly) {
  const trace::EncodedTrace tr = make_trace("xz", 6000);
  AnalyticPredictor pred;
  const ParallelSimOptions plain = base_options(12, 2);
  ParallelSimulator bare(pred, plain);
  const auto want = bare.run(tr);

  device::FaultOptions fo;
  fo.seed = 3;
  fo.straggler_rate = 0.5;
  fo.straggler_slowdown = 4.0;
  const device::FaultInjector inj(fo);
  ParallelSimOptions wired = plain;
  wired.faults = &inj;
  ParallelSimulator sim(pred, wired);
  const auto got = sim.run(tr);

  expect_identical(want, got);  // stragglers are slow, not wrong
  EXPECT_GT(got.sim_time_us, want.sim_time_us);
  EXPECT_EQ(got.retries, 0u);
}

TEST(FaultRecovery, BackoffIsChargedToModeledTime) {
  const trace::EncodedTrace tr = make_trace("mcf", 6000);
  AnalyticPredictor pred;
  device::FaultOptions fo;
  fo.seed = 1;
  fo.device_kill_rate = 0.3;
  const device::FaultInjector inj(fo);

  ParallelSimOptions no_backoff = base_options(12, 2);
  no_backoff.faults = &inj;
  no_backoff.max_retries_per_partition = 8;
  no_backoff.retry_backoff_us = 0.0;
  ParallelSimulator sim_free(pred, no_backoff);
  const auto free_res = sim_free.run(tr);

  ParallelSimOptions with_backoff = no_backoff;
  with_backoff.retry_backoff_us = 100.0;
  ParallelSimulator sim_paid(pred, with_backoff);
  const auto paid_res = sim_paid.run(tr);

  // Same fault schedule, so the only modeled-time difference is the backoff.
  EXPECT_EQ(free_res.retries, paid_res.retries);
  EXPECT_GT(paid_res.retry_backoff_us, 0.0);
  EXPECT_NEAR(paid_res.sim_time_us - free_res.sim_time_us,
              paid_res.retry_backoff_us, 1e-6);
}

// ---- checkpoint/restart -----------------------------------------------------

TEST(Checkpoint, KillAndResumeIsBitIdentical) {
  const trace::EncodedTrace tr = make_trace("mcf", 6000);
  AnalyticPredictor pred;
  const ParallelSimOptions plain = base_options(12, 2);

  device::FaultOptions fo;
  fo.die_after_partition = 5;
  const device::FaultInjector inj(fo);

  ParallelSimOptions ck = plain;
  ck.faults = &inj;
  ck.checkpoint_path = temp_file("mlsim_fault_test_parallel.ckpt");
  ParallelSimulator doomed(pred, ck);
  EXPECT_THROW(doomed.run(tr), device::InjectedCrash);
  ASSERT_TRUE(fs::exists(ck.checkpoint_path)) << "no checkpoint after crash";

  // Same options (the one-shot death trigger does not re-fire past the
  // resume point), now resuming.
  ck.resume = true;
  ParallelSimulator revived(pred, ck);
  const auto got = revived.run(tr);
  EXPECT_TRUE(got.resumed);

  // The fault injector never fired a kill/corruption, so the resumed run
  // must equal a plain uninterrupted run bit for bit.
  ParallelSimulator bare(pred, plain);
  const auto want = bare.run(tr);
  expect_identical(want, got);
  EXPECT_EQ(got.warmup_instructions, want.warmup_instructions);
  EXPECT_DOUBLE_EQ(got.sim_time_us, want.sim_time_us);
  EXPECT_FALSE(fs::exists(ck.checkpoint_path))
      << "checkpoint should be removed after a successful run";
}

TEST(Checkpoint, ResumeAcrossFaultsReplaysTheSchedule) {
  const trace::EncodedTrace tr = make_trace("mcf", 6000);
  AnalyticPredictor pred;

  device::FaultOptions fo;
  fo.seed = 1;
  fo.device_kill_rate = 0.3;
  const device::FaultInjector inj(fo);
  ParallelSimOptions faulty = base_options(12, 2);
  faulty.faults = &inj;
  faulty.max_retries_per_partition = 8;
  ParallelSimulator whole(pred, faulty);
  const auto want = whole.run(tr);

  device::FaultOptions fo_dying = fo;
  fo_dying.die_after_partition = 7;
  const device::FaultInjector dying(fo_dying);
  ParallelSimOptions ck = faulty;
  ck.faults = &dying;
  ck.checkpoint_path = temp_file("mlsim_fault_test_faulty.ckpt");
  ParallelSimulator doomed(pred, ck);
  EXPECT_THROW(doomed.run(tr), device::InjectedCrash);

  ck.resume = true;
  ParallelSimulator revived(pred, ck);
  const auto got = revived.run(tr);

  expect_identical(want, got);
  EXPECT_EQ(got.retries, want.retries);
  EXPECT_EQ(got.failed_partitions, want.failed_partitions);
  EXPECT_EQ(got.lost_devices, want.lost_devices);
  EXPECT_DOUBLE_EQ(got.sim_time_us, want.sim_time_us);
}

TEST(Checkpoint, MismatchedConfigurationIsRejected) {
  const trace::EncodedTrace tr = make_trace("mcf", 6000);
  AnalyticPredictor pred;
  device::FaultOptions fo;
  fo.die_after_partition = 5;
  const device::FaultInjector inj(fo);

  ParallelSimOptions ck = base_options(12, 2);
  ck.faults = &inj;
  ck.checkpoint_path = temp_file("mlsim_fault_test_mismatch.ckpt");
  ParallelSimulator doomed(pred, ck);
  EXPECT_THROW(doomed.run(tr), device::InjectedCrash);

  ParallelSimOptions other = base_options(10, 2);  // different partitioning
  other.faults = &inj;
  other.checkpoint_path = ck.checkpoint_path;
  other.resume = true;
  ParallelSimulator sim(pred, other);
  EXPECT_THROW(sim.run(tr), CheckError);
  fs::remove(ck.checkpoint_path);
}

TEST(Checkpoint, CorruptedCheckpointIsRejected) {
  const trace::EncodedTrace tr = make_trace("mcf", 6000);
  AnalyticPredictor pred;
  device::FaultOptions fo;
  fo.die_after_partition = 5;
  const device::FaultInjector inj(fo);

  ParallelSimOptions ck = base_options(12, 2);
  ck.faults = &inj;
  ck.checkpoint_path = temp_file("mlsim_fault_test_corrupt.ckpt");
  ParallelSimulator doomed(pred, ck);
  EXPECT_THROW(doomed.run(tr), device::InjectedCrash);

  // Flip one payload byte; the checksum must catch it on resume.
  {
    std::fstream f(ck.checkpoint_path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(40);
    char c = 0;
    f.seekg(40);
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x20);
    f.seekp(40);
    f.write(&c, 1);
  }
  ck.resume = true;
  ParallelSimulator revived(pred, ck);
  EXPECT_THROW(revived.run(tr), CheckError);
  fs::remove(ck.checkpoint_path);
}

TEST(Checkpoint, TruncatedCheckpointIsRejected) {
  const trace::EncodedTrace tr = make_trace("mcf", 6000);
  AnalyticPredictor pred;
  device::FaultOptions fo;
  fo.die_after_partition = 5;
  const device::FaultInjector inj(fo);

  ParallelSimOptions ck = base_options(12, 2);
  ck.faults = &inj;
  ck.checkpoint_path = temp_file("mlsim_fault_test_truncated.ckpt");
  ParallelSimulator doomed(pred, ck);
  EXPECT_THROW(doomed.run(tr), device::InjectedCrash);

  // A torn write (power loss mid-rename on a non-atomic filesystem) leaves
  // half a file behind; strict resume must refuse it.
  const auto full = fs::file_size(ck.checkpoint_path);
  ASSERT_GT(full, 2u);
  fs::resize_file(ck.checkpoint_path, full / 2);
  ck.resume = true;
  ParallelSimulator revived(pred, ck);
  EXPECT_THROW(revived.run(tr), CheckError);
  fs::remove(ck.checkpoint_path);
}

TEST(Checkpoint, LenientResumeFallsBackToCleanStart) {
  const trace::EncodedTrace tr = make_trace("mcf", 6000);
  AnalyticPredictor pred;
  const ParallelSimOptions plain = base_options(12, 2);
  device::FaultOptions fo;
  fo.die_after_partition = 5;
  const device::FaultInjector inj(fo);

  ParallelSimOptions ck = plain;
  ck.faults = &inj;
  ck.checkpoint_path = temp_file("mlsim_fault_test_lenient.ckpt");
  ParallelSimulator doomed(pred, ck);
  EXPECT_THROW(doomed.run(tr), device::InjectedCrash);
  fs::resize_file(ck.checkpoint_path, fs::file_size(ck.checkpoint_path) / 2);

  // Unattended-service mode: the torn checkpoint is recorded, not fatal, and
  // the clean start is bit-identical to a run that never checkpointed. The
  // process restarted, so the one-shot death trigger is gone — starting from
  // partition 0 it would otherwise just fire again.
  ck.faults = nullptr;
  ck.resume = true;
  ck.resume_lenient = true;
  ParallelSimulator revived(pred, ck);
  const auto got = revived.run(tr);
  EXPECT_FALSE(got.resumed);
  EXPECT_FALSE(got.resume_error.empty()) << "rejection reason must be recorded";

  ParallelSimulator bare(pred, plain);
  const auto want = bare.run(tr);
  expect_identical(want, got);
  EXPECT_FALSE(fs::exists(ck.checkpoint_path));
}

// ---- checkpoint decoder -----------------------------------------------------

/// A run with live faults (so the fingerprint covers them) and the same run
/// set to die after five partitions; die_after_partition is outside the
/// fingerprint, so both runs may resume each other's checkpoints.
struct CrashedRun {
  trace::EncodedTrace tr = make_trace("mcf", 600);
  AnalyticPredictor pred;
  device::FaultInjector live, dying;
  ParallelSimOptions opts = base_options(12, 2);

  explicit CrashedRun(const std::string& file) {
    device::FaultOptions fo;
    fo.seed = 3;
    fo.straggler_rate = 0.3;
    live = device::FaultInjector(fo);
    fo.die_after_partition = 5;
    dying = device::FaultInjector(fo);
    opts.record_context_counts = true;
    opts.faults = &dying;
    opts.checkpoint_path = temp_file(file);
    EXPECT_THROW(ParallelSimulator(pred, opts).run(tr), device::InjectedCrash);
    opts.faults = &live;
    opts.resume = true;
  }
  ~CrashedRun() { fs::remove(opts.checkpoint_path); }

  ParallelSimResult resume(bool lenient) {
    ParallelSimOptions o = opts;
    o.resume_lenient = lenient;
    return ParallelSimulator(pred, o).run(tr);
  }
  ParallelSimResult uninterrupted() {
    ParallelSimOptions o = opts;
    o.checkpoint_path.clear();
    o.resume = false;
    return ParallelSimulator(pred, o).run(tr);
  }
};

std::string read_file(const fs::path& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream all;
  all << f.rdbuf();
  return std::move(all).str();
}

TEST(Checkpoint, EveryPrefixAndTrailingByteIsRejected) {
  CrashedRun run("mlsim_fault_test_prefixes.ckpt");
  const std::string payload(wire::unseal(
      kRunCheckpointMagic, read_file(run.opts.checkpoint_path), "test"));
  // Each candidate is sealed in a valid envelope, so only the payload
  // decoder stands between it and the engine.
  const auto resume_from = [&run](std::string_view p) {
    wire::write_envelope_file(run.opts.checkpoint_path, kRunCheckpointMagic, p);
    return run.resume(/*lenient=*/false);
  };
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_THROW(resume_from(std::string_view(payload).substr(0, len)),
                 CheckError)
        << "prefix of " << len << " bytes";
  }
  EXPECT_THROW(resume_from(payload + '\0'), CheckError);
  // The intact payload resumes.
  const auto got = resume_from(payload);
  EXPECT_TRUE(got.resumed);
  expect_identical(run.uninterrupted(), got);
}

TEST(Checkpoint, LedgerThatDoesNotFitTheRunIsRejected) {
  CrashedRun run("mlsim_fault_test_misfit.ckpt");
  RunCheckpoint good;
  ASSERT_TRUE(load_checkpoint(run.opts.checkpoint_path, good));
  ASSERT_EQ(good.ledger.part_hi, 5u);
  const auto want = run.uninterrupted();

  struct Case {
    const char* name;
    void (*mutate)(RunCheckpoint&);
  };
  const Case cases[] = {
      {"unchanged", [](RunCheckpoint&) {}},
      {"range beyond the plan",
       [](RunCheckpoint& ck) {
         ck.ledger.part_hi = 13;
         for (auto* v : {&ck.ledger.partition_cycles,
                         &ck.ledger.partition_steps,
                         &ck.ledger.partition_wasted}) {
           v->resize(13);
         }
         ck.ledger.final_attempt.resize(13);
       }},
      {"not a prefix", [](RunCheckpoint& ck) { ck.ledger.part_lo = 1; }},
      {"per-partition array size",
       [](RunCheckpoint& ck) { ck.ledger.partition_steps.pop_back(); }},
      {"prediction array size",
       [](RunCheckpoint& ck) { ck.ledger.predictions.pop_back(); }},
      {"context-count array size",
       [](RunCheckpoint& ck) { ck.ledger.context_counts.push_back(0); }},
      {"fault list outside the range",
       [](RunCheckpoint& ck) { ck.ledger.failed_partitions = {9}; }},
      {"prev_ring size",
       [](RunCheckpoint& ck) { ck.snapshot.prev_ring.resize(3); }},
      {"another run's fingerprint",
       [](RunCheckpoint& ck) { ck.fingerprint ^= 1; }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    RunCheckpoint ck = good;
    c.mutate(ck);
    const bool valid = std::string(c.name) == "unchanged";
    save_checkpoint(run.opts.checkpoint_path, ck);
    if (!valid) {
      EXPECT_THROW(run.resume(/*lenient=*/false), CheckError);
    }
    save_checkpoint(run.opts.checkpoint_path, ck);
    const auto got = run.resume(/*lenient=*/true);
    EXPECT_EQ(got.resumed, valid);
    EXPECT_EQ(got.resume_error.empty(), valid) << got.resume_error;
    expect_identical(want, got);
    EXPECT_DOUBLE_EQ(got.sim_time_us, want.sim_time_us);
    EXPECT_EQ(got.context_counts, want.context_counts);
  }
}

TEST(Checkpoint, OlderMlckLayoutIsRejectedOnItsMagic) {
  // The checkpoint layout before the run ledger ("MLCK"): the same
  // fingerprint up front, so without a new magic it could be misparsed.
  CrashedRun run("mlsim_fault_test_mlck.ckpt");
  const std::size_t parts = 12, next = 5, ring = 16, done = 250;
  wire::Writer w;
  w.pod(run_fingerprint(run.tr, run.opts, parts));
  w.pod<std::uint64_t>(next);
  w.pod<std::uint64_t>(parts);
  w.pod<std::uint64_t>(ring);
  w.pod<std::uint64_t>(0);  // warmup instructions
  w.pod<std::uint64_t>(0);  // corrected instructions
  w.pod<std::uint64_t>(0);  // retries
  w.pod(0.0);               // backoff
  w.pod<std::uint64_t>(0);  // occupancy: n, mean, m2, min, max
  for (int i = 0; i < 4; ++i) w.pod(0.0);
  w.pod<std::uint64_t>(0);  // prev_clock
  w.pod<std::uint64_t>(0);  // prev_oldest
  w.vec(std::vector<std::uint64_t>(ring));
  for (int i = 0; i < 3; ++i) w.vec(std::vector<std::uint64_t>(parts));
  w.vec(std::vector<std::uint32_t>(parts));      // final attempts
  w.vec(std::vector<std::uint64_t>{});           // failed partitions
  w.vec(std::vector<std::uint64_t>{});           // degraded partitions
  w.vec(std::vector<std::uint8_t>(2));           // per-GPU lost flags
  w.vec(std::vector<std::uint32_t>(3 * done));   // predictions
  w.vec(std::vector<std::uint16_t>(done));       // context counts
  const std::uint32_t kMlck = 0x4d4c434b;
  ASSERT_NE(kMlck, kRunCheckpointMagic);
  for (const bool lenient : {false, true}) {
    wire::write_envelope_file(run.opts.checkpoint_path, kMlck, w.bytes());
    std::string error;
    try {
      error = run.resume(lenient).resume_error;
    } catch (const CheckError& e) {
      error = e.what();
      EXPECT_FALSE(lenient);
    }
    EXPECT_NE(error.find("magic"), std::string::npos) << error;
  }
}

TEST(Checkpoint, OlderEnvelopeVersionIsRejectedByVersion) {
  // A checkpoint an older build wrote: same magic and payload, envelope
  // version 1 (the byte-serial checksum). Strict resume names the version;
  // lenient resume records it and starts clean, bit-identically.
  CrashedRun run("mlsim_fault_test_v1.ckpt");
  const std::string current = read_file(run.opts.checkpoint_path);
  std::string v1 = current;
  const std::uint32_t version = 1;
  v1.replace(4, 4, reinterpret_cast<const char*>(&version), 4);
  const auto stamp = [&](const std::string& bytes) {
    std::ofstream(run.opts.checkpoint_path, std::ios::binary | std::ios::trunc)
        << bytes;
  };
  stamp(v1);
  try {
    (void)run.resume(/*lenient=*/false);
    FAIL() << "strict resume accepted a version-1 checkpoint";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("version 1"), std::string::npos)
        << e.what();
  }
  stamp(v1);
  const auto got = run.resume(/*lenient=*/true);
  EXPECT_FALSE(got.resumed);
  EXPECT_NE(got.resume_error.find("version 1"), std::string::npos)
      << got.resume_error;
  expect_identical(run.uninterrupted(), got);
}

// ---- predictor output guard -------------------------------------------------

TEST(CnnPredictor, DecodeGuardsNonFiniteOutputs) {
  // A poisoned model or sick inference backend emits NaN/Inf floats; decode
  // must map them (and absurd finite magnitudes) to the sentinel that trips
  // the anomaly guard rather than wrapping to an arbitrary latency.
  EXPECT_EQ(CnnPredictor::decode(std::numeric_limits<float>::quiet_NaN()),
            CnnPredictor::kNonFiniteLatency);
  EXPECT_EQ(CnnPredictor::decode(std::numeric_limits<float>::infinity()),
            CnnPredictor::kNonFiniteLatency);
  EXPECT_EQ(CnnPredictor::decode(-std::numeric_limits<float>::infinity()),
            CnnPredictor::kNonFiniteLatency);
  EXPECT_EQ(CnnPredictor::decode(1e30f), CnnPredictor::kNonFiniteLatency);

  // The sentinel itself trips the parallel engine's default anomaly guard.
  EXPECT_GT(CnnPredictor::kNonFiniteLatency, ParallelSimOptions{}.anomaly_latency_limit);

  // Sane outputs still round-trip to small non-negative latencies.
  EXPECT_EQ(CnnPredictor::decode(-5.0f), 0u);
  EXPECT_LT(CnnPredictor::decode(0.0f), CnnPredictor::kNonFiniteLatency);
  EXPECT_LT(CnnPredictor::decode(7.3f), 1u << 12);  // expm1(7.3) ~ 1480
}

// ---- suite checkpoint -------------------------------------------------------

// Delegates to the analytic model but dies after a fixed number of
// predictions — enough to survive job 1 and crash inside job 2.
class FlakyPredictor final : public LatencyPredictor {
 public:
  explicit FlakyPredictor(std::size_t fail_after) : fail_after_(fail_after) {}
  LatencyPrediction predict(const WindowView& window,
                            std::uint64_t global_index) override {
    bump();
    return inner_.predict(window, global_index);
  }
  LatencyPrediction predict_lazy(const LazyWindow& window) override {
    bump();
    return inner_.predict_lazy(window);
  }
  std::size_t flops_per_window(std::size_t rows) const override {
    return inner_.flops_per_window(rows);
  }

 private:
  void bump() {
    if (++calls_ > fail_after_) throw std::runtime_error("injected predictor death");
  }
  AnalyticPredictor inner_;
  std::size_t fail_after_;
  std::size_t calls_ = 0;
};

TEST(Checkpoint, SuiteResumeSkipsCompletedJobs) {
  const trace::EncodedTrace a = make_trace("xz", 3000);
  const trace::EncodedTrace b = make_trace("mcf", 2000);
  const std::vector<SuiteJob> jobs = {{&a, "xz"}, {&b, "mcf"}};
  GpuSimOptions opts;
  opts.context_length = 16;

  AnalyticPredictor pred;
  const SuiteReport want = run_suite(pred, jobs, 2, opts);

  // LPT runs the larger job ("xz") first; die partway into the second.
  const fs::path ckpt = temp_file("mlsim_fault_test_suite.ckpt");
  FlakyPredictor flaky(a.size() + b.size() / 2);
  EXPECT_THROW(run_suite(flaky, jobs, 2, opts, ckpt), std::runtime_error);
  ASSERT_TRUE(fs::exists(ckpt));

  const SuiteReport got = run_suite(pred, jobs, 2, opts, ckpt, /*resume=*/true);
  ASSERT_EQ(got.jobs.size(), want.jobs.size());
  for (std::size_t j = 0; j < got.jobs.size(); ++j) {
    EXPECT_EQ(got.jobs[j].name, want.jobs[j].name);
    EXPECT_EQ(got.jobs[j].device, want.jobs[j].device);
    EXPECT_DOUBLE_EQ(got.jobs[j].cpi, want.jobs[j].cpi);
    EXPECT_DOUBLE_EQ(got.jobs[j].sim_time_us, want.jobs[j].sim_time_us);
  }
  EXPECT_DOUBLE_EQ(got.makespan_us, want.makespan_us);
  EXPECT_FALSE(fs::exists(ckpt));
}

TEST(Checkpoint, SuiteJobCountBeyondFileIsRejected) {
  // A well-sealed suite checkpoint whose job count claims 2^62 jobs must be
  // refused before anything is reserved for them.
  const fs::path ckpt = temp_file("mlsim_fault_test_suite_count.ckpt");
  save_checkpoint(ckpt, SuiteCheckpoint{});
  std::uint32_t magic = 0;  // the envelope's first word
  {
    std::ifstream f(ckpt, std::ios::binary);
    f.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  }
  wire::Writer w;
  w.pod<std::uint64_t>(0);           // fingerprint
  w.pod<std::uint64_t>(1ull << 62);  // job count
  wire::write_envelope_file(ckpt, magic, w.bytes());
  SuiteCheckpoint ck;
  EXPECT_THROW(load_checkpoint(ckpt, ck), CheckError);
  fs::remove(ckpt);
}

// ---- hardened I/O -----------------------------------------------------------

std::string file_bytes(const fs::path& p) {
  std::ifstream is(p, std::ios::binary);
  std::ostringstream all;
  all << is.rdbuf();
  return std::move(all).str();
}

void write_bytes(const fs::path& p, std::string_view bytes) {
  std::ofstream(p, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The envelope magic a saved file starts with.
std::uint32_t magic_of(const fs::path& p) {
  const std::string bytes = file_bytes(p);
  std::uint32_t magic = 0;
  std::memcpy(&magic, bytes.data(), std::min(bytes.size(), sizeof(magic)));
  return magic;
}

/// The payload of a sealed file.
std::string payload_of(const fs::path& p) {
  std::string payload;
  EXPECT_TRUE(wire::read_envelope_file(p, magic_of(p), payload)) << p;
  return payload;
}

SimNetBundle small_bundle() {
  return {tensor::SimNetModel({.in_features = 6, .window = 5, .channels = 4, .hidden = 7,
                               .kernel = 3, .outputs = 3},
                              17),
          std::vector<float>(trace::kNumFeatures, 0.5f)};
}

trace::EncodedTrace load_trace(const fs::path& p) { return trace::EncodedTrace::load(p); }
SimNetBundle load_bundle(const fs::path& p) { return SimNetBundle::load(p); }

/// The message of the CheckError `load(path)` throws; "" if it throws none.
template <typename Load>
std::string check_error(Load load, const fs::path& path) {
  try {
    load(path);
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

/// The file at `path` with one trailing byte, with bit i % 8 of every
/// `stride`-th byte i flipped, and cut to each of its strict prefixes fails
/// `load` with a CheckError. Leaves the file empty.
template <typename Load>
void expect_every_corruption_rejected(const fs::path& path, std::size_t stride, Load load) {
  const std::string bytes = file_bytes(path);
  ASSERT_GT(bytes.size(), wire::kEnvelopeBytes);
  write_bytes(path, bytes + '\0');
  EXPECT_THROW(load(path), CheckError) << "trailing byte";
  for (std::size_t i = 0; i < bytes.size(); i += stride) {
    std::string bad = bytes;
    bad[i] = static_cast<char>(bad[i] ^ (1 << (i % 8)));
    write_bytes(path, bad);
    EXPECT_THROW(load(path), CheckError) << "bit " << i % 8 << " of byte " << i;
  }
  write_bytes(path, bytes);
  for (std::size_t n = bytes.size(); n-- > 0;) {
    fs::resize_file(path, n);
    EXPECT_THROW(load(path), CheckError) << n << "-byte prefix";
  }
}

// Earlier builds wrote traces as "MLTR" v2 (a raw header, then the varint
// rows this build seals, unchecksummed) and bundles as an "MLMD" model file
// (the model payload this build seals) with an "MLBN" scales trailer.
constexpr std::uint32_t kOldTraceMagic = 0x4d4c5452, kOldModelMagic = 0x4d4c4d44,
                        kOldScalesMagic = 0x4d4c424e;

/// The file an earlier build saved for the trace sealed at `sealed`.
std::string older_build_trace(const fs::path& sealed) {
  const std::string payload = payload_of(sealed);
  wire::Reader r(payload, "test");
  const std::string name = r.str();
  const auto n = r.pod<std::uint64_t>();
  r.pod<std::uint32_t>();
  r.pod<std::uint32_t>();
  const auto labeled = r.pod<std::uint8_t>();
  const std::string_view rows = std::string_view(payload).substr(payload.size() - r.remaining());
  wire::Writer w;
  w.pod(kOldTraceMagic);
  w.pod(std::uint32_t{2});
  w.pod(n);
  w.pod(static_cast<std::uint32_t>(trace::kNumFeatures));
  w.pod(static_cast<std::uint32_t>(trace::kNumTargets));
  w.pod(labeled);
  w.pod(static_cast<std::uint32_t>(name.size()));
  for (const char c : name) w.pod(c);
  w.pod(static_cast<std::uint64_t>(rows.size()));
  for (const char c : rows) w.pod(c);
  return w.take();
}

/// The file an earlier build saved for the bundle sealed at `sealed`.
std::string older_build_bundle(const fs::path& sealed) {
  const std::string payload = payload_of(sealed);
  const std::size_t scales = sizeof(std::uint64_t) + trace::kNumFeatures * sizeof(float);
  wire::Writer w;
  w.pod(kOldModelMagic);
  for (const char c : payload.substr(0, payload.size() - scales)) w.pod(c);
  w.pod(kOldScalesMagic);
  for (const char c : payload.substr(payload.size() - scales)) w.pod(c);
  return w.take();
}

TEST(HardenedIo, TraceLoadRejectsMissingTruncatedAndBitFlipped) {
  const fs::path path = temp_file("mlsim_fault_test_trace.bin");
  EXPECT_THROW(trace::EncodedTrace::load(path), IoError);  // missing

  const trace::EncodedTrace tr = make_trace("xz", 500);
  tr.save(path);
  EXPECT_EQ(trace::EncodedTrace::load(path).size(), tr.size());

  const auto full = fs::file_size(path);
  fs::resize_file(path, full / 2);  // truncate mid-body
  EXPECT_THROW(trace::EncodedTrace::load(path), CheckError);

  tr.save(path);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0xff);  // break the magic
    f.seekp(0);
    f.write(&c, 1);
  }
  EXPECT_THROW(trace::EncodedTrace::load(path), CheckError);

  fs::resize_file(path, 0);  // empty file
  EXPECT_THROW(trace::EncodedTrace::load(path), CheckError);
  fs::remove(path);
}

TEST(HardenedIo, EveryTracePrefixTrailingByteAndBitFlipIsCheckError) {
  const fs::path path = temp_file("mlsim_fault_test_trace_flips.bin");
  make_trace("xz", 300).save(path);
  expect_every_corruption_rejected(path, 97, load_trace);
  fs::remove(path);
}

TEST(HardenedIo, EveryBundlePrefixTrailingByteAndBitFlipIsCheckError) {
  const fs::path path = temp_file("mlsim_fault_test_bundle_flips.bin");
  small_bundle().save(path);
  expect_every_corruption_rejected(path, 1, load_bundle);
  fs::remove(path);
}

TEST(HardenedIo, MissingBundleIsIoError) {
  EXPECT_THROW(SimNetBundle::load(temp_file("mlsim_fault_test_no_bundle.bin")), IoError);
}

TEST(HardenedIo, TraceRowCountBeyondItsPayloadIsCheckErrorBeforeAllocating) {
  const fs::path path = temp_file("mlsim_fault_test_trace_rows.bin");
  make_trace("xz", 300).save(path);
  const std::uint32_t magic = magic_of(path);
  const std::string payload = payload_of(path);
  // The payload starts with the name ("xz": its u64 length, 2 bytes), then
  // the u64 row count. Row counts the arrays cannot be sized for (2^40 and
  // beyond) show that the count is checked before it sizes them.
  const std::size_t count_at = sizeof(std::uint64_t) + 2;
  for (const std::uint64_t n : {std::uint64_t{payload.size()}, std::uint64_t{1} << 40,
                                ~std::uint64_t{0}}) {
    std::string bad = payload;
    std::memcpy(bad.data() + count_at, &n, sizeof n);
    wire::write_envelope_file(path, magic, bad);
    EXPECT_NE(check_error(load_trace, path).find("trace payload too small"), std::string::npos)
        << n;
  }
  fs::remove(path);
}

TEST(HardenedIo, OlderBuildTraceAndBundleAreRejectedOnTheirMagic) {
  const fs::path path = temp_file("mlsim_fault_test_older_build.bin");
  make_trace("xz", 300).save(path);
  write_bytes(path, older_build_trace(path));
  EXPECT_NE(check_error(load_trace, path).find("bad envelope magic"), std::string::npos)
      << check_error(load_trace, path);

  small_bundle().save(path);
  write_bytes(path, older_build_bundle(path));
  EXPECT_NE(check_error(load_bundle, path).find("bad envelope magic"), std::string::npos)
      << check_error(load_bundle, path);
  fs::remove(path);
}

// A SimNet model file is the bundle: these seal bad bundle payloads, so the
// envelope holds and the model decoder is what rejects them.
class ModelFile : public ::testing::Test {
 protected:
  // The payload starts with the model config's six u64 dimensions
  // (tensor::put_model): in_features, window, channels, hidden, kernel,
  // outputs.
  static constexpr std::size_t kWindow = 1, kChannels = 2, kHidden = 3;

  void SetUp() override {
    small_bundle().save(path_);
    magic_ = magic_of(path_);
    payload_ = payload_of(path_);
  }
  void TearDown() override { fs::remove(path_); }

  void set_field(std::size_t field, std::uint64_t v) {
    std::memcpy(payload_.data() + field * sizeof(std::uint64_t), &v, sizeof v);
  }
  /// Seal the first `n` payload bytes.
  void seal(std::size_t n) {
    wire::write_envelope_file(path_, magic_, std::string_view(payload_).substr(0, n));
  }

  // One file per test: ctest runs the cases as parallel processes.
  const fs::path path_ = temp_file(
      std::string("mlsim_model_file_test_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".bin");
  std::uint32_t magic_ = 0;
  std::string payload_;
};

TEST_F(ModelFile, TruncatedHeaderThrowsTyped) {
  seal(3 * sizeof(std::uint64_t));
  EXPECT_THROW(SimNetBundle::load(path_), CheckError);
  seal(2);
  EXPECT_THROW(SimNetBundle::load(path_), CheckError);
}

TEST_F(ModelFile, TruncatedPayloadThrowsTyped) {
  seal(payload_.size() - 1);
  EXPECT_THROW(SimNetBundle::load(path_), CheckError);
}

TEST_F(ModelFile, InflatedChannelCountThrowsTypedBeforeAllocating) {
  for (const std::uint64_t channels :
       {std::uint64_t{40}, std::uint64_t{1} << 40, ~std::uint64_t{0}, std::uint64_t{0}}) {
    set_field(kChannels, channels);
    seal(payload_.size());
    EXPECT_THROW(SimNetBundle::load(path_), CheckError) << channels;
  }
}

TEST_F(ModelFile, ParameterCountOverflowThrowsTyped) {
  // channels * window * hidden = 4 * 2^32 * 2^32 wraps a 64-bit count.
  set_field(kWindow, std::uint64_t{1} << 32);
  set_field(kHidden, std::uint64_t{1} << 32);
  seal(payload_.size());
  EXPECT_NE(check_error(load_bundle, path_).find("model dimensions overflow"),
            std::string::npos);
}

TEST_F(ModelFile, WindowShorterThanHalfTheKernelThrowsTyped) {
  // Well formed, but the model could never run: "same" padding needs
  // window > kernel / 2.
  SimNetBundle{tensor::SimNetModel({.in_features = 3, .window = 2, .channels = 2, .hidden = 2,
                                    .kernel = 5, .outputs = 1}),
               std::vector<float>(trace::kNumFeatures, 1.0f)}
      .save(path_);
  EXPECT_THROW(SimNetBundle::load(path_), CheckError);
}

class ArtifactDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest runs the cases as parallel processes.
    dir_ = fs::temp_directory_path() /
           (std::string("mlsim_fault_test_artifacts_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    const char* old = std::getenv("MLSIM_ARTIFACT_DIR");
    if (old != nullptr) old_dir_ = old;
    ::setenv("MLSIM_ARTIFACT_DIR", dir_.c_str(), 1);
  }
  void TearDown() override {
    if (old_dir_.empty()) {
      ::unsetenv("MLSIM_ARTIFACT_DIR");
    } else {
      ::setenv("MLSIM_ARTIFACT_DIR", old_dir_.c_str(), 1);
    }
    fs::remove_all(dir_);
  }

  /// Cache a labeled trace, replace its file with `corrupt(file)`, and
  /// expect the next cached call to regenerate the trace and rewrite the
  /// file, which then loads.
  template <typename Corrupt>
  void expect_regenerated(Corrupt corrupt) {
    const trace::EncodedTrace fresh = labeled_trace("xz", 400, {}, 1, false);
    labeled_trace("xz", 400, {}, 1, true);
    std::vector<fs::path> files;
    for (const auto& e : fs::directory_iterator(dir_)) files.push_back(e.path());
    ASSERT_EQ(files.size(), 1u);
    write_bytes(files[0], corrupt(files[0]));
    EXPECT_THROW(trace::EncodedTrace::load(files[0]), CheckError);

    const trace::EncodedTrace again = labeled_trace("xz", 400, {}, 1, true);
    EXPECT_EQ(again.raw_features(), fresh.raw_features());
    EXPECT_EQ(again.raw_targets(), fresh.raw_targets());
    const trace::EncodedTrace reloaded = trace::EncodedTrace::load(files[0]);
    EXPECT_EQ(reloaded.raw_features(), fresh.raw_features());
    EXPECT_EQ(reloaded.raw_targets(), fresh.raw_targets());
  }

  fs::path dir_;
  std::string old_dir_;
};

TEST_F(ArtifactDirTest, FlippedCachedTraceIsRegenerated) {
  expect_regenerated([](const fs::path& p) {
    std::string bytes = file_bytes(p);
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 1);
    return bytes;
  });
}

TEST_F(ArtifactDirTest, ZeroLengthArtifactsDoNotExist) {
  expect_regenerated([](const fs::path&) { return std::string(); });
}

TEST_F(ArtifactDirTest, OlderBuildArtifactsAreRegenerated) {
  expect_regenerated(older_build_trace);
}

TEST_F(ArtifactDirTest, FailedWriterPublishesNothing) {
  // The target is a non-empty directory, so the rename that would publish
  // the sealed file fails.
  const fs::path target = dir_ / "x.bin";
  fs::create_directories(target / "keep");
  EXPECT_THROW(make_trace("xz", 100).save(target), IoError);
  EXPECT_TRUE(fs::is_directory(target / "keep"));
  // No stray temp files left behind either.
  std::size_t entries = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir_)) ++entries;
  EXPECT_EQ(entries, 1u);
}

}  // namespace
}  // namespace mlsim::core
