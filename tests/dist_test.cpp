// Distributed coordinator/worker cluster (docs/DISTRIBUTED.md): bit-identical
// merge vs the in-process engine, in-flight recovery from killed and hung
// workers, idempotent duplicate handling, transport-fault containment, and
// routing service requests through a remote cluster.
//
// Most tests run workers as in-process threads (the worker loop is identical
// either way and failures print); the fork-based tests exercise real process
// isolation and are skipped under ThreadSanitizer, which cannot follow forks.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "core/analytic_predictor.h"
#include "core/parallel_sim.h"
#include "core/shard.h"
#include "device/fault.h"
#include "dist/coordinator.h"
#include "dist/protocol.h"
#include "dist/result_cache.h"
#include "dist/worker.h"
#include "assign_gate.h"
#include "net/frame.h"
#include "obs/obs.h"
#include "net/socket.h"
#include "service/service.h"
#include "trace/encoder.h"
#include "trace/trace.h"
#include "uarch/ground_truth.h"

#if defined(__SANITIZE_THREAD__)
#define MLSIM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MLSIM_TSAN 1
#endif
#endif

namespace mlsim::dist {
namespace {

trace::EncodedTrace make_trace(const std::string& abbr, std::size_t n) {
  return uarch::make_encoded_trace(trace::find_workload(abbr), n, {}, 1);
}

core::ParallelSimOptions base_options(std::size_t parts, std::size_t gpus) {
  core::ParallelSimOptions o;
  o.num_subtraces = parts;
  o.num_gpus = gpus;
  o.context_length = 16;
  o.warmup = 16;
  o.post_error_correction = true;
  o.record_predictions = true;
  return o;
}

/// The in-process reference: same engine, same analytic predictor the
/// workers use, so the distributed merge must reproduce it bit for bit.
core::ParallelSimResult local_reference(const trace::EncodedTrace& tr,
                                        const core::ParallelSimOptions& o) {
  core::AnalyticPredictor pred;
  core::ParallelSimulator sim(pred, o);
  return sim.run(tr);
}

void expect_identical(const core::ParallelSimResult& a,
                      const core::ParallelSimResult& b) {
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.corrected_instructions, b.corrected_instructions);
  EXPECT_EQ(a.warmup_instructions, b.warmup_instructions);
  ASSERT_EQ(a.predictions.size(), b.predictions.size());
  for (std::size_t i = 0; i < a.predictions.size(); ++i) {
    ASSERT_EQ(a.predictions[i], b.predictions[i]) << "at " << i;
  }
}

/// Worker thread that swallows the teardown-path transport errors (the
/// coordinator and its listener are torn down while workers may still be
/// draining or reconnecting).
std::thread worker_thread(std::uint16_t port, int heartbeat_ms = 50,
                          bool reconnect = true) {
  return std::thread([port, heartbeat_ms, reconnect] {
    WorkerConfig cfg;
    cfg.port = port;
    cfg.heartbeat_ms = heartbeat_ms;
    cfg.reconnect_after_kill = reconnect;
    try {
      run_worker(cfg);
    } catch (const IoError&) {
      // Listener closed mid-reconnect; expected during teardown.
    }
  });
}

/// What a scripted (fake) worker learns from its handshake.
struct FakeSession {
  net::TcpConn conn;
  WelcomeDecoded welcome;
  device::FaultInjector injector;
  core::ParallelSimOptions opts;
  core::ShardPlan plan;
};

/// Connect + Hello + Welcome, like run_worker's handshake.
std::unique_ptr<FakeSession> fake_join(std::uint16_t port) {
  auto s = std::make_unique<FakeSession>();
  s->conn = net::TcpConn::connect("127.0.0.1", port);
  net::send_frame(s->conn, encode_hello(kProtocolVersion));
  std::string payload;
  while (true) {
    if (!net::recv_frame(s->conn, payload)) {
      throw IoError("coordinator closed during fake handshake");
    }
    if (peek_type(payload, "fake") == MsgType::kWelcome) break;
  }
  s->welcome = decode_welcome(payload, "fake");
  s->injector = device::FaultInjector(s->welcome.config.fault_options());
  s->opts = s->welcome.config.to_options(
      s->welcome.config.faults_enabled ? &s->injector : nullptr);
  s->plan = core::ShardPlan::make(s->welcome.trace.size(), s->opts);
  return s;
}

/// Block until an Assign for this session arrives (skipping anything else).
AssignMsg fake_await_assign(FakeSession& s) {
  std::string payload;
  while (true) {
    if (!net::recv_frame(s.conn, payload)) {
      throw IoError("coordinator closed while fake awaited an assignment");
    }
    if (peek_type(payload, "fake") != MsgType::kAssign) continue;
    const AssignMsg a = decode_assign(payload, "fake");
    if (a.session == s.welcome.session) return a;
  }
}

/// Compute a shard exactly as a real worker would.
core::ShardOutcome fake_compute(FakeSession& s, const AssignMsg& a) {
  core::AnalyticPredictor pred;
  core::ShardEngine engine(pred, s.welcome.trace, s.opts, s.plan);
  for (std::size_t p = a.part_lo; p < a.part_hi; ++p) engine.run_partition(p);
  return engine.block_outcome(a.part_lo, a.part_hi);
}

// ---- bit-identity ----------------------------------------------------------

TEST(Dist, TwoWorkersBitIdenticalToInProcess) {
  const auto tr = make_trace("xz", 20000);
  const auto opts = base_options(8, 4);  // 4 shards of 2 partitions
  const auto local = local_reference(tr, opts);

  CoordinatorOptions co;
  co.min_workers = 2;
  // No staleness in this scenario: generous timeout so sanitizer-speed
  // trace decode can't trip a spurious reassignment.
  co.heartbeat_timeout_ms = 30000;
  auto coord = std::make_unique<DistCoordinator>(net::TcpListener::bind(0), co);
  std::thread w1 = worker_thread(coord->port());
  std::thread w2 = worker_thread(coord->port());

  const auto out = coord->run(tr, opts);
  expect_identical(local, out);
  EXPECT_EQ(coord->stats().workers_joined, 2u);
  EXPECT_EQ(coord->stats().shards_completed, 4u);
  EXPECT_EQ(coord->stats().reassignments, 0u);

  coord.reset();  // Shutdown + listener close so the threads exit
  w1.join();
  w2.join();
}

TEST(Dist, FourWorkersManyShardsBitIdentical) {
  const auto tr = make_trace("mcf", 16000);
  auto opts = base_options(12, 6);  // 6 shards
  opts.record_context_counts = true;
  const auto local = local_reference(tr, opts);

  CoordinatorOptions co;
  co.heartbeat_timeout_ms = 30000;  // no staleness in this scenario
  auto coord = std::make_unique<DistCoordinator>(net::TcpListener::bind(0), co);
  std::vector<std::thread> ws;
  for (int i = 0; i < 4; ++i) ws.push_back(worker_thread(coord->port()));

  const auto out = coord->run(tr, opts);
  expect_identical(local, out);
  ASSERT_EQ(local.context_counts.size(), out.context_counts.size());
  EXPECT_EQ(local.context_counts, out.context_counts);
  EXPECT_EQ(coord->stats().shards_completed, 6u);

  coord.reset();
  for (auto& w : ws) w.join();
}

// ---- one ledger through every entry path -----------------------------------

/// Everything a partitioned run reports, compared exactly; the doubles by
/// their bytes.
void expect_same_run(const core::ParallelSimResult& a,
                     const core::ParallelSimResult& b) {
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_TRUE(a.predictions == b.predictions);
  EXPECT_TRUE(a.context_counts == b.context_counts);
  EXPECT_EQ(a.warmup_instructions, b.warmup_instructions);
  EXPECT_EQ(a.corrected_instructions, b.corrected_instructions);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.failed_partitions, b.failed_partitions);
  EXPECT_EQ(a.degraded_partitions, b.degraded_partitions);
  EXPECT_EQ(a.lost_devices, b.lost_devices);
  EXPECT_EQ(std::memcmp(&a.retry_backoff_us, &b.retry_backoff_us,
                        sizeof(double)),
            0)
      << a.retry_backoff_us << " vs " << b.retry_backoff_us;
  EXPECT_EQ(std::memcmp(&a.sim_time_us, &b.sim_time_us, sizeof(double)), 0)
      << a.sim_time_us << " vs " << b.sim_time_us;
}

class OneLedger : public ::testing::TestWithParam<std::size_t> {};

// Device kills and corrupted outputs on, the analytic fallback attached,
// predictions and context counts recorded: the in-process engine, per-shard
// engines merged as the coordinator merges them, a real two-worker cluster,
// and a checkpointed run killed mid-block and resumed all produce one ledger.
TEST_P(OneLedger, EveryEntryPathAgreesBitForBit) {
  const auto tr = make_trace("mcf", 6000);
  device::FaultOptions fo;
  fo.seed = 1;
  fo.device_kill_rate = 0.3;
  fo.output_corrupt_rate = 0.02;
  const device::FaultInjector faults(fo);
  core::AnalyticPredictor pred, fallback;
  auto opts = base_options(12, GetParam());
  opts.record_context_counts = true;
  opts.faults = &faults;
  opts.fallback = &fallback;
  opts.max_retries_per_partition = 8;

  const auto local = core::ParallelSimulator(pred, opts).run(tr);
  ASSERT_GT(local.retries, 0u);
  ASSERT_FALSE(local.failed_partitions.empty());
  ASSERT_FALSE(local.degraded_partitions.empty());

  const core::ShardPlan plan = core::ShardPlan::make(tr.size(), opts);
  core::ShardOutcome ledger = core::ShardOutcome::full(plan, opts);
  for (std::size_t s = 0; s < plan.num_shards; ++s) {
    core::ShardEngine engine(pred, tr, opts, plan);
    for (std::size_t p = plan.shard_lo(s); p < plan.shard_hi(s); ++p) {
      engine.run_partition(p);
    }
    ledger.absorb(plan,
                  engine.block_outcome(plan.shard_lo(s), plan.shard_hi(s)));
  }
  const auto merged = core::finalize(opts, plan, ledger, 0);

  CoordinatorOptions co;
  co.min_workers = 2;
  co.heartbeat_timeout_ms = 30000;  // no staleness in this scenario
  auto coord = std::make_unique<DistCoordinator>(net::TcpListener::bind(0), co);
  std::thread w1 = worker_thread(coord->port());
  std::thread w2 = worker_thread(coord->port());
  const auto cluster = coord->run(tr, opts);
  coord.reset();
  w1.join();
  w2.join();

  device::FaultOptions dying_fo = fo;
  dying_fo.die_after_partition = 5;  // mid-block for every G here
  const device::FaultInjector dying(dying_fo);
  auto ck = opts;
  ck.faults = &dying;
  ck.checkpoint_path =
      std::filesystem::temp_directory_path() /
      ("mlsim_one_ledger_" + std::to_string(::getpid()) + ".ckpt");
  std::filesystem::remove(ck.checkpoint_path);
  EXPECT_THROW(core::ParallelSimulator(pred, ck).run(tr),
               device::InjectedCrash);
  ck.resume = true;
  const auto resumed = core::ParallelSimulator(pred, ck).run(tr);
  EXPECT_TRUE(resumed.resumed);

  const std::pair<const char*, const core::ParallelSimResult*> paths[] = {
      {"merged shards", &merged},
      {"coordinator", &cluster},
      {"checkpoint resume", &resumed}};
  for (const auto& [name, got] : paths) {
    SCOPED_TRACE(name);
    expect_same_run(local, *got);
  }
}

INSTANTIATE_TEST_SUITE_P(Gpus, OneLedger, ::testing::Values(1, 2, 3),
                         [](const auto& tp) {
                           return "G" + std::to_string(tp.param);
                         });

// ---- plan validation -------------------------------------------------------

using PlanOption = std::size_t core::ParallelSimOptions::*;
constexpr PlanOption kPlanOptions[] = {
    &core::ParallelSimOptions::num_subtraces,
    &core::ParallelSimOptions::num_gpus,
    &core::ParallelSimOptions::context_length};

TEST(ShardPlan, RejectsZeroOptionsAndAnEmptyTrace) {
  EXPECT_THROW(core::ShardPlan::make(0, base_options(4, 2)), CheckError);
  for (const PlanOption opt : kPlanOptions) {
    auto o = base_options(4, 2);
    o.*opt = 0;
    EXPECT_THROW(core::ShardPlan::make(100, o), CheckError);
  }
}

TEST(Dist, ZeroPlanOptionThrowsBeforeAnyWelcome) {
  const auto tr = make_trace("xz", 2000);
  auto coord = std::make_unique<DistCoordinator>(net::TcpListener::bind(0));
  // A peer waiting to join: a run that got past its checks would admit it
  // and send it a Welcome.
  net::TcpConn peer = net::TcpConn::connect("127.0.0.1", coord->port());
  net::send_frame(peer, encode_hello(kProtocolVersion));
  for (const PlanOption opt : kPlanOptions) {
    auto o = base_options(4, 2);
    o.*opt = 0;
    EXPECT_THROW(coord->run(tr, o), CheckError);
  }
  EXPECT_FALSE(peer.readable(200)) << "a frame reached the waiting peer";
  EXPECT_EQ(coord->stats().workers_joined, 0u);
  EXPECT_EQ(coord->stats().shards_dispatched, 0u);
}

TEST(Dist, WorkerRejectsWelcomeWithZeroPlanOption) {
  // A Welcome whose run config would divide by zero in the plan fails the
  // worker with a typed CheckError instead.
  net::TcpListener fake_coord = net::TcpListener::bind(0);
  std::thread welcoming([&fake_coord] {
    auto conn = fake_coord.accept(5000);
    ASSERT_TRUE(conn.has_value());
    std::string payload;
    ASSERT_TRUE(net::recv_frame(*conn, payload));
    RunConfig cfg = RunConfig::from_options(base_options(4, 2));
    cfg.num_gpus = 0;
    net::send_frame(*conn, encode_welcome(1, 2, cfg, make_trace("xz", 64), 3));
    // Hold the connection until the worker drops it.
    try {
      while (net::recv_frame(*conn, payload)) {
      }
    } catch (const IoError&) {
    }
  });
  WorkerConfig cfg;
  cfg.port = fake_coord.port();
  EXPECT_THROW(run_worker(cfg), CheckError);
  welcoming.join();
}

// ---- in-flight recovery ----------------------------------------------------

TEST(Dist, WorkerKillScheduleRecoversAndStaysBitIdentical) {
  const auto tr = make_trace("xz", 20000);
  auto opts = base_options(8, 8);  // 8 single-partition shards
  device::FaultOptions fo;
  fo.seed = 1;
  fo.worker_kill_rate = 0.5;
  const device::FaultInjector injector(fo);
  opts.faults = &injector;
  // worker_kill_rate only decides *who dies while computing*, never what a
  // shard computes — the local reference with the same injector is inert.
  const auto local = local_reference(tr, opts);

  CoordinatorOptions co;
  co.min_workers = 2;
  co.heartbeat_timeout_ms = 1000;
  auto coord = std::make_unique<DistCoordinator>(net::TcpListener::bind(0), co);
  std::thread w1 = worker_thread(coord->port());
  std::thread w2 = worker_thread(coord->port());

  const auto out = coord->run(tr, opts);
  expect_identical(local, out);
  // Seed 1 @ 50% kills several of the 8 first attempts; every one must have
  // been reassigned and recomputed.
  EXPECT_GT(coord->stats().reassignments, 0u);
  EXPECT_GT(coord->stats().workers_lost, 0u);
  EXPECT_EQ(coord->stats().shards_completed, 8u);

  coord.reset();
  w1.join();
  w2.join();
}

TEST(Dist, HungWorkerShardIsReassigned) {
  const auto tr = make_trace("xz", 8000);
  const auto opts = base_options(4, 2);  // 2 shards
  const auto local = local_reference(tr, opts);

  CoordinatorOptions co;
  co.min_workers = 1;
  co.heartbeat_timeout_ms = 200;
  co.poll_ms = 20;
  auto coord = std::make_unique<DistCoordinator>(net::TcpListener::bind(0), co);

  // The hung worker joins first, receives a shard, and never speaks again.
  std::thread hung([port = coord->port()] {
    try {
      auto s = fake_join(port);
      (void)fake_await_assign(*s);
      std::this_thread::sleep_for(std::chrono::milliseconds(1500));  // silent
    } catch (const IoError&) {
    }
  });
  std::thread rescuer([port = coord->port()] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    WorkerConfig cfg;
    cfg.port = port;
    cfg.heartbeat_ms = 50;
    try {
      run_worker(cfg);
    } catch (const IoError&) {
    }
  });

  const auto out = coord->run(tr, opts);
  expect_identical(local, out);
  EXPECT_GT(coord->stats().reassignments, 0u);

  coord.reset();
  hung.join();
  rescuer.join();
}

// ---- duplicate & late deliveries -------------------------------------------

TEST(Dist, DuplicateResultIsDroppedIdempotently) {
  const auto tr = make_trace("xz", 8000);
  const auto opts = base_options(4, 2);  // 2 shards
  const auto local = local_reference(tr, opts);

  auto coord = std::make_unique<DistCoordinator>(net::TcpListener::bind(0));
  // One scripted worker computes both shards, delivering the first result
  // twice. The duplicate must be counted and ignored, not merged twice.
  std::thread fake([port = coord->port()] {
    try {
      auto s = fake_join(port);
      const AssignMsg a = fake_await_assign(*s);
      const auto outcome = fake_compute(*s, a);
      const std::string result =
          encode_result({a.session, a.shard, a.attempt}, outcome);
      net::send_frame(s->conn, result);
      net::send_frame(s->conn, result);  // duplicate delivery
      const AssignMsg b = fake_await_assign(*s);
      net::send_frame(s->conn, encode_result({b.session, b.shard, b.attempt},
                                             fake_compute(*s, b)));
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    } catch (const IoError&) {
    }
  });

  const auto out = coord->run(tr, opts);
  expect_identical(local, out);
  EXPECT_EQ(coord->stats().duplicates_dropped, 1u);
  EXPECT_EQ(coord->stats().shards_completed, 2u);

  coord.reset();
  fake.join();
}

TEST(Dist, LateResultAfterReassignmentIsNotMergedTwice) {
  const auto tr = make_trace("xz", 8000);
  const auto opts = base_options(4, 2);  // shards: s0, s1
  const auto local = local_reference(tr, opts);

  CoordinatorOptions co;
  co.heartbeat_timeout_ms = 300;
  co.poll_ms = 20;
  auto coord = std::make_unique<DistCoordinator>(net::TcpListener::bind(0), co);
  const std::uint16_t port = coord->port();

  // `slow` takes a shard and goes silent past the heartbeat timeout; the
  // shard is reassigned to `spare` and completed there. When `slow` finally
  // delivers, the shard is already Done — exactly one of the two deliveries
  // for that shard may be merged.
  std::thread slow([port] {
    try {
      auto s = fake_join(port);
      const AssignMsg a = fake_await_assign(*s);
      const auto outcome = fake_compute(*s, a);
      std::this_thread::sleep_for(std::chrono::milliseconds(900));
      net::send_frame(s->conn,
                      encode_result({a.session, a.shard, a.attempt}, outcome));
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    } catch (const IoError&) {
    }
  });
  // `holder` keeps the other shard in flight (with heartbeats) long enough
  // that the coordinator is still listening when the late result lands.
  std::thread holder([port] {
    try {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      auto s = fake_join(port);
      const AssignMsg a = fake_await_assign(*s);
      const auto outcome = fake_compute(*s, a);
      HeartbeatMsg hb;
      hb.session = a.session;
      hb.shard = a.shard;
      for (int i = 0; i < 32; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        net::send_frame(s->conn, encode_heartbeat(hb));
      }
      net::send_frame(s->conn,
                      encode_result({a.session, a.shard, a.attempt}, outcome));
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    } catch (const IoError&) {
    }
  });
  // `spare` joins idle and picks up the reassigned shard.
  std::thread spare([port] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    WorkerConfig cfg;
    cfg.port = port;
    cfg.heartbeat_ms = 50;
    try {
      run_worker(cfg);
    } catch (const IoError&) {
    }
  });

  const auto out = coord->run(tr, opts);
  expect_identical(local, out);
  EXPECT_GT(coord->stats().reassignments, 0u);
  // At least `slow`'s late delivery must be dropped. Under heavy suite load
  // (TSan, -j8) a scheduler stall can push `holder` past the heartbeat
  // timeout too, adding a benign extra requeue + duplicate — the proof that
  // nothing merged twice is shards_completed plus the bit-identical CPI.
  EXPECT_GE(coord->stats().duplicates_dropped, 1u);
  EXPECT_EQ(coord->stats().shards_completed, 2u);

  coord.reset();
  slow.join();
  holder.join();
  spare.join();
}

// ---- transport faults ------------------------------------------------------

TEST(Dist, TruncatedFrameDropsWorkerAndRunStillCompletes) {
  const auto tr = make_trace("xz", 8000);
  const auto opts = base_options(4, 1);  // a single shard
  const auto local = local_reference(tr, opts);

  // The garbler takes the shard, then sends one of these and vanishes: a
  // torn frame, or a well-framed Result whose span count claims 2^62 spans.
  // The coordinator must diagnose either as the worker's loss (typed error
  // internally, never a hang or an escaped exception), drop the worker,
  // and reassign.
  using Garble = void (*)(net::TcpConn&, const AssignMsg&);
  const Garble garbles[] = {
      [](net::TcpConn& conn, const AssignMsg&) {
        const std::string frame =
            wire::seal(net::kFrameMagic, "half a result");
        conn.send_all(frame.data(), frame.size() / 2);
      },
      [](net::TcpConn& conn, const AssignMsg& a) {
        std::string result = encode_result({a.session, a.shard, a.attempt},
                                           core::ShardOutcome{});
        const std::uint64_t spans = 1ull << 62;  // the Result's last field
        std::memcpy(result.data() + result.size() - sizeof(spans), &spans,
                    sizeof(spans));
        net::send_frame(conn, result);
      }};
  for (const Garble garble : garbles) {
    auto coord = std::make_unique<DistCoordinator>(net::TcpListener::bind(0));
    std::thread garbler([port = coord->port(), garble] {
      try {
        auto s = fake_join(port);
        garble(s->conn, fake_await_assign(*s));
        s->conn.close();
      } catch (const IoError&) {
      }
    });
    std::thread rescuer([port = coord->port()] {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      WorkerConfig cfg;
      cfg.port = port;
      cfg.heartbeat_ms = 50;
      try {
        run_worker(cfg);
      } catch (const IoError&) {
      }
    });

    const auto out = coord->run(tr, opts);
    expect_identical(local, out);
    EXPECT_GE(coord->stats().workers_lost, 1u);
    EXPECT_GE(coord->stats().reassignments, 1u);

    coord.reset();
    garbler.join();
    rescuer.join();
  }
}

TEST(Dist, AssignmentBudgetExhaustionIsCheckError) {
  const auto tr = make_trace("xz", 6000);
  const auto opts = base_options(4, 1);  // a single shard
  CoordinatorOptions co;
  co.max_assign_attempts = 1;
  co.heartbeat_timeout_ms = 200;
  co.poll_ms = 20;
  auto coord = std::make_unique<DistCoordinator>(net::TcpListener::bind(0), co);
  const std::uint16_t port = coord->port();

  // First fake takes the only assignment and dies; the idle second fake
  // makes the coordinator try to reassign — past the budget of 1.
  std::thread dying([port] {
    try {
      auto s = fake_join(port);
      (void)fake_await_assign(*s);
      s->conn.abort();
    } catch (const IoError&) {
    }
  });
  std::thread idle([port] {
    try {
      auto s = fake_join(port);
      std::string payload;
      while (net::recv_frame(s->conn, payload)) {
      }  // drain until the coordinator goes away
    } catch (const IoError&) {
    }
  });

  EXPECT_THROW(coord->run(tr, opts), CheckError);
  coord.reset();
  dying.join();
  idle.join();
}

TEST(Dist, ProtocolVersionMismatchIsRejected) {
  // Coordinator side: a Hello or Rejoin of any version but kProtocolVersion
  // is Rejected and never joins, and the run still merges bit-identically.
  const auto tr = make_trace("xz", 6000);
  const auto opts = base_options(2, 1);
  const auto local = local_reference(tr, opts);
  const std::uint32_t versions[] = {1, 2, 3, 4, kProtocolVersion + 1};
  auto coord = std::make_unique<DistCoordinator>(net::TcpListener::bind(0));
  std::thread peers([port = coord->port(), &versions] {
    for (const std::uint32_t v : versions) {
      for (const bool rejoin : {false, true}) {
        SCOPED_TRACE("version " + std::to_string(v) +
                     (rejoin ? " Rejoin" : " Hello"));
        try {
          net::TcpConn conn = net::TcpConn::connect("127.0.0.1", port);
          net::send_frame(conn, rejoin ? encode_rejoin({v, 1, 1, kIdleShard})
                                       : encode_hello(v));
          std::string payload;
          EXPECT_TRUE(net::recv_frame(conn, payload));
          EXPECT_EQ(peek_type(payload, "fake"), MsgType::kReject);
          EXPECT_NE(decode_reject(payload, "fake").find("version"),
                    std::string::npos);
        } catch (const std::exception& e) {
          ADD_FAILURE() << e.what();
        }
      }
    }
    // The current-version worker joins only after every mismatch was
    // answered, so all of them were handled inside the run.
    WorkerConfig cfg;
    cfg.port = port;
    cfg.heartbeat_ms = 50;
    try {
      run_worker(cfg);
    } catch (const IoError&) {
    }
  });
  const auto out = coord->run(tr, opts);
  expect_identical(local, out);
  EXPECT_EQ(coord->stats().workers_rejected, 2 * std::size(versions));
  EXPECT_EQ(coord->stats().workers_joined, 1u);
  coord.reset();
  peers.join();

  // Worker side: a Reject surfaces as a typed CheckError, not a retry loop.
  net::TcpListener fake_coord = net::TcpListener::bind(0);
  std::thread rejecting([&fake_coord] {
    auto conn = fake_coord.accept(5000);
    ASSERT_TRUE(conn.has_value());
    std::string payload;
    ASSERT_TRUE(net::recv_frame(*conn, payload));
    net::send_frame(*conn, encode_reject("too new for me"));
  });
  WorkerConfig cfg;
  cfg.port = fake_coord.port();
  EXPECT_THROW(run_worker(cfg), CheckError);
  rejecting.join();
}


// ---- message codecs --------------------------------------------------------

TEST(DistProtocol, AssignRoundTripsShardRangeAndTraceContext) {
  AssignMsg m;
  m.session = 11;
  m.shard = 2;
  m.part_lo = 4;
  m.part_hi = 8;
  m.attempt = 3;
  m.trace_id = 0xfeedULL;
  m.parent_span = 0x1234ULL;

  const AssignMsg d = decode_assign(encode_assign(m), "test");
  EXPECT_EQ(d.session, m.session);
  EXPECT_EQ(d.shard, m.shard);
  EXPECT_EQ(d.part_lo, m.part_lo);
  EXPECT_EQ(d.part_hi, m.part_hi);
  EXPECT_EQ(d.attempt, m.attempt);
  EXPECT_EQ(d.trace_id, m.trace_id);
  EXPECT_EQ(d.parent_span, m.parent_span);
}

TEST(DistProtocol, ResultCarriesTraceIdAndSpans) {
  core::ShardOutcome outcome;  // contents don't matter for the envelope
  std::vector<obs::SpanRecord> spans(2);
  spans[0].name = "worker/partition";
  spans[0].ts_ns = 100;
  spans[0].dur_ns = 50;
  spans[0].depth = 1;
  spans[0].tid = 4;
  spans[1].name = "worker/partition";
  spans[1].ts_ns = 200;
  spans[1].dur_ns = 60;

  const ResultHeader h{21, 1, 2};
  const ResultDecoded d =
      decode_result(encode_result(h, outcome, 0xbeefULL, spans), "test");
  EXPECT_EQ(d.header.session, 21u);
  EXPECT_EQ(d.header.shard, 1u);
  EXPECT_EQ(d.header.attempt, 2u);
  EXPECT_EQ(d.trace_id, 0xbeefULL);
  ASSERT_EQ(d.spans.size(), 2u);
  EXPECT_EQ(d.spans[0].name, "worker/partition");
  EXPECT_EQ(d.spans[0].ts_ns, 100u);
  EXPECT_EQ(d.spans[0].dur_ns, 50u);
  EXPECT_EQ(d.spans[0].depth, 1u);
  EXPECT_EQ(d.spans[0].tid, 4u);
  EXPECT_EQ(d.spans[1].ts_ns, 200u);
}

TEST(DistProtocol, HeartbeatCarriesBusyRatioAndRollups) {
  HeartbeatMsg m;
  m.session = 5;
  m.shard = kIdleShard;
  m.busy_ratio = 0.625;
  m.rollups = {{0, 41}, {2, 7}};

  const HeartbeatMsg d = decode_heartbeat(encode_heartbeat(m), "test");
  EXPECT_EQ(d.session, 5u);
  EXPECT_EQ(d.shard, kIdleShard);
  EXPECT_DOUBLE_EQ(d.busy_ratio, 0.625);
  ASSERT_EQ(d.rollups.size(), 2u);
  EXPECT_EQ(d.rollups[0].id, 0u);
  EXPECT_EQ(d.rollups[0].delta, 41u);
  EXPECT_EQ(d.rollups[1].id, 2u);
  EXPECT_EQ(d.rollups[1].delta, 7u);
}

TEST(DistProtocol, GoodbyeRoundTrips) {
  GoodbyeMsg m;
  m.session = 77;
  m.shard = 3;
  const GoodbyeMsg d = decode_goodbye(encode_goodbye(m), "test");
  EXPECT_EQ(d.session, 77u);
  EXPECT_EQ(d.shard, 3u);

  GoodbyeMsg idle;
  idle.session = 9;
  idle.shard = kIdleShard;
  EXPECT_EQ(decode_goodbye(encode_goodbye(idle), "test").shard, kIdleShard);
}

// ---- rejoin ----------------------------------------------------------------

TEST(DistProtocol, WelcomeCarriesSessionFingerprintAndToken) {
  const auto tr = make_trace("xz", 2000);
  RunConfig cfg;
  cfg.num_subtraces = 4;
  cfg.num_gpus = 2;

  const WelcomeDecoded d =
      decode_welcome(encode_welcome(11, 0xabcdULL, cfg, tr, 0x5eedULL), "test");
  EXPECT_EQ(d.session, 11u);
  EXPECT_EQ(d.fingerprint, 0xabcdULL);
  EXPECT_EQ(d.token, 0x5eedULL);
}

TEST(DistProtocol, WelcomeRoundTripsLabeledAndUnlabeledTraces) {
  RunConfig cfg;
  cfg.num_subtraces = 4;
  cfg.num_gpus = 2;
  const trace::EncodedTrace labeled = make_trace("mcf", 1500);
  ASSERT_TRUE(labeled.labeled());
  // The same feature rows without targets.
  trace::EncodedTrace unlabeled("mcf");
  for (std::size_t i = 0; i < labeled.size(); ++i) {
    trace::FeatureVector row;
    std::copy_n(labeled.features(i).begin(), trace::kNumFeatures, row.begin());
    unlabeled.append(row);
  }
  ASSERT_FALSE(unlabeled.labeled());
  for (const trace::EncodedTrace* tr :
       {&labeled, const_cast<const trace::EncodedTrace*>(&unlabeled)}) {
    const WelcomeDecoded d =
        decode_welcome(encode_welcome(3, 0x77ULL, cfg, *tr, 9), "test");
    EXPECT_EQ(d.trace.size(), tr->size());
    EXPECT_EQ(d.trace.benchmark(), tr->benchmark());
    EXPECT_EQ(d.trace.raw_features(), tr->raw_features());
    EXPECT_EQ(d.trace.raw_targets(), tr->raw_targets());
    EXPECT_EQ(d.trace.labeled(), tr->labeled());
  }
}

TEST(DistProtocol, RejoinRoundTrips) {
  RejoinMsg m;
  m.version = kProtocolVersion;
  m.token = 0xfeedbeefULL;
  m.session = 42;
  m.shard = 7;
  const std::string payload = encode_rejoin(m);
  EXPECT_EQ(peek_type(payload, "test"), MsgType::kRejoin);
  const RejoinMsg d = decode_rejoin(payload, "test");
  EXPECT_EQ(d.version, kProtocolVersion);
  EXPECT_EQ(d.token, 0xfeedbeefULL);
  EXPECT_EQ(d.session, 42u);
  EXPECT_EQ(d.shard, 7u);
}

TEST(DistProtocol, DecodersRejectEveryPrefixAndTrailingByte) {
  // Every message has one layout and a decoder that reads all of it: no
  // strict prefix of a valid payload decodes, and neither does the payload
  // with one byte appended.
  core::ShardOutcome outcome;
  outcome.part_hi = 1;
  outcome.partition_cycles = {7};
  outcome.final_attempt = {0};
  std::vector<obs::SpanRecord> spans(1);
  spans[0].name = "worker/partition";
  HeartbeatMsg hb;
  hb.busy_ratio = 0.5;
  hb.rollups = {{1, 3}};
  struct Case {
    const char* name;
    std::string payload;
    void (*decode)(std::string_view);
  };
  const Case cases[] = {
      {"Hello", encode_hello(kProtocolVersion),
       [](std::string_view p) { (void)decode_hello(p, "test"); }},
      {"Welcome", encode_welcome(1, 2, RunConfig{}, make_trace("xz", 4), 3),
       [](std::string_view p) { (void)decode_welcome(p, "test"); }},
      {"Reject", encode_reject("no"),
       [](std::string_view p) { (void)decode_reject(p, "test"); }},
      {"Assign", encode_assign({1, 2, 0, 1, 0, 5, 6}),
       [](std::string_view p) { (void)decode_assign(p, "test"); }},
      {"Result", encode_result({1, 2, 0}, outcome, 5, spans),
       [](std::string_view p) { (void)decode_result(p, "test"); }},
      {"Heartbeat", encode_heartbeat(hb),
       [](std::string_view p) { (void)decode_heartbeat(p, "test"); }},
      {"Shutdown", encode_shutdown(),
       [](std::string_view p) { decode_shutdown(p, "test"); }},
      {"WorkerError", encode_worker_error({1, 2, 1, "boom"}),
       [](std::string_view p) { (void)decode_worker_error(p, "test"); }},
      {"Goodbye", encode_goodbye({1, kIdleShard}),
       [](std::string_view p) { (void)decode_goodbye(p, "test"); }},
      {"Rejoin", encode_rejoin({kProtocolVersion, 3, 1, kIdleShard}),
       [](std::string_view p) { (void)decode_rejoin(p, "test"); }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string_view payload = c.payload;
    EXPECT_NO_THROW(c.decode(payload));
    for (std::size_t len = 0; len < payload.size(); ++len) {
      EXPECT_THROW(c.decode(payload.substr(0, len)), CheckError)
          << "prefix of " << len << " bytes";
    }
    EXPECT_THROW(c.decode(c.payload + '\0'), CheckError);
  }
}

TEST(DistProtocol, CountsBeyondThePayloadAreCheckErrors) {
  // Element counts that claim more than the payload holds, chosen so the
  // size product wraps or the reservation cannot be met: each must be a
  // typed CheckError before anything is allocated from it.
  std::string result = encode_result({1, 0, 0}, core::ShardOutcome{});
  const std::uint64_t spans = 1ull << 62;  // span count: the last field
  std::memcpy(result.data() + result.size() - sizeof(spans), &spans,
              sizeof(spans));
  EXPECT_THROW(decode_result(result, "test"), CheckError);

  std::string heartbeat = encode_heartbeat(HeartbeatMsg{});
  const std::uint32_t rollups = ~0u;  // rollup count: the last field
  std::memcpy(heartbeat.data() + heartbeat.size() - sizeof(rollups), &rollups,
              sizeof(rollups));
  EXPECT_THROW(decode_heartbeat(heartbeat, "test"), CheckError);

  // One unlabeled feature row declared as 2^63 + 1 instructions, so that
  // n * kNumFeatures wraps back to the row's length.
  wire::Writer w;
  w.pod(static_cast<std::uint32_t>(MsgType::kWelcome));
  w.pod<std::uint64_t>(1);  // session
  w.pod<std::uint64_t>(2);  // fingerprint
  put_run_config(w, RunConfig{});
  w.str("xz");
  w.pod<std::uint64_t>((1ull << 63) + 1);
  w.pod<std::uint8_t>(0);  // unlabeled
  w.vec(std::vector<std::int32_t>(trace::kNumFeatures));
  w.vec(std::vector<std::uint32_t>{});
  w.pod<std::uint64_t>(3);  // token
  EXPECT_THROW(decode_welcome(w.bytes(), "test"), CheckError);
}

TEST(Dist, RejoiningWorkerReattachesAndRunStaysBitIdentical) {
  // A scripted worker takes a shard, drops its connection mid-flight,
  // then reconnects with the session token (Rejoin) and finishes the run.
  const auto tr = make_trace("xz", 8000);
  const auto opts = base_options(4, 2);  // 2 shards
  const auto local = local_reference(tr, opts);

  CoordinatorOptions co;
  co.heartbeat_timeout_ms = 30000;
  co.poll_ms = 10;
  auto coord = std::make_unique<DistCoordinator>(net::TcpListener::bind(0), co);
  std::thread fake([port = coord->port()] {
    try {
      auto s = fake_join(port);
      EXPECT_NE(s->welcome.token, 0u);
      const AssignMsg a = fake_await_assign(*s);
      s->conn.abort();  // transport loss mid-shard, no Result delivered

      // Re-attach: same token, the in-flight shard declared.
      auto r = std::make_unique<FakeSession>();
      r->conn = net::TcpConn::connect("127.0.0.1", port);
      net::send_frame(r->conn, encode_rejoin({kProtocolVersion,
                                              s->welcome.token,
                                              s->welcome.session, a.shard}));
      std::string payload;
      while (true) {
        if (!net::recv_frame(r->conn, payload)) {
          throw IoError("coordinator closed during rejoin");
        }
        if (peek_type(payload, "fake") == MsgType::kWelcome) break;
      }
      r->welcome = decode_welcome(payload, "fake");
      EXPECT_EQ(r->welcome.token, s->welcome.token);
      r->opts = r->welcome.config.to_options(nullptr);
      r->plan = core::ShardPlan::make(r->welcome.trace.size(), r->opts);
      for (int shard = 0; shard < 2; ++shard) {
        const AssignMsg b = fake_await_assign(*r);
        net::send_frame(r->conn, encode_result({b.session, b.shard, b.attempt},
                                               fake_compute(*r, b)));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    } catch (const IoError&) {
    }
  });

  const auto out = coord->run(tr, opts);
  expect_identical(local, out);
  EXPECT_GE(coord->stats().workers_rejoined, 1u);
  EXPECT_EQ(coord->stats().shards_completed, 2u);
  coord.reset();
  fake.join();
}

TEST(Dist, HeartbeatRollupsFoldIntoClusterMetrics) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "stripped build";
  obs::set_enabled(true);
  obs::reset_trace();
  const auto tr = make_trace("xz", 8000);
  const auto opts = base_options(4, 2);  // 2 shards
  auto& reg = obs::default_registry();
  const std::uint64_t instr_before =
      reg.counter(obs::names::kClusterWorkerInstructions).value();
  const std::uint64_t retries_before =
      reg.counter(obs::names::kClusterWorkerRetries).value();

  CoordinatorOptions co;
  co.min_workers = 2;  // one shard each
  co.heartbeat_timeout_ms = 30000;
  auto coord = std::make_unique<DistCoordinator>(net::TcpListener::bind(0), co);
  // One worker reports busy time and rollups; the other never heartbeats,
  // so it must stay out of the mean-busy gauge rather than count as zero.
  const auto fake = [port = coord->port()](bool reports) {
    return std::thread([port, reports] {
      try {
        auto s = fake_join(port);
        const AssignMsg a = fake_await_assign(*s);
        if (reports) {
          HeartbeatMsg hb;
          hb.session = a.session;
          hb.shard = a.shard;
          hb.busy_ratio = 0.75;
          hb.rollups = {{0, 5}, {2, 7}, {kNumRollupCounters + 9, 1}};
          net::send_frame(s->conn, encode_heartbeat(hb));
        }
        net::send_frame(s->conn, encode_result({a.session, a.shard, a.attempt},
                                               fake_compute(*s, a)));
        std::this_thread::sleep_for(std::chrono::milliseconds(600));
      } catch (const IoError&) {
      }
    });
  };
  std::thread reporting = fake(true);
  std::thread silent = fake(false);

  const auto out = coord->run(tr, opts);
  EXPECT_EQ(out.total_cycles, local_reference(tr, opts).total_cycles);
  // The worker-shipped deltas landed in the cluster rollups (the unknown
  // positional id was ignored), and the busy report alone drove the gauge.
  EXPECT_EQ(reg.counter(obs::names::kClusterWorkerInstructions).value(),
            instr_before + 5);
  EXPECT_EQ(reg.counter(obs::names::kClusterWorkerRetries).value(),
            retries_before + 7);
  EXPECT_DOUBLE_EQ(reg.gauge(obs::names::kClusterWorkerBusyRatio).value(),
                   0.75);
  // The health document exposes each worker's ratio, null until reported;
  // appending flight-recorder post-mortems keeps it one well-formed object.
  const std::string health = coord->cluster_json();
  EXPECT_NE(health.find("\"busy_ratio\":0.75"), std::string::npos) << health;
  EXPECT_NE(health.find("\"busy_ratio\":null"), std::string::npos) << health;
  const std::string with_errors = coord->cluster_json(2);
  EXPECT_NE(with_errors.find("\"last_errors\":["), std::string::npos);
  EXPECT_EQ(with_errors.back(), '}');
  coord.reset();
  reporting.join();
  silent.join();
  obs::set_enabled(false);
}

// ---- elasticity & churn ----------------------------------------------------

TEST(Dist, GoodbyeRequeuesInFlightShardWithoutTimeout) {
  const auto tr = make_trace("xz", 8000);
  const auto opts = base_options(4, 2);  // 2 shards
  const auto local = local_reference(tr, opts);

  CoordinatorOptions co;
  // The requeue must come from the Goodbye, not from staleness: a timeout
  // this large can never fire inside the test.
  co.heartbeat_timeout_ms = 30000;
  co.poll_ms = 20;
  auto coord = std::make_unique<DistCoordinator>(net::TcpListener::bind(0), co);
  const std::uint16_t port = coord->port();

  // Takes a shard, then announces a planned departure instead of computing.
  std::thread leaver([port] {
    try {
      auto s = fake_join(port);
      const AssignMsg a = fake_await_assign(*s);
      net::send_frame(s->conn, encode_goodbye({a.session, a.shard}));
      std::string payload;
      while (net::recv_frame(s->conn, payload)) {
      }  // until the coordinator closes the connection
    } catch (const IoError&) {
    }
  });
  std::thread rescuer([port] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    WorkerConfig cfg;
    cfg.port = port;
    cfg.heartbeat_ms = 50;
    try {
      run_worker(cfg);
    } catch (const IoError&) {
    }
  });

  const auto out = coord->run(tr, opts);
  expect_identical(local, out);
  const auto st = coord->stats();
  EXPECT_EQ(st.workers_departed, 1u);
  EXPECT_EQ(st.workers_lost, 0u);  // a Goodbye is not a loss
  EXPECT_GE(st.reassignments, 1u);
  EXPECT_EQ(st.shards_completed, 2u);

  coord.reset();
  leaver.join();
  rescuer.join();
}

TEST(Dist, WorkerLeaveAfterShardsDepartsCleanly) {
  const auto tr = make_trace("xz", 20000);
  const auto opts = base_options(8, 4);  // 4 shards
  const auto local = local_reference(tr, opts);

  CoordinatorOptions co;
  co.heartbeat_timeout_ms = 30000;
  auto coord = std::make_unique<DistCoordinator>(net::TcpListener::bind(0), co);

  // A real worker that drains one shard and then leaves on purpose (the
  // scale-down / supervisor-restart path); the stayer finishes the rest.
  // The stayer joins only once the leaver has returned, so shards are still
  // pending when the Goodbye arrives: a stayer racing ahead could otherwise
  // finish the run before the coordinator reads it.
  WorkerStats leaver_stats;
  std::thread leaver([&leaver_stats, port = coord->port()] {
    WorkerConfig cfg;
    cfg.port = port;
    cfg.heartbeat_ms = 50;
    cfg.leave_after_shards = 1;
    try {
      leaver_stats = run_worker(cfg);
    } catch (const IoError&) {
    }
  });
  std::thread stayer([&leaver, port = coord->port()] {
    leaver.join();  // returned on its own after the Goodbye
    worker_thread(port).join();
  });

  const auto out = coord->run(tr, opts);
  expect_identical(local, out);
  const auto st = coord->stats();
  EXPECT_EQ(st.shards_completed, 4u);
  EXPECT_EQ(st.workers_departed, 1u);
  EXPECT_EQ(st.workers_lost, 0u);

  coord.reset();
  stayer.join();
  EXPECT_EQ(leaver_stats.shards_computed, 1u);
}

TEST(Dist, WorkerJoinsMidRunAndReceivesWork) {
  const auto tr = make_trace("xz", 8000);
  const auto opts = base_options(4, 2);  // 2 shards
  const auto local = local_reference(tr, opts);

  CoordinatorOptions co;
  co.min_workers = 1;
  co.heartbeat_timeout_ms = 30000;
  co.poll_ms = 20;
  auto coord = std::make_unique<DistCoordinator>(net::TcpListener::bind(0), co);
  const std::uint16_t port = coord->port();

  // The founding member holds its shard long enough that the run is still
  // in flight when the second worker joins; the joiner must get the other
  // shard through the normal Hello/Welcome handshake, mid-run.
  std::thread holder([port] {
    try {
      auto s = fake_join(port);
      const AssignMsg a = fake_await_assign(*s);
      const auto outcome = fake_compute(*s, a);
      std::this_thread::sleep_for(std::chrono::milliseconds(800));
      net::send_frame(s->conn,
                      encode_result({a.session, a.shard, a.attempt}, outcome));
      std::string payload;
      while (net::recv_frame(s->conn, payload)) {
      }
    } catch (const IoError&) {
    }
  });
  WorkerStats joiner_stats;
  std::thread joiner([&joiner_stats, port] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    WorkerConfig cfg;
    cfg.port = port;
    cfg.heartbeat_ms = 50;
    try {
      joiner_stats = run_worker(cfg);
    } catch (const IoError&) {
    }
  });

  const auto out = coord->run(tr, opts);
  expect_identical(local, out);
  EXPECT_EQ(coord->stats().workers_joined, 2u);
  EXPECT_EQ(coord->stats().shards_completed, 2u);

  coord.reset();
  holder.join();
  joiner.join();
  EXPECT_GE(joiner_stats.shards_computed, 1u);
}

TEST(Dist, StolenShardMergesBitIdentical) {
  const auto tr = make_trace("xz", 20000);
  const auto opts = base_options(8, 4);  // 4 shards
  const auto local = local_reference(tr, opts);

  CoordinatorOptions co;
  co.min_workers = 2;
  co.heartbeat_timeout_ms = 30000;  // staleness must not be the rescuer
  co.poll_ms = 20;
  co.steal = true;
  auto coord = std::make_unique<DistCoordinator>(net::TcpListener::bind(0), co);
  const std::uint16_t port = coord->port();

  // The straggler takes a shard and never delivers; the fast worker clears
  // the other three (establishing a fleet pace), goes idle, and the
  // coordinator must steal the held shard onto it.
  std::thread straggler([port] {
    try {
      auto s = fake_join(port);
      (void)fake_await_assign(*s);
      std::string payload;
      while (net::recv_frame(s->conn, payload)) {
      }  // hold the shard until the coordinator goes away
    } catch (const IoError&) {
    }
  });
  std::thread fast([port] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    WorkerConfig cfg;
    cfg.port = port;
    cfg.heartbeat_ms = 50;
    try {
      run_worker(cfg);
    } catch (const IoError&) {
    }
  });

  const auto out = coord->run(tr, opts);
  expect_identical(local, out);
  const auto st = coord->stats();
  EXPECT_GE(st.steals, 1u);
  EXPECT_EQ(st.shards_completed, 4u);
  EXPECT_EQ(st.reassignments, 0u);  // stealing, not presumed-dead requeueing

  coord.reset();
  straggler.join();
  fast.join();
}

TEST(Dist, SpeculativeDuplicatesBothCompleteBitIdentical) {
  const auto tr = make_trace("xz", 10000);
  const auto opts = base_options(10, 5);  // 5 shards of 2 partitions
  const auto local = local_reference(tr, opts);

  CoordinatorOptions co;
  co.min_workers = 4;
  co.heartbeat_timeout_ms = 30000;
  co.poll_ms = 20;
  co.speculate_pct = 50.0;  // duplicate anything slower than the median
  auto coord = std::make_unique<DistCoordinator>(net::TcpListener::bind(0), co);
  const std::uint16_t port = coord->port();

  // Join order is choreographed: the two stragglers take shards 0 and 1;
  // the scripted twin joins last, so the rebalancer's idle pick hands it
  // the first speculative duplicate (it sits on it), while the real worker
  // gets the second and completes it fast. Straggler B then delivers its
  // own copy of an already-completed shard while the run is still alive —
  // both copies complete, exactly one is merged.
  std::thread slow_a([port] {
    try {
      auto s = fake_join(port);
      const AssignMsg a = fake_await_assign(*s);
      const auto outcome = fake_compute(*s, a);
      std::this_thread::sleep_for(std::chrono::milliseconds(4500));
      net::send_frame(s->conn,
                      encode_result({a.session, a.shard, a.attempt}, outcome));
      std::string payload;
      while (net::recv_frame(s->conn, payload)) {
      }
    } catch (const IoError&) {
    }
  });
  std::thread slow_b([port] {
    try {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      auto s = fake_join(port);
      const AssignMsg a = fake_await_assign(*s);
      const auto outcome = fake_compute(*s, a);
      std::this_thread::sleep_for(std::chrono::milliseconds(2500));
      net::send_frame(s->conn,
                      encode_result({a.session, a.shard, a.attempt}, outcome));
      std::string payload;
      while (net::recv_frame(s->conn, payload)) {
      }
    } catch (const IoError&) {
    }
  });
  std::thread fast([port] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    WorkerConfig cfg;
    cfg.port = port;
    cfg.heartbeat_ms = 50;
    try {
      run_worker(cfg);
    } catch (const IoError&) {
    }
  });
  std::thread twin([port] {
    try {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      auto s = fake_join(port);
      while (true) {
        const AssignMsg a = fake_await_assign(*s);
        const auto outcome = fake_compute(*s, a);
        if (a.shard <= 1) {
          // A speculative copy of a straggler's shard: hold it so the
          // original owners' deliveries land while the run is in flight.
          std::this_thread::sleep_for(std::chrono::milliseconds(4000));
        }
        net::send_frame(
            s->conn, encode_result({a.session, a.shard, a.attempt}, outcome));
      }
    } catch (const IoError&) {
    }
  });

  const auto out = coord->run(tr, opts);
  expect_identical(local, out);
  const auto st = coord->stats();
  EXPECT_GE(st.speculations, 2u);
  EXPECT_GE(st.duplicates_dropped, 1u);
  EXPECT_EQ(st.shards_completed, 5u);

  coord.reset();
  slow_a.join();
  slow_b.join();
  fast.join();
  twin.join();
}

TEST(Dist, RepeatedRunIsServedEntirelyFromResultCache) {
  const auto tr = make_trace("xz", 8000);
  const auto opts = base_options(4, 2);  // 2 shards
  const auto local = local_reference(tr, opts);

  CoordinatorOptions co;
  co.heartbeat_timeout_ms = 30000;
  co.result_cache_entries = 64;
  auto coord = std::make_unique<DistCoordinator>(net::TcpListener::bind(0), co);
  std::thread w = worker_thread(coord->port());

  const auto first = coord->run(tr, opts);
  expect_identical(local, first);
  const auto s1 = coord->stats();
  EXPECT_EQ(s1.cache_hits, 0u);
  EXPECT_EQ(s1.cache_misses, 2u);
  EXPECT_EQ(s1.shards_dispatched, 2u);

  // The identical run again: every shard is served from the cache, nothing
  // is dispatched, and the merge is still bit-identical.
  const auto second = coord->run(tr, opts);
  expect_identical(local, second);
  const auto s2 = coord->stats();
  EXPECT_EQ(s2.cache_hits, 2u);
  EXPECT_EQ(s2.shards_dispatched, s1.shards_dispatched);
  EXPECT_EQ(s2.shards_completed, s1.shards_completed);

  coord.reset();
  w.join();
}

TEST(Dist, ResultCacheNeverHitsAcrossDifferentFingerprints) {
  const auto tr = make_trace("xz", 8000);
  const auto opts_a = base_options(4, 2);  // 2 shards
  auto opts_b = base_options(4, 2);
  opts_b.context_length = 32;  // different run fingerprint, same shape

  CoordinatorOptions co;
  co.heartbeat_timeout_ms = 30000;
  co.result_cache_entries = 64;
  auto coord = std::make_unique<DistCoordinator>(net::TcpListener::bind(0), co);
  std::thread w = worker_thread(coord->port());

  expect_identical(local_reference(tr, opts_a), coord->run(tr, opts_a));
  // Different options address different content: all misses, real dispatch,
  // and the result matches ITS OWN reference (a stale hit would not).
  expect_identical(local_reference(tr, opts_b), coord->run(tr, opts_b));
  const auto st = coord->stats();
  EXPECT_EQ(st.cache_hits, 0u);
  EXPECT_EQ(st.cache_misses, 4u);
  EXPECT_EQ(st.shards_dispatched, 4u);

  // Back to the first fingerprint: its entries are still addressable.
  expect_identical(local_reference(tr, opts_a), coord->run(tr, opts_a));
  EXPECT_EQ(coord->stats().cache_hits, 2u);

  coord.reset();
  w.join();
}

TEST(ResultCache, LruEvictionAndAccounting) {
  ShardResultCache cache(2);
  EXPECT_TRUE(cache.enabled());
  const ShardResultCache::Key k1{1, 0, 0, 2};
  const ShardResultCache::Key k2{1, 1, 2, 4};
  const ShardResultCache::Key k3{2, 0, 0, 2};

  EXPECT_EQ(cache.lookup(k1), nullptr);
  EXPECT_EQ(cache.misses(), 1u);

  core::ShardOutcome o;
  o.part_lo = 7;  // a recognizable payload
  cache.insert(k1, o);
  o.part_lo = 8;
  cache.insert(k2, o);
  EXPECT_EQ(cache.entries(), 2u);

  // Touch k1 so k2 becomes least-recently-used, then overflow: k2 goes.
  ASSERT_NE(cache.lookup(k1), nullptr);
  EXPECT_EQ(cache.lookup(k1)->part_lo, 7u);
  cache.insert(k3, o);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.lookup(k2), nullptr);
  ASSERT_NE(cache.lookup(k3), nullptr);
  ASSERT_NE(cache.lookup(k1), nullptr);
  EXPECT_EQ(cache.hits(), 4u);
  EXPECT_EQ(cache.misses(), 2u);

  // Disabled cache: lookups miss uncounted, inserts are dropped.
  ShardResultCache off(0);
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.lookup(k1), nullptr);
  off.insert(k1, o);
  EXPECT_EQ(off.entries(), 0u);
  EXPECT_EQ(off.misses(), 0u);
}

TEST(Dist, TelemetryScrapeDuringRunIsRaceFree) {
  // stats(), connected_workers() and cluster_json() are hammered from a
  // second thread for the whole run — under TSan this is the proof that the
  // telemetry plane reads snapshots, not the run loop's live state.
  const auto tr = make_trace("xz", 20000);
  const auto opts = base_options(8, 4);  // 4 shards
  const auto local = local_reference(tr, opts);

  CoordinatorOptions co;
  co.min_workers = 2;
  co.heartbeat_timeout_ms = 30000;
  co.poll_ms = 20;
  auto coord = std::make_unique<DistCoordinator>(net::TcpListener::bind(0), co);
  std::thread w1 = worker_thread(coord->port());
  std::thread w2 = worker_thread(coord->port());

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> scrapes{0};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const CoordinatorStats st = coord->stats();
      EXPECT_LE(st.shards_completed, 4u);
      EXPECT_LE(coord->connected_workers(), 2u);
      EXPECT_FALSE(coord->cluster_json().empty());
      ++scrapes;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  const auto out = coord->run(tr, opts);
  done.store(true);
  scraper.join();
  expect_identical(local, out);
  EXPECT_GT(scrapes.load(), 0u);
  EXPECT_EQ(coord->stats().shards_completed, 4u);

  coord.reset();
  w1.join();
  w2.join();
}

// ---- real process isolation (fork) -----------------------------------------

#if !defined(MLSIM_TSAN)

/// Fork a real worker process. The child never returns. With `gate_fd`
/// (the read end of a pipe) the child connects only once a byte arrives on
/// it — a late joiner forked while the parent is still quiet (forking
/// mid-run from a multithreaded parent is not safe) and released mid-run.
pid_t fork_worker(std::uint16_t port, int heartbeat_ms = 50,
                  bool enable_obs = false, int gate_fd = -1) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  char released = 0;
  if (gate_fd >= 0 && ::read(gate_fd, &released, 1) != 1) _exit(1);
  WorkerConfig cfg;
  cfg.port = port;
  cfg.heartbeat_ms = heartbeat_ms;
  if (enable_obs) obs::set_enabled(true);  // record + ship spans
  try {
    run_worker(cfg);
    _exit(0);
  } catch (...) {
    _exit(1);
  }
}

TEST(DistProcess, ForkedWorkersBitIdenticalToInProcess) {
  const auto tr = make_trace("xz", 20000);
  const auto opts = base_options(8, 4);
  const auto local = local_reference(tr, opts);

  CoordinatorOptions co;
  co.min_workers = 2;
  // Bind before forking so the children always find a listener.
  auto coord = std::make_unique<DistCoordinator>(net::TcpListener::bind(0), co);
  const pid_t a = fork_worker(coord->port());
  const pid_t b = fork_worker(coord->port());
  ASSERT_GT(a, 0);
  ASSERT_GT(b, 0);

  const auto out = coord->run(tr, opts);
  expect_identical(local, out);
  EXPECT_EQ(coord->stats().shards_completed, 4u);

  coord.reset();  // Shutdown frames + listener close end both children
  int status = 0;
  EXPECT_EQ(waitpid(a, &status, 0), a);
  EXPECT_EQ(waitpid(b, &status, 0), b);
}

TEST(DistProcess, HardKilledWorkerProcessIsRecoveredFrom) {
  const auto tr = make_trace("mcf", 60000);
  const auto opts = base_options(12, 12);  // 12 shards: work spans the kill
  const auto local = local_reference(tr, opts);

  CoordinatorOptions co;
  co.min_workers = 2;
  co.heartbeat_timeout_ms = 500;
  co.poll_ms = 20;
  auto coord = std::make_unique<DistCoordinator>(net::TcpListener::bind(0), co);
  const pid_t victim = fork_worker(coord->port());
  const pid_t survivor = fork_worker(coord->port());
  ASSERT_GT(victim, 0);
  ASSERT_GT(survivor, 0);

  // SIGKILL the victim shortly into the run — a genuine process death, not
  // a simulated one. Whatever it was computing must be reassigned. Wait for
  // both workers to actually join first: under heavy test-suite load a
  // fixed sleep can fire before the victim even connects, and a kill
  // pre-Hello would leave the coordinator waiting for min_workers forever.
  std::thread killer([&coord, victim] {
    for (int i = 0; i < 1000; ++i) {
      if (coord->stats().workers_joined >= 2) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    kill(victim, SIGKILL);
  });

  core::ParallelSimResult out;
  std::string run_error;
  try {
    out = coord->run(tr, opts);
  } catch (const std::exception& e) {
    run_error = e.what();
  }
  killer.join();
  ASSERT_EQ(run_error, "");
  expect_identical(local, out);
  EXPECT_EQ(coord->stats().shards_completed, 12u);

  coord.reset();
  int status = 0;
  EXPECT_EQ(waitpid(victim, &status, 0), victim);
  EXPECT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(waitpid(survivor, &status, 0), survivor);
}

TEST(DistProcess, ChurnKilledAndJoinedWorkersStayBitIdentical) {
  // The full churn chaos scenario: one worker process is SIGKILLed while the
  // run is provably mid-flight, a fresh one joins mid-run, and the merged
  // CPI must still be bit-identical with the lost shard reassigned.
  const auto tr = make_trace("mcf", 120000);
  const auto opts = base_options(12, 12);  // 12 shards
  const auto local = local_reference(tr, opts);

  CoordinatorOptions co;
  co.min_workers = 2;
  co.heartbeat_timeout_ms = 500;
  co.poll_ms = 20;
  auto coord = std::make_unique<DistCoordinator>(net::TcpListener::bind(0), co);
  // Every worker reaches the coordinator through a gate that holds Assigns
  // back after the second Result. Its thread starts after the forks.
  AssignGate gate(coord->port());
  int release_joiner[2];
  ASSERT_EQ(pipe(release_joiner), 0);
  const pid_t victim = fork_worker(gate.port());
  const pid_t survivor = fork_worker(gate.port());
  const pid_t joiner = fork_worker(gate.port(), 50, /*enable_obs=*/false,
                                   /*gate_fd=*/release_joiner[0]);
  ASSERT_GT(victim, 0);
  ASSERT_GT(survivor, 0);
  ASSERT_GT(joiner, 0);
  gate.start(2);

  // Kill once both workers hold an undelivered shard, so the victim dies
  // owning one; release the joiner; let the held shards go only once the
  // coordinator has seen the loss and the join, observed through the same
  // thread-safe stats() snapshot the telemetry plane scrapes.
  std::thread killer([&coord, &gate, victim, release = release_joiner[1]] {
    ASSERT_TRUE(gate.wait_starved(2));
    kill(victim, SIGKILL);
    EXPECT_EQ(::write(release, "j", 1), 1);
    for (;;) {
      const CoordinatorStats st = coord->stats();
      if (st.workers_lost >= 1 && st.workers_joined >= 3) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    gate.release();
  });

  core::ParallelSimResult out;
  std::string run_error;
  try {
    out = coord->run(tr, opts);
  } catch (const std::exception& e) {
    run_error = e.what();
  }
  killer.join();
  ASSERT_EQ(run_error, "");
  expect_identical(local, out);
  const auto st = coord->stats();
  EXPECT_EQ(st.shards_completed, 12u);
  EXPECT_EQ(st.workers_joined, 3u);
  EXPECT_GE(st.workers_lost, 1u);
  EXPECT_GT(st.reassignments, 0u);

  coord.reset();
  int status = 0;
  EXPECT_EQ(waitpid(victim, &status, 0), victim);
  EXPECT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(waitpid(survivor, &status, 0), survivor);
  EXPECT_EQ(waitpid(joiner, &status, 0), joiner);
  close(release_joiner[0]);
  close(release_joiner[1]);
}

TEST(DistProcess, ThreeProcessesMergeOneDistributedTrace) {
  // The ISSUE's acceptance run, in miniature: a coordinator plus two real
  // worker processes, all tracing, must yield ONE merged Chrome trace with
  // spans from all three processes under a single nonzero trace id.
  if (!obs::kCompiledIn) GTEST_SKIP() << "stripped build";
  obs::set_enabled(true);
  obs::reset_trace();
  const auto tr = make_trace("xz", 20000);
  const auto opts = base_options(8, 4);  // 4 shards

  CoordinatorOptions co;
  co.min_workers = 2;
  auto coord = std::make_unique<DistCoordinator>(net::TcpListener::bind(0), co);
  const pid_t a = fork_worker(coord->port(), 50, /*enable_obs=*/true);
  const pid_t b = fork_worker(coord->port(), 50, /*enable_obs=*/true);
  ASSERT_GT(a, 0);
  ASSERT_GT(b, 0);

  const auto out = coord->run(tr, opts);
  expect_identical(local_reference(tr, opts), out);

  std::ostringstream os;
  obs::write_chrome_trace(os);
  const std::string body = os.str();
  // Coordinator spans export under pid 1; each worker's shipped spans under
  // 1 + its uid. All spans carry the run's trace id.
  EXPECT_NE(body.find("\"name\":\"dist/run\""), std::string::npos);
  EXPECT_NE(body.find("\"name\":\"worker/partition\""), std::string::npos);
  EXPECT_NE(body.find("\"pid\":1,"), std::string::npos);
  EXPECT_NE(body.find("\"pid\":2,"), std::string::npos);
  EXPECT_NE(body.find("\"pid\":3,"), std::string::npos);
  std::set<std::string> trace_ids;
  const std::string key = "\"trace_id\":\"";
  for (std::size_t at = body.find(key); at != std::string::npos;
       at = body.find(key, at + 1)) {
    const std::size_t from = at + key.size();
    trace_ids.insert(body.substr(from, body.find('"', from) - from));
  }
  EXPECT_EQ(trace_ids.size(), 1u) << body.substr(0, 2000);
  EXPECT_NE(*trace_ids.begin(), "0");

  coord.reset();
  int status = 0;
  EXPECT_EQ(waitpid(a, &status, 0), a);
  EXPECT_EQ(waitpid(b, &status, 0), b);
  obs::set_enabled(false);
}

#endif  // !MLSIM_TSAN

// ---- service integration ---------------------------------------------------

TEST(Dist, ServiceRoutesParallelRequestsToRemoteCluster) {
  const auto tr = make_trace("xz", 12000);

  // Baseline: the same request served in-process.
  core::AnalyticPredictor primary, fallback;
  service::Request rq;
  rq.trace = &tr;
  rq.engine = service::EngineKind::kParallel;
  rq.num_subtraces = 6;
  rq.num_gpus = 2;
  std::uint64_t local_cycles = 0;
  {
    service::SimulationService svc(primary, fallback);
    auto t = svc.submit(rq);
    const auto rsp = t.future.get();
    ASSERT_TRUE(rsp.ok()) << rsp.error;
    local_cycles = rsp.total_cycles;
    svc.shutdown();
  }

  // Same request, routed through a coordinator fronting one worker. The
  // coordinator spends its pre-loop time serializing the trace for Welcome,
  // so the default 250 ms hang watchdog is too hair-trigger at sanitizer
  // speed: give it room — hang handling has its own tests.
  CoordinatorOptions co;
  co.heartbeat_timeout_ms = 30000;
  auto coord = std::make_unique<DistCoordinator>(net::TcpListener::bind(0), co);
  std::thread w = worker_thread(coord->port());
  service::Response rsp;
  std::size_t completed = 0;
  {
    service::ServiceOptions so;
    so.num_workers = 1;  // the coordinator serves one run at a time
    so.hang_timeout = std::chrono::milliseconds{30000};
    so.remote = coord.get();
    service::SimulationService svc(primary, fallback, so);
    // A zero plan option fails typed on the coordinator; the service keeps
    // serving.
    service::Request bad = rq;
    bad.num_gpus = 0;
    auto tb = svc.submit(bad);
    const auto bad_rsp = tb.future.get();
    EXPECT_EQ(bad_rsp.status, service::ResponseStatus::kFailed)
        << bad_rsp.error;
    auto t = svc.submit(rq);
    rsp = t.future.get();
    svc.shutdown();
  }
  completed = coord->stats().shards_completed;
  coord.reset();  // listener close releases the worker before any assert
  w.join();
  ASSERT_TRUE(rsp.ok()) << rsp.error;
  EXPECT_EQ(rsp.total_cycles, local_cycles);
  EXPECT_EQ(rsp.instructions, tr.size());
  EXPECT_EQ(completed, 2u);
}

}  // namespace
}  // namespace mlsim::dist
