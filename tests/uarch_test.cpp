// Tests for the microarchitecture substrate: branch predictor, caches, TLB,
// the OoO timing model, the interval core and the ground-truth pipeline.
#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "trace/functional_sim.h"
#include "uarch/branch_predictor.h"
#include "uarch/cache.h"
#include "uarch/ground_truth.h"
#include "uarch/interval_core.h"
#include "uarch/ooo_core.h"
#include "uarch/tlb.h"

namespace mlsim::uarch {
namespace {

using trace::Annotation;
using trace::DynInst;
using trace::HitLevel;
using trace::OpClass;
using trace::TlbLevel;

// ---------------------------------------------------------------- bi-mode --

TEST(BiMode, LearnsAlwaysTaken) {
  BiModePredictor bp;
  for (int i = 0; i < 50; ++i) bp.update(0x4000, true);
  EXPECT_TRUE(bp.predict(0x4000));
  EXPECT_LT(bp.mispredict_rate(), 0.2);
}

TEST(BiMode, LearnsAlwaysNotTaken) {
  BiModePredictor bp;
  for (int i = 0; i < 50; ++i) bp.update(0x4000, false);
  EXPECT_FALSE(bp.predict(0x4000));
}

TEST(BiMode, LearnsLoopPattern) {
  // Taken 7, not-taken 1, repeated: history-based predictor should beat 50%.
  BiModePredictor bp;
  int correct = 0, total = 0;
  for (int rep = 0; rep < 200; ++rep) {
    for (int i = 0; i < 8; ++i) {
      const bool taken = i != 7;
      if (rep > 20) {
        correct += bp.predict(0x8000) == taken;
        ++total;
      }
      bp.update(0x8000, taken);
    }
  }
  EXPECT_GT(static_cast<double>(correct) / total, 0.8);
}

TEST(BiMode, RandomBranchNearHalf) {
  BiModePredictor bp;
  Rng rng(5);
  int correct = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const bool taken = rng.bernoulli(0.5);
    correct += bp.predict(0x1234) == taken;
    bp.update(0x1234, taken);
  }
  EXPECT_NEAR(static_cast<double>(correct) / n, 0.5, 0.08);
}

TEST(BiMode, BiasedBranchesDontDestructivelyAlias) {
  // One strongly-taken and one strongly-not-taken branch mapping nearby:
  // bi-mode's split banks should keep both accurate.
  BiModePredictor bp;
  int correct = 0, total = 0;
  for (int i = 0; i < 2000; ++i) {
    if (i > 200) {
      correct += bp.predict(0x1000) == true;
      correct += bp.predict(0x2000) == false;
      total += 2;
    }
    bp.update(0x1000, true);
    bp.update(0x2000, false);
  }
  EXPECT_GT(static_cast<double>(correct) / total, 0.95);
}

TEST(BiMode, BtbInsertAndHit) {
  BiModePredictor bp;
  EXPECT_FALSE(bp.btb_hit(0x4444));
  bp.btb_insert(0x4444, 0x8888);
  EXPECT_TRUE(bp.btb_hit(0x4444));
}

// ------------------------------------------------------------------ cache --

CacheConfig small_cache() {
  return {.size_bytes = 1024, .assoc = 2, .line_bytes = 64, .mshrs = 4,
          .latency = 5};
}

TEST(Cache, MissThenHit) {
  Cache c(small_cache());
  EXPECT_FALSE(c.probe(0x100));
  c.access(0x100, 0, 100, false);
  EXPECT_TRUE(c.probe(0x100));
  const auto r = c.access(0x100, 200, 0, false);
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.ready_cycle, 205u);
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, SameLineSharesEntry) {
  Cache c(small_cache());
  c.access(0x100, 0, 50, false);
  EXPECT_TRUE(c.probe(0x13f));   // same 64B line
  EXPECT_FALSE(c.probe(0x140));  // next line
}

TEST(Cache, LruEvictionOrder) {
  const CacheConfig cfg = small_cache();  // 8 sets, 2 ways
  Cache c(cfg);
  const std::uint64_t set_stride = 64 * 8;  // maps to the same set
  c.access(0x0, 0, 10, false);              // A
  c.access(set_stride, 1, 10, false);       // B (set full)
  c.access(0x0, 2, 0, false);               // touch A -> B becomes LRU
  c.access(2 * set_stride, 3, 10, false);   // C evicts B
  EXPECT_TRUE(c.probe(0x0));
  EXPECT_FALSE(c.probe(set_stride));
  EXPECT_TRUE(c.probe(2 * set_stride));
}

TEST(Cache, MshrSecondaryMissMerges) {
  Cache c(small_cache());
  const auto first = c.access(0x100, 0, 100, false);
  EXPECT_FALSE(first.hit);
  // Probe misses (fill in flight), but the access merges into the MSHR.
  // Evict it from the tag array first? No: the line was installed at access
  // time, so probe hits. Access a *different* address mapping to the same
  // line is a hit. Instead check the merge path via a fresh line with a
  // busy MSHR by accessing a second line then re-requesting the first
  // before fill completion via a different word.
  const auto merged = c.access(0x108, 10, 500, false);
  EXPECT_TRUE(merged.hit);  // line already installed by the first access
}

TEST(Cache, MshrExhaustionSerializes) {
  CacheConfig cfg = small_cache();
  cfg.mshrs = 1;
  Cache c(cfg);
  const auto a = c.access(0x000, 0, 100, false);
  const auto b = c.access(0x1000, 0, 100, false);  // different set is fine
  EXPECT_FALSE(a.hit);
  EXPECT_FALSE(b.hit);
  // Second miss waits for the only MSHR: its ready time is pushed out.
  EXPECT_GE(b.ready_cycle, a.ready_cycle);
}

TEST(Cache, StatsResetWorks) {
  Cache c(small_cache());
  c.access(0x0, 0, 10, false);
  c.reset_stats();
  EXPECT_EQ(c.hits() + c.misses(), 0u);
  EXPECT_EQ(c.miss_rate(), 0.0);
}

TEST(Cache, RejectsBadConfig) {
  CacheConfig cfg = small_cache();
  cfg.line_bytes = 48;  // not a power of two
  EXPECT_THROW(Cache{cfg}, CheckError);
}

TEST(Cache, WorkingSetLargerThanCacheMisses) {
  Cache c(small_cache());  // 1 KB
  std::size_t misses_first = 0, misses_second = 0;
  for (std::uint64_t a = 0; a < 16 * 1024; a += 64) {
    misses_first += !c.access(a, a, a + 100, false).hit;
  }
  for (std::uint64_t a = 0; a < 16 * 1024; a += 64) {
    misses_second += !c.access(a, a, a + 100, false).hit;
  }
  EXPECT_EQ(misses_first, 256u);   // cold
  EXPECT_EQ(misses_second, 256u);  // thrashes: 16x the capacity
}

TEST(Cache, SmallWorkingSetFits) {
  Cache c(small_cache());
  for (int rep = 0; rep < 3; ++rep) {
    for (std::uint64_t a = 0; a < 512; a += 64) c.access(a, a, a + 100, false);
  }
  // After the cold pass, everything hits.
  EXPECT_EQ(c.misses(), 8u);
  EXPECT_EQ(c.hits(), 16u);
}

// ---------------------------------------------- replacement policies --

/// Hit count of `policy` on a cyclic loop over `lines` cache lines,
/// repeated `rounds` times — the canonical thrash pattern: when the loop
/// exceeds capacity, LRU/FIFO evict every line just before its reuse.
std::uint64_t policy_hits(ReplacementPolicy policy, std::uint64_t lines,
                          int rounds) {
  CacheConfig cfg = small_cache();  // 1 KB: 8 sets x 2 ways = 16 lines
  cfg.replacement = policy;
  Cache c(cfg, "policy-test");
  std::uint64_t t = 0;
  for (int r = 0; r < rounds; ++r) {
    for (std::uint64_t a = 0; a < lines * 64; a += 64) {
      c.access(a, t, t + 100, false);
      ++t;
    }
  }
  return c.hits();
}

TEST(Cache, PoliciesDivergeOnThrashingLoop) {
  // 32-line loop over a 16-line cache, 8 rounds (256 accesses). LRU and
  // FIFO evict each line exactly one access before it comes around again —
  // zero hits. The thrash-resistant policies keep part of the loop
  // resident: DIP's BIP insertions pin whichever lines happened to be
  // promoted, DRRIP's distant-re-reference insertions age out scans before
  // victims, and ARC's frequency list protects lines with a second touch.
  // Counter-driven and deterministic, so the counts are exact goldens.
  EXPECT_EQ(policy_hits(ReplacementPolicy::kLru, 32, 8), 0u);
  EXPECT_EQ(policy_hits(ReplacementPolicy::kFifo, 32, 8), 0u);
  EXPECT_EQ(policy_hits(ReplacementPolicy::kDip, 32, 8), 47u);
  EXPECT_EQ(policy_hits(ReplacementPolicy::kDrrip, 32, 8), 49u);
  EXPECT_EQ(policy_hits(ReplacementPolicy::kArc, 32, 8), 8u);
}

TEST(Cache, PoliciesIdenticalWhenWorkingSetFits) {
  // 8 lines across 8 sets: one way per set suffices, nothing is ever
  // evicted, so insertion/victim policy cannot matter — every policy sees
  // the same 8 cold misses and 56 hits.
  for (const ReplacementPolicy p :
       {ReplacementPolicy::kLru, ReplacementPolicy::kFifo,
        ReplacementPolicy::kRandom, ReplacementPolicy::kDip,
        ReplacementPolicy::kDrrip, ReplacementPolicy::kArc}) {
    EXPECT_EQ(policy_hits(p, 8, 8), 56u) << to_string(p);
  }
}

TEST(Cache, ReplacementPolicyNamesRoundTrip) {
  for (const ReplacementPolicy p :
       {ReplacementPolicy::kLru, ReplacementPolicy::kFifo,
        ReplacementPolicy::kRandom, ReplacementPolicy::kDip,
        ReplacementPolicy::kDrrip, ReplacementPolicy::kArc}) {
    EXPECT_EQ(replacement_policy_from_string(to_string(p)), p);
  }
  EXPECT_THROW(replacement_policy_from_string("plru"), CheckError);
}

TEST(Cache, UnimplementedPolicyIsTypedNotSilentLru) {
  CacheConfig cfg = small_cache();
  cfg.replacement = static_cast<ReplacementPolicy>(99);
  EXPECT_THROW(Cache(cfg, "bad-policy"), CheckError);
}

// -------------------------------------------------------------------- tlb --

TEST(Tlb, MissWalkThenHit) {
  Tlb tlb;
  const auto first = tlb.access(0x10000);
  EXPECT_EQ(first.level, TlbLevel::kWalk);
  const auto second = tlb.access(0x10008);  // same page
  EXPECT_EQ(second.level, TlbLevel::kHit);
  EXPECT_EQ(second.latency, 0u);
}

TEST(Tlb, L2BackstopsL1) {
  TlbConfig cfg;
  cfg.l1_entries = 1;  // pathological L1: every second page conflicts
  Tlb tlb(cfg);
  tlb.access(0x0000);
  tlb.access(0x1000);  // evicts page 0 from the 1-entry L1
  const auto r = tlb.access(0x0000);
  EXPECT_EQ(r.level, TlbLevel::kL2Tlb);
  EXPECT_EQ(r.latency, cfg.l2_latency);
}

TEST(Tlb, StatsAccumulate) {
  Tlb tlb;
  tlb.access(0x0000);
  tlb.access(0x0000);
  tlb.access(0x5000);
  EXPECT_EQ(tlb.walks(), 2u);
  EXPECT_EQ(tlb.l1_hits(), 1u);
}

// --------------------------------------------------------------- OoO core --

DynInst alu(std::uint8_t dst, std::uint8_t src = 0, std::uint64_t pc = 0x400000) {
  DynInst d;
  d.op = OpClass::kIntAlu;
  d.pc = pc;
  if (dst) {
    d.n_dst = 1;
    d.dst[0] = dst;
  }
  if (src) {
    d.n_src = 1;
    d.src[0] = src;
  }
  return d;
}

TEST(OooCore, IndependentStreamRunsAtFetchWidth) {
  MachineConfig cfg;
  OooCore core(cfg);
  Annotation ann;
  std::uint64_t cycles = 0;
  const std::size_t n = 3000;
  for (std::size_t i = 0; i < n; ++i) {
    DynInst d = alu(0, 0, 0x400000 + 4 * i);
    cycles += core.process(d, ann).fetch_lat;
  }
  const double cpi = static_cast<double>(cycles) / static_cast<double>(n);
  // 3-wide fetch bounds CPI below at ~1/3.
  EXPECT_NEAR(cpi, 1.0 / cfg.core.fetch_width, 0.05);
}

TEST(OooCore, DependencyChainSerializes) {
  MachineConfig cfg;
  OooCore chain_core(cfg);
  OooCore indep_core(cfg);
  Annotation ann;
  std::uint64_t chain_cycles = 0, indep_cycles = 0;
  for (std::size_t i = 0; i < 2000; ++i) {
    // Chain: every instruction reads the previous result.
    chain_cycles += chain_core.process(alu(1, 1, 0x400000 + 4 * i), ann).fetch_lat;
    indep_cycles += indep_core.process(alu(0, 0, 0x400000 + 4 * i), ann).fetch_lat;
  }
  // Fetch throughput is the same; the chain shows up in exec latency, which
  // grows until the ROB throttles fetch.
  EXPECT_GE(chain_cycles, indep_cycles);
}

TEST(OooCore, DependencyChainGrowsExecLatency) {
  MachineConfig cfg;
  OooCore core(cfg);
  Annotation ann;
  std::uint32_t last_exec = 0;
  for (std::size_t i = 0; i < 100; ++i) {
    last_exec = core.process(alu(1, 1, 0x400000 + 4 * i), ann).exec_lat;
  }
  // Each link adds >= 1 cycle; the window bounds the backlog.
  EXPECT_GT(last_exec, cfg.core.frontend_depth + 1);
}

TEST(OooCore, CacheMissAddsLatency) {
  MachineConfig cfg;
  OooCore core(cfg);
  Annotation hit_ann;
  hit_ann.data_level = HitLevel::kL1;
  Annotation miss_ann;
  miss_ann.data_level = HitLevel::kMemory;

  DynInst load;
  load.op = OpClass::kLoad;
  load.n_dst = 1;
  load.dst[0] = 2;
  load.mem_addr = 0x1000;
  load.mem_size_log2 = 3;

  const auto hit = core.process(load, hit_ann);
  const auto miss = core.process(load, miss_ann);
  EXPECT_GT(miss.exec_lat, hit.exec_lat + cfg.memory_latency / 2);
}

TEST(OooCore, MispredictStallsNextFetch) {
  MachineConfig cfg;
  OooCore core(cfg);
  Annotation ann;
  // Warm up.
  for (int i = 0; i < 10; ++i) core.process(alu(0, 0, 0x400000 + 4 * i), ann);

  DynInst br;
  br.op = OpClass::kBranch;
  br.pc = 0x400100;
  Annotation mis;
  mis.branch_mispredicted = true;
  core.process(br, mis);
  const auto after = core.process(alu(0, 0, 0x400200), ann);
  EXPECT_GE(after.fetch_lat, cfg.bp.mispredict_penalty);
}

TEST(OooCore, StoreLatencyOnlyForStores) {
  MachineConfig cfg;
  OooCore core(cfg);
  Annotation ann;
  ann.data_level = HitLevel::kL1;
  DynInst st;
  st.op = OpClass::kStore;
  st.mem_addr = 0x2000;
  st.mem_size_log2 = 3;
  const auto s = core.process(st, ann);
  EXPECT_GT(s.store_lat, 0u);
  const auto a = core.process(alu(1), ann);
  EXPECT_EQ(a.store_lat, 0u);
}

TEST(OooCore, SerializingDivOccupiesUnit) {
  MachineConfig cfg;
  OooCore core(cfg);
  Annotation ann;
  DynInst div;
  div.op = OpClass::kIntDiv;
  div.n_dst = 1;
  div.dst[0] = 3;
  const auto d1 = core.process(div, ann);
  const auto d2 = core.process(div, ann);  // must wait for the single divider
  EXPECT_GE(d2.exec_lat, d1.exec_lat);
}

TEST(OooCore, ClockMonotone) {
  MachineConfig cfg;
  OooCore core(cfg);
  Annotation ann;
  std::uint64_t prev = 0;
  for (int i = 0; i < 500; ++i) {
    core.process(alu(1, 1, 0x400000 + 4 * i), ann);
    EXPECT_GE(core.clock(), prev);
    prev = core.clock();
  }
}

// ----------------------------------------------------------- ground truth --

class GroundTruthPerBenchmark : public ::testing::TestWithParam<std::string> {};

TEST_P(GroundTruthPerBenchmark, ProducesPlausibleCpi) {
  const auto labeled =
      generate_labeled_trace(trace::find_workload(GetParam()), 20000);
  ASSERT_EQ(labeled.size(), 20000u);
  const double cpi = labeled.cpi();
  EXPECT_GT(cpi, 0.3) << "CPI below the fetch-width bound";
  EXPECT_LT(cpi, 40.0) << "CPI implausibly high";
}

TEST_P(GroundTruthPerBenchmark, Deterministic) {
  const auto a = generate_labeled_trace(trace::find_workload(GetParam()), 5000);
  const auto b = generate_labeled_trace(trace::find_workload(GetParam()), 5000);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.total_cycles(), b.total_cycles());
}

INSTANTIATE_TEST_SUITE_P(SomeBenchmarks, GroundTruthPerBenchmark,
                         ::testing::Values("perl", "mcf", "lbm", "exch", "xz"));

TEST(GroundTruth, MemoryHeavyBenchmarkHasHigherCpi) {
  const auto mcf = generate_labeled_trace(trace::find_workload("mcf"), 30000);
  const auto spei = generate_labeled_trace(trace::find_workload("spei"), 30000);
  EXPECT_GT(mcf.cpi(), spei.cpi());
}

TEST(GroundTruth, BiggerL2ReducesCycles) {
  MachineConfig small;
  small.l2.size_bytes = 128 * 1024;
  MachineConfig big;
  big.l2.size_bytes = 4 * 1024 * 1024;
  const auto& wl = trace::find_workload("xz");
  const auto cpi_small = generate_labeled_trace(wl, 50000, small).cpi();
  const auto cpi_big = generate_labeled_trace(wl, 50000, big).cpi();
  EXPECT_LE(cpi_big, cpi_small);
}

TEST(GroundTruth, EncodeKeepsTargets) {
  const auto& wl = trace::find_workload("xz");
  const auto labeled = generate_labeled_trace(wl, 2000);
  const auto encoded = make_encoded_trace(wl, 2000);
  ASSERT_EQ(encoded.size(), labeled.size());
  EXPECT_TRUE(encoded.labeled());
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    const InstTiming& t = labeled.records[i].timing;
    ASSERT_EQ(encoded.targets(i)[0], t.fetch_lat) << i;
    ASSERT_EQ(encoded.targets(i)[1], t.exec_lat) << i;
    ASSERT_EQ(encoded.targets(i)[2], t.store_lat) << i;
  }
}

TEST(GroundTruth, AnnotationsReflectWorkingSet) {
  // lbm streams through 64MB: plenty of memory-level accesses.
  const auto lbm = generate_labeled_trace(trace::find_workload("lbm"), 30000);
  std::size_t mem_hits = 0, total_mem = 0;
  for (const auto& r : lbm.records) {
    if (trace::is_memory(r.inst.op)) {
      ++total_mem;
      mem_hits += r.ann.data_level == HitLevel::kMemory;
    }
  }
  ASSERT_GT(total_mem, 0u);
  EXPECT_GT(static_cast<double>(mem_hits) / static_cast<double>(total_mem), 0.02);

  // spei fits in L1: almost everything hits.
  // spei's 64KB working set straddles the 32KB L1 but fits in L2 easily:
  // after cold fills, almost nothing reaches memory.
  const auto spei = generate_labeled_trace(trace::find_workload("spei"), 150000);
  std::size_t cached = 0, total2 = 0;
  for (const auto& r : spei.records) {
    if (trace::is_memory(r.inst.op)) {
      ++total2;
      cached += r.ann.data_level == HitLevel::kL1 || r.ann.data_level == HitLevel::kL2;
    }
  }
  ASSERT_GT(total2, 0u);
  EXPECT_GT(static_cast<double>(cached) / static_cast<double>(total2), 0.9);
}

TEST(GroundTruth, AnnotateTraceMatchesPipeline) {
  // Annotation does not depend on the ground-truth core: an Annotator over
  // the bare functional stream sees what the pipeline's records carry.
  const auto& wl = trace::find_workload("xz");
  const trace::Program prog = trace::Program::generate(wl, 1);
  trace::FunctionalSim sim(prog, 1);
  const auto insts = sim.run(2000);
  const auto labeled = generate_labeled_trace(wl, 2000);
  Annotator annotator;
  for (std::size_t i = 0; i < insts.size(); ++i) {
    ASSERT_EQ(insts[i].pc, labeled.records[i].inst.pc) << i;
    ASSERT_EQ(annotator.annotate(insts[i]), labeled.records[i].ann) << i;
  }
}

// ------------------------------------------------------------ interval core --

TEST(IntervalCore, FasterButDifferentFromOoO) {
  const auto labeled = generate_labeled_trace(trace::find_workload("xz"), 20000);
  IntervalCore ic;
  for (const auto& r : labeled.records) ic.process(r.inst, r.ann);
  EXPECT_EQ(ic.instructions(), labeled.size());
  const double interval_cpi = ic.cpi();
  const double detailed_cpi = labeled.cpi();
  // Same order of magnitude, not equal (it is an approximation).
  EXPECT_GT(interval_cpi, detailed_cpi * 0.1);
  EXPECT_LT(interval_cpi, detailed_cpi * 5.0);
}

TEST(IntervalCore, MispredictsAddCycles) {
  MachineConfig cfg;
  IntervalCore a(cfg), b(cfg);
  DynInst br;
  br.op = OpClass::kBranch;
  Annotation good, bad;
  bad.branch_mispredicted = true;
  for (int i = 0; i < 100; ++i) {
    a.process(br, good);
    b.process(br, bad);
  }
  EXPECT_GT(b.cycles(), a.cycles());
}

}  // namespace
}  // namespace mlsim::uarch
