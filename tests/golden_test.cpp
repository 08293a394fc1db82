// Golden regression pins: the whole pipeline is deterministic by design
// (seeded RNGs, no wall-clock or address-dependent behaviour), so exact
// outputs can be pinned. If a refactor changes any of these values it
// changed simulation semantics, not just code shape — bump the goldens
// consciously in the same change that explains why.
#include <gtest/gtest.h>

#include <bit>

#include "core/analytic_predictor.h"
#include "core/cnn_predictor.h"
#include "core/gpu_sim.h"
#include "core/lockstep_sim.h"
#include "core/metrics.h"
#include "core/parallel_sim.h"
#include "core/sequential_sim.h"
#include "core/simnet_trainer.h"
#include "core/simulator.h"
#include "core/streaming.h"
#include "device/device.h"
#include "tensor/quant.h"
#include "uarch/ground_truth.h"

namespace mlsim::core {
namespace {

struct Golden {
  const char* abbr;
  std::uint64_t truth_cycles;  // ground-truth fetch-cycle total
};

// Without this gtest prints the raw bytes of the struct, so the `abbr`
// pointer would make the parameter's printed name change from build to build.
void PrintTo(const Golden& g, std::ostream* os) { *os << '"' << g.abbr << '"'; }

class GoldenCycles : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenCycles, GroundTruthPinned) {
  const Golden g = GetParam();
  const auto tr = labeled_trace(g.abbr, 10000, {}, 1, /*use_cache=*/false);
  EXPECT_EQ(total_cycles_from_targets(tr), g.truth_cycles)
      << "ground-truth timing changed for " << g.abbr
      << " — if intentional, update the golden";
}

// Values produced by the current implementation (seed 1, 10k instructions,
// Table II machine). Regenerate via `mlsim_cli rates <abbr> 10000`
// (ground-truth CPI x 10000 = the cycle total pinned here).
INSTANTIATE_TEST_SUITE_P(Pins, GoldenCycles,
                         ::testing::Values(Golden{"xz", 47129},
                                           Golden{"mcf", 47757},
                                           Golden{"perl", 43179},
                                           Golden{"lbm", 69199}));

TEST(GoldenPredictions, AnalyticSimulationPinned) {
  const auto tr = labeled_trace("xz", 10000, {}, 1, false);
  AnalyticPredictor pred;
  ParallelSimOptions o;
  o.num_subtraces = 1;
  o.context_length = 64;
  const auto res = ParallelSimulator(pred, o).run(tr);
  // Pinned below by the generator script; a zero pin means "fill me in".
  const std::uint64_t kPinnedCycles = 39832;
  if (kPinnedCycles != 0) {
    EXPECT_EQ(res.total_cycles, kPinnedCycles);
  } else {
    GTEST_SKIP() << "pin not yet generated";
  }
}

// ---- Partitioned analytic runs ---------------------------------------------
// Warmup and post-error correction on, with every context count recorded.
// `sim_time_us` is pinned by bit pattern: it carries the sampled context
// occupancy, so it moves if LazyWindow::context_count does.

struct PartitionedPin {
  const char* abbr;
  std::size_t parts;
  std::size_t gpus;
  std::uint64_t total_cycles;
  std::size_t corrected;
  std::uint64_t sim_time_bits;
  std::uint64_t counts_hash;
};

void PrintTo(const PartitionedPin& g, std::ostream* os) {
  *os << g.abbr << '_' << g.parts << "x" << g.gpus;
}

ParallelSimOptions partitioned_options(std::size_t parts, std::size_t gpus) {
  ParallelSimOptions o;
  o.num_subtraces = parts;
  o.num_gpus = gpus;
  o.context_length = 64;
  o.warmup = 64;
  o.post_error_correction = true;
  o.record_context_counts = true;
  return o;
}

// FNV-1a over the per-instruction context counts.
std::uint64_t hash_counts(const std::vector<std::uint16_t>& counts) {
  std::uint64_t h = 14695981039346656037ull;
  for (const std::uint16_t c : counts) {
    h = (h ^ c) * 1099511628211ull;
  }
  return h;
}

void expect_pinned(const ParallelSimResult& res, const PartitionedPin& g) {
  EXPECT_EQ(res.total_cycles, g.total_cycles);
  EXPECT_EQ(res.corrected_instructions, g.corrected);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(res.sim_time_us), g.sim_time_bits)
      << res.sim_time_us;
  EXPECT_EQ(hash_counts(res.context_counts), g.counts_hash);
}

class GoldenPartitioned : public ::testing::TestWithParam<PartitionedPin> {};

TEST_P(GoldenPartitioned, AnalyticParallelPinned) {
  const PartitionedPin g = GetParam();
  const auto tr = labeled_trace(g.abbr, 10000, {}, 1, false);
  AnalyticPredictor pred;
  const auto res =
      ParallelSimulator(pred, partitioned_options(g.parts, g.gpus)).run(tr);
  expect_pinned(res, g);
}

// 10k instructions, seed 1, context 64, warmup 64, correction on.
constexpr PartitionedPin kMcf8x2{"mcf", 8, 2, 36664, 121, 0x40a2d8a0fba07ab6,
                                 0x08b821cf0093cb73};
INSTANTIATE_TEST_SUITE_P(
    Pins, GoldenPartitioned,
    ::testing::Values(
        PartitionedPin{"xz", 4, 1, 39818, 78, 0x40b1b83e960fe19c,
                       0xabca00a6c68e81ee},
        PartitionedPin{"xz", 8, 2, 39825, 32, 0x40a1e4a093cfd6f3,
                       0x17f58b3f07a9331c},
        PartitionedPin{"mcf", 4, 1, 36668, 17, 0x40b15a68d0ba6de0,
                       0x2fa2874efae48586},
        kMcf8x2,
        PartitionedPin{"lbm", 4, 1, 60662, 20, 0x40b15663ea438e84,
                       0x394b845096619190},
        PartitionedPin{"lbm", 8, 2, 60693, 74, 0x40a22ab82de0877a,
                       0x110dfd17404fb2da}));

// The lockstep engine steps the same partitions in another order, so it
// must land on the shard engine's pin.
TEST(GoldenPredictions, LockstepPartitionedPinned) {
  const auto tr = labeled_trace(kMcf8x2.abbr, 10000, {}, 1, false);
  AnalyticPredictor pred;
  const auto res = LockstepParallelSimulator(
                       pred, partitioned_options(kMcf8x2.parts, kMcf8x2.gpus))
                       .run(tr);
  expect_pinned(res, kMcf8x2);
}

TEST(GoldenPredictions, StreamingPinned) {
  uarch::LabeledTraceStream stream(trace::find_workload("xz"), {}, 1);
  AnalyticPredictor pred;
  const auto res = simulate_stream(pred, stream, 10000, /*context_length=*/16,
                                   /*chunk_size=*/1000);
  EXPECT_EQ(res.predicted_cycles, 19601u);
  EXPECT_EQ(res.truth_cycles, 47129u);  // GoldenCycles' xz pin
}

// ---- SimNet CNN runs --------------------------------------------------------
// A SimNet at the cnn_sim benchmark's shape (50 features, window 33, 32
// channels, hidden 64), trained for one epoch on 600 perl instructions, and
// its 2:4-pruned copy drive the sequential engine and the lockstep engine (4
// sub-traces, one batched predict_batch per step). Pinned: each run's cycle
// total and an FNV-1a hash of the raw output bytes SimNetModel::infer gives
// for every window the run built, so a kernel change that moves any output
// bit fails here even when no rounded latency shows it.

struct CnnPin {
  const char* abbr;
  bool pruned;
  std::uint64_t seq_cycles;
  std::uint64_t seq_hash;
  std::uint64_t lockstep_cycles;
  std::uint64_t lockstep_hash;
};

void PrintTo(const CnnPin& g, std::ostream* os) {
  *os << g.abbr << (g.pruned ? "_2to4" : "_dense");
}

constexpr std::size_t kCnnContext = 32;

// A copy of the briefly trained bundle, 2:4-pruned on request.
SimNetBundle pinned_bundle(bool pruned) {
  static SimNetBundle trained = [] {
    const auto perl = labeled_trace("perl", 600, {}, 1, false);
    SimNetTrainConfig cfg;
    cfg.model.window = kCnnContext + 1;
    cfg.epochs = 1;
    return train_simnet({&perl}, cfg);
  }();
  SimNetBundle b{tensor::SimNetModel(trained.model.config()), trained.feature_scale};
  const std::vector<tensor::Param> from = trained.model.params(), to = b.model.params();
  for (std::size_t i = 0; i < from.size(); ++i) *to[i].value = *from[i].value;
  if (pruned) tensor::prune_model_2to4(b.model);
  return b;
}

// Forwards every window to `inner` and folds the raw bytes `model.infer`
// gives for it into an FNV-1a hash; batches are inferred as one tensor.
class InferHash final : public LatencyPredictor {
 public:
  InferHash(LatencyPredictor& inner, const SimNetBundle& ref) : inner_(inner), ref_(ref) {}

  LatencyPrediction predict(const WindowView& w, std::uint64_t global_index) override {
    fold(w.data, 1);
    return inner_.predict(w, global_index);
  }
  void predict_batch(const std::int32_t* windows, std::size_t batch, std::size_t rows,
                     const std::uint64_t* global_indices, LatencyPrediction* out) override {
    fold(windows, batch);
    inner_.predict_batch(windows, batch, rows, global_indices, out);
  }
  std::size_t flops_per_window(std::size_t rows) const override {
    return inner_.flops_per_window(rows);
  }
  device::Engine engine() const override { return inner_.engine(); }

  std::uint64_t hash() const { return hash_; }

 private:
  void fold(const std::int32_t* windows, std::size_t batch) {
    const std::size_t F = trace::kNumFeatures, W = ref_.model.config().window;
    tensor::Tensor x({batch, F, W});
    for (std::size_t b = 0; b < batch; ++b) {
      for (std::size_t l = 0; l < W; ++l) {
        for (std::size_t ci = 0; ci < F; ++ci) {
          x(b, ci, l) = static_cast<float>(windows[(b * W + l) * F + ci]) * ref_.feature_scale[ci];
        }
      }
    }
    const tensor::Tensor y = ref_.model.infer(x);
    const auto* bytes = reinterpret_cast<const unsigned char*>(y.data());
    for (std::size_t i = 0; i < y.numel() * sizeof(float); ++i) {
      hash_ = (hash_ ^ bytes[i]) * 1099511628211ull;
    }
  }

  LatencyPredictor& inner_;
  const SimNetBundle& ref_;
  std::uint64_t hash_ = 14695981039346656037ull;
};

class GoldenCnn : public ::testing::TestWithParam<CnnPin> {};

TEST_P(GoldenCnn, SequentialAndLockstepPinned) {
  const CnnPin g = GetParam();
  const auto tr = labeled_trace(g.abbr, 1000, {}, 1, false);
  const SimNetBundle ref = pinned_bundle(g.pruned);
  CnnPredictor cnn(pinned_bundle(g.pruned));

  InferHash seq_pred(cnn, ref);
  SequentialSimOptions so;
  so.context_length = kCnnContext;
  const SimOutput seq = SequentialSimulator(seq_pred, so).run(tr);

  InferHash lock_pred(cnn, ref);
  AnalyticPredictor analytic;
  ParallelSimOptions po;
  po.num_subtraces = 4;
  po.context_length = kCnnContext;
  po.warmup = kCnnContext;
  po.post_error_correction = true;
  po.fallback = &analytic;
  const ParallelSimResult lock = LockstepParallelSimulator(lock_pred, po).run(tr);

  EXPECT_EQ(seq.cycles, g.seq_cycles);
  EXPECT_EQ(seq_pred.hash(), g.seq_hash);
  EXPECT_EQ(lock.total_cycles, g.lockstep_cycles);
  EXPECT_EQ(lock_pred.hash(), g.lockstep_hash);
}

// 1000 instructions, seed 1, context 32; lockstep with warmup 32 and
// correction on.
INSTANTIATE_TEST_SUITE_P(
    Pins, GoldenCnn,
    ::testing::Values(
        CnnPin{"xz", false, 11411, 0x0cd9c1f9e1273b6d, 2400, 0x330f30bbe450b782},
        CnnPin{"mcf", false, 6536, 0xda7e692761db3a5c, 2392, 0x4d731f219beb64b5},
        CnnPin{"lbm", false, 613609, 0xcb0fb7ae656c60c5, 4960, 0xb54f4986c6457872},
        CnnPin{"xz", true, 296, 0x769ea9b1bf52b34c, 280, 0x458c6841f860f715},
        CnnPin{"mcf", true, 229, 0xf5c9a7c14892ca8b, 214, 0x49adb12c4042e5d8},
        CnnPin{"lbm", true, 1422, 0x657eb4fc0c963810, 850, 0x5b98b2131b88d23d}));

// ---- Single-device GPU engine ----------------------------------------------
// GpuSimulator on the analytic model under each of fig16_opt_stack's six
// §IV stacks. Pinned per stack: the cycle total, `sim_time_us` by bit
// pattern (it carries every modeled staging, compaction and inference
// charge), and an FNV-1a hash over the recorded predictions and context
// counts and the bits of the six profile fields and the context occupancy.

struct GpuStack {
  const char* name;
  bool gic, swiq, cc, ps;
  device::Engine engine;
};

// fig16_opt_stack's rows, in its order.
constexpr GpuStack kGpuStacks[] = {
    {"baseline", false, false, false, false, device::Engine::kLibTorch},
    {"gic", true, false, false, false, device::Engine::kLibTorch},
    {"swiq", true, true, false, false, device::Engine::kLibTorch},
    {"cc", true, true, true, false, device::Engine::kLibTorch},
    {"oi", true, true, true, false, device::Engine::kTensorRTSparse},
    {"ps", true, true, true, true, device::Engine::kTensorRTSparse}};
constexpr std::size_t kNumGpuStacks = std::size(kGpuStacks);

struct GpuSimPin {
  const char* abbr;
  std::size_t context;
  std::size_t batch_n;
  std::uint64_t cycles;  // the same under every stack
  std::uint64_t time_bits[kNumGpuStacks];
  std::uint64_t hash[kNumGpuStacks];
};

void PrintTo(const GpuSimPin& g, std::ostream* os) {
  *os << g.abbr << "_c" << g.context << "_n" << g.batch_n;
}

std::uint64_t fnv_fold(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 1099511628211ull;
}

std::uint64_t hash_gpu_output(const SimOutput& out) {
  std::uint64_t h = 14695981039346656037ull;
  for (const LatencyPrediction& p : out.predictions) {
    h = fnv_fold(fnv_fold(fnv_fold(h, p.fetch), p.exec), p.store);
  }
  for (const std::uint16_t c : out.context_counts) h = fnv_fold(h, c);
  const StepProfile& pr = out.profile;
  for (const double v : {pr.queue_push, pr.input_construct, pr.h2d, pr.transpose,
                         pr.inference, pr.update_retire, out.avg_context_occupancy}) {
    h = fnv_fold(h, std::bit_cast<std::uint64_t>(v));
  }
  return h;
}

class GoldenGpuSim
    : public ::testing::TestWithParam<std::tuple<GpuSimPin, std::size_t>> {};

TEST_P(GoldenGpuSim, StackPinned) {
  const auto& [g, s] = GetParam();
  const GpuStack& stack = kGpuStacks[s];
  const auto tr = labeled_trace(g.abbr, 3000, {}, 1, false);
  AnalyticPredictor pred;
  device::Device dev;
  GpuSimOptions o;
  o.context_length = g.context;
  o.batch_n = g.batch_n;
  o.gpu_input_construction = stack.gic;
  o.sliding_window = stack.swiq;
  o.custom_conv = stack.cc;
  o.engine = stack.engine;
  o.pipelined = stack.ps;
  o.record_predictions = true;
  o.record_context_counts = true;
  const SimOutput out = GpuSimulator(pred, dev, o).run(tr);

  EXPECT_EQ(out.cycles, g.cycles);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(out.sim_time_us), g.time_bits[s])
      << out.sim_time_us;
  EXPECT_EQ(hash_gpu_output(out), g.hash[s]);
}

// 3000 instructions, seed 1.
constexpr GpuSimPin kGpuSimPins[] = {
    {"xz", 16, 1, 6038,
     {0x40bdf002bad5a620, 0x40b5febac95270e8, 0x40b75ee92de0cfa6,
      0x40b31813a4d38389, 0x40a62b4a67abfa4d, 0x409ac33f476f8a8e},
     {0xf3effc90c21175a6, 0x78c6024c79f18b7f, 0x4858c6c315665534,
      0xbdcacc8cf403810d, 0xa6b6645d575c410f, 0x9952926ed5d8776c}},
    {"xz", 16, 10, 6038,
     {0x40bdf002bad5a620, 0x40b1c6bac95271f9, 0x40b123f7fef5652f,
      0x40a9ba44ebd02cce, 0x40936ad013aa3aaf, 0x408de8e4f5457915},
     {0xf3effc90c21175a6, 0x510917c1c71ed1ee, 0x2e75ce5982ddc48a,
      0x73bced855b3e437e, 0x12070bf97b92b45f, 0xe952fc2e799c7275}},
    {"xz", 64, 1, 15867,
     {0x40cd707db74c5bc0, 0x40b71b2496ee5563, 0x40b856eec167d5d7,
      0x40b3b859255988ef, 0x40a6ba7a0b6e98ff, 0x409bdf04a97e9e47},
     {0x935e3f7cbb80cff3, 0x4ff7632b17973f55, 0x4aac9f88bb8dfb9b,
      0x5e410549cc78e694, 0x63629003cf57915a, 0xd3c6a14a865ea355}},
    {"xz", 64, 10, 15867,
     {0x40cd707db74c5bc0, 0x40b2e32496ee57e8, 0x40b21b77f5547a4b,
      0x40aaf9c4b28c57dc, 0x40948718e68fb870, 0x40901037dcb1d08b},
     {0x935e3f7cbb80cff3, 0x4abefb684a896f70, 0x1d124919213194f7,
      0x6adb384361e6ae55, 0x6fcd36a4c19a5b65, 0x2051cdd2afa88f17}},
    {"mcf", 16, 1, 5856,
     {0x40bdf002bad5a620, 0x40b5febac95270e8, 0x40b75ee42ca8ef72,
      0x40b3180cc4e1f277, 0x40a62b3ebbb39d0a, 0x409ac33bf45e4ffb},
     {0x3fe9d597be334e5b, 0x54db648921f80e8a, 0xf2b3a64ee47d48ae,
      0x372313c92eb04ea4, 0x97001c65274581b9, 0xbff89d915ce1f485}},
    {"mcf", 16, 10, 5856,
     {0x40bdf002bad5a620, 0x40b1c6bac95271f9, 0x40b123fb49dd861d,
      0x40a9ba47c42d0cc1, 0x40936ad9ec3983d7, 0x408de8de4f2303f0},
     {0x3fe9d597be334e5b, 0x822ca69d99ddad13, 0x077a4c872617142a,
      0x756602258226dfa5, 0x59d9f304bfe96953, 0x129b036c2a8620f1}},
    {"mcf", 64, 1, 14095,
     {0x40cd707db74c5bc0, 0x40b71b2496ee5563, 0x40b857611320c7d0,
      0x40b3ba1364490306, 0x40a6bc822c664b4e, 0x409be14ba48a3afa},
     {0x39fded607f963ded, 0x7f073f95a4bc0653, 0x38b1e9a0fc5fb089,
      0x18bdecc00e38b21e, 0xac32efdf1855155c, 0x61489dc0e9f7ad33}},
    {"mcf", 64, 10, 14095,
     {0x40cd707db74c5bc0, 0x40b2e32496ee57e8, 0x40b21b8afd54bdb6,
      0x40aafc7a9cf9eee3, 0x409489ac019c62a9, 0x4090127ed7bd6d00},
     {0x39fded607f963ded, 0x639de97094883d6a, 0x420d3d5b15a3950f,
      0x01d9aed02e24d025, 0xe8456129ffa7ee3c, 0x1b1231507a0d288b}},
    {"lbm", 16, 1, 3015,
     {0x40bdf002bad5a620, 0x40b5febac95270e8, 0x40b75f5ac6293f80,
      0x40b319cb1cc61ddf, 0x40a62d4f429b3943, 0x409ac5829c2c4754},
     {0x3f5fedde9267cf80, 0x8d2d73d9c7614065, 0xa8152ba6d4408e3f,
      0xb29e2697b71fddc8, 0x4316505e70ffb8f2, 0xbd65a3320babb27e}},
    {"lbm", 16, 10, 3015,
     {0x40bdf002bad5a620, 0x40b1c6bac95271f9, 0x40b1240fc4becdce,
      0x40a9bd0036b75286, 0x40936d727f8c99cc, 0x408ded6b9ebef254},
     {0x3f5fedde9267cf80, 0xcd8bc74eaf592900, 0xcba0f8ba1d15c4dd,
      0x14494b7fb7b85899, 0x9424f840bac32d60, 0xb3c5c616b3192308}},
    {"lbm", 64, 1, 18804,
     {0x40cd707db74c5bc0, 0x40b71b2496ee5563, 0x40b8587ba562b2e5,
      0x40b3be5124b627ec, 0x40a6c18141108d9c, 0x409be6df84d71385},
     {0x5edeee74a2f14023, 0xa67d031c148295c5, 0xf3319e7cefd7e60e,
      0xd1cff31597b50563, 0xbb5d405b4a5c8adf, 0x83befe3b85269207}},
    {"lbm", 64, 10, 18804,
     {0x40cd707db74c5bc0, 0x40b2e32496ee57e8, 0x40b21bb8c1bc2103,
      0x40ab031c821f2964, 0x40948ff6f386c855, 0x40901812b80a4594},
     {0x5edeee74a2f14023, 0xf1ae43171a712e38, 0xc06b6ff5ceb6cb93,
      0x3fa1addd871340a1, 0xef3da05a4e5968c8, 0x92093ab2fe0cd67e}},
};

INSTANTIATE_TEST_SUITE_P(
    Pins, GoldenGpuSim,
    ::testing::Combine(::testing::ValuesIn(kGpuSimPins),
                       ::testing::Range(std::size_t{0}, kNumGpuStacks)),
    [](const ::testing::TestParamInfo<GoldenGpuSim::ParamType>& p) {
      const GpuSimPin& g = std::get<0>(p.param);
      return std::string(g.abbr) + "_c" + std::to_string(g.context) + "_n" +
             std::to_string(g.batch_n) + "_" + kGpuStacks[std::get<1>(p.param)].name;
    });

// ---- Encoded trace bytes ----------------------------------------------------
// make_encoded_trace's features and targets under every replacement policy,
// with next-line prefetch off and on, set on all three caches of a machine
// with a 16 KB L1D. Pinned per configuration: an FNV-1a hash over every
// feature and then every target, so a cache-lookup change that moves one
// victim, one prefetch or one hit-level feature fails here.

constexpr std::size_t kNumPolicies = 6;  // ReplacementPolicy kLru..kArc

struct TracePin {
  const char* abbr;
  std::uint64_t hash[kNumPolicies][2];  // [policy][next-line prefetch]
};

void PrintTo(const TracePin& g, std::ostream* os) { *os << g.abbr; }

class GoldenTrace
    : public ::testing::TestWithParam<std::tuple<TracePin, std::size_t, bool>> {};

TEST_P(GoldenTrace, EncodedRowsPinned) {
  const auto& [g, policy, prefetch] = GetParam();
  uarch::MachineConfig m;
  m.l1d.size_bytes = 16 * 1024;
  for (uarch::CacheConfig* c : {&m.l1i, &m.l1d, &m.l2}) {
    c->replacement = static_cast<uarch::ReplacementPolicy>(policy);
    c->next_line_prefetch = prefetch;
  }
  const auto tr = uarch::make_encoded_trace(trace::find_workload(g.abbr), 20000, m, 3);
  std::uint64_t h = 14695981039346656037ull;
  for (const std::int32_t f : tr.raw_features()) {
    h = fnv_fold(h, static_cast<std::uint32_t>(f));
  }
  for (const std::uint32_t t : tr.raw_targets()) h = fnv_fold(h, t);
  EXPECT_EQ(h, g.hash[policy][prefetch]) << std::hex << "0x" << h;
}

// 20000 instructions, seed 3.
constexpr TracePin kTracePins[] = {
    {"mcf",
     {{0x827b44d8c3e0e8eb, 0xac354a3b56a20188}, {0x5e0dded385d00cfd, 0xf4cb8e14df60d739},
      {0x1166d63f9031b6e5, 0x5c1f0d2ee07f1e5c}, {0xf471db26db6b8465, 0x6a796aa6755bde4a},
      {0x209ced448493b68c, 0x91aec20595fdb6e3}, {0x132d19500244114e, 0x30128f8c507669b0}}},
    {"lbm",
     {{0x45e1d40da98ac0f2, 0xc362c7063dd88a82}, {0x4fba174ea4d80387, 0x9ab0363eb86d666f},
      {0x19295c65040bc78a, 0x08533b17d07dfc52}, {0x153b4dc4912ce352, 0x753010c993e2f0e4},
      {0x3f3e40c1ac05eb9f, 0xcf4a162977c78305}, {0x054fbb83863d511f, 0x2be53b44f1a9dc3a}}},
    {"exch",
     {{0x9dd3ce13b5edb8d3, 0x02dc6b1f519fa560}, {0x5b9a6f5bef57e2da, 0x3178c65f119ca9ae},
      {0xc41a02425c82f62d, 0x1397f59b5fe7a522}, {0x2291f0b53f5ab89b, 0x896c2c8f72c55ca3},
      {0x73bbe8079bd83360, 0xbcbdc0597ac2a44a}, {0xde0a857ba678ba68, 0xb831cb2367aa6af7}}},
    {"xz",
     {{0xcd18539469a184b9, 0xf52236e342ae58b7}, {0xfccfc0995c207bfa, 0x3d32a903933608c8},
      {0x5eb56a6ce8cedac0, 0x63acea6071674453}, {0x0fe19856950796c1, 0x9106117664faf079},
      {0x1dfeead40b05a057, 0x791b897a9ccb7745}, {0x6c2ac4e4f9e42293, 0x4732116098e31116}}},
    {"perl",
     {{0x40ca3c2634a740e0, 0x6cf9d0f7b68e6471}, {0xdbc9a12a43bf7d2c, 0x7169d5eccb8b4404},
      {0xbeb137245c38be70, 0x11d923c1bf219e99}, {0x3289688508ea1b3b, 0x8403852fc64fdb6e},
      {0x61a627ee9cee2530, 0x575448ca31f24c09}, {0x73e7323e3befee02, 0xb304961a4ca3b40c}}},
    {"spei",
     {{0x32c0de836e6df239, 0xe9ece0e594bc90da}, {0xa8baad04cd24756c, 0x46c87f2dd009a8f7},
      {0x033b7514f58305bc, 0x89ea51eeb01f31be}, {0xa72fccd880e7f92e, 0x88bf55c31f563f21},
      {0x724cbf8efa719c8c, 0x4852ba859889e406}, {0xfbf41572aa715923, 0x6777de8c6190fbf2}}},
};

INSTANTIATE_TEST_SUITE_P(
    Pins, GoldenTrace,
    ::testing::Combine(::testing::ValuesIn(kTracePins),
                       ::testing::Range(std::size_t{0}, kNumPolicies),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<GoldenTrace::ParamType>& p) {
      const auto policy = static_cast<uarch::ReplacementPolicy>(std::get<1>(p.param));
      return std::string(std::get<0>(p.param).abbr) + "_" + uarch::to_string(policy) +
             (std::get<2>(p.param) ? "_prefetch" : "");
    });

}  // namespace
}  // namespace mlsim::core
