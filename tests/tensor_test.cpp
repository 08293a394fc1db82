// Tests for the tensor/NN substrate, including numeric gradient checks for
// every trainable layer (the strongest correctness evidence a from-scratch
// NN library can offer).
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <string>

#include "common/check.h"
#include "common/rng.h"
#include "common/wire.h"
#include "tensor/lstm.h"
#include "tensor/model.h"
#include "tensor/ops.h"
#include "tensor/optim.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"

namespace mlsim::tensor {
namespace {

// ----------------------------------------------------------------- tensor --

TEST(Tensor, ShapeAndFill) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6u);
  EXPECT_EQ(t.dim(0), 2u);
  t.fill(2.5f);
  EXPECT_EQ(t(1, 2), 2.5f);
  EXPECT_THROW(t.dim(2), CheckError);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3});
  for (std::size_t i = 0; i < 6; ++i) t.at(i) = static_cast<float>(i);
  const Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r(2, 1), 5.0f);
  EXPECT_THROW(t.reshaped({4, 2}), CheckError);
}

TEST(Tensor, RankLimits) {
  EXPECT_THROW(Tensor(std::vector<std::size_t>{}), CheckError);
  EXPECT_THROW(Tensor({1, 1, 1, 1, 1}), CheckError);
  EXPECT_NO_THROW(Tensor({1, 2, 3, 4}));
}

// --------------------------------------------------- numeric grad checking --

// Central-difference gradient check of d(loss)/d(param) for a given layer
// stack: loss = mse(forward(x), target).
template <typename Forward, typename Backward>
void grad_check(std::vector<Param> params, const Forward& fwd, const Backward& bwd,
                const Tensor& x, const Tensor& target, double tol = 2e-2) {
  Tensor grad;
  Tensor out = fwd(x);
  mse_loss(out, target, grad);
  bwd(grad);

  Rng rng(99);
  for (const auto& p : params) {
    // Spot check a handful of entries per parameter block.
    for (int probe = 0; probe < 5; ++probe) {
      const std::size_t idx = rng.next_below(p.value->size());
      const float orig = (*p.value)[idx];
      const float analytic = (*p.grad)[idx];
      const float h = 1e-3f;
      (*p.value)[idx] = orig + h;
      Tensor g1;
      const float l1 = mse_loss(fwd(x), target, g1);
      (*p.value)[idx] = orig - h;
      Tensor g2;
      const float l2 = mse_loss(fwd(x), target, g2);
      (*p.value)[idx] = orig;
      const double numeric =
          (static_cast<double>(l1) - static_cast<double>(l2)) /
          (2.0 * static_cast<double>(h));
      const double denom = std::max(
          1.0, std::abs(numeric) + static_cast<double>(std::abs(analytic)));
      EXPECT_NEAR(analytic, numeric, tol * denom)
          << "param block entry " << idx;
    }
  }
}

TEST(Conv1D, ForwardShapeAndBias) {
  Rng rng(1);
  Conv1D conv(4, 8, 3, &rng);
  Tensor x({2, 4, 10});
  const Tensor y = conv.forward(x);
  ASSERT_EQ(y.shape(), (std::vector<std::size_t>{2, 8, 10}));
  // Zero input -> bias everywhere (bias initialised to 0 here).
  for (float v : y.flat()) EXPECT_EQ(v, 0.0f);
}

TEST(Conv1D, MatchesManualComputation) {
  Rng rng(2);
  Conv1D conv(1, 1, 3, &rng);
  conv.weight() = {0.5f, 1.0f, -0.25f};  // (1,1,3)
  conv.bias() = {0.1f};
  Tensor x({1, 1, 4});
  x.at(0) = 1;
  x.at(1) = 2;
  x.at(2) = 3;
  x.at(3) = 4;
  const Tensor y = conv.forward(x);
  // 'same' padding: y[l] = 0.5*x[l-1] + 1.0*x[l] - 0.25*x[l+1] + 0.1
  EXPECT_FLOAT_EQ(y.at(0), 1.0f - 0.5f + 0.1f);
  EXPECT_FLOAT_EQ(y.at(1), 0.5f + 2.0f - 0.75f + 0.1f);
  EXPECT_FLOAT_EQ(y.at(3), 1.5f + 4.0f + 0.1f);
}

TEST(Conv1D, GradientCheck) {
  Rng rng(3);
  Conv1D conv(3, 5, 3, &rng);
  Tensor x({2, 3, 7});
  Rng xr(4);
  for (auto& v : x.flat()) v = static_cast<float>(xr.normal());
  Tensor target({2, 5, 7});
  for (auto& v : target.flat()) v = static_cast<float>(xr.normal());
  std::vector<Param> params;
  conv.collect_params(params);
  grad_check(
      params, [&](const Tensor& in) { return conv.forward(in); },
      [&](const Tensor& g) {
        conv.zero_grad();
        conv.forward(x);
        conv.backward(g);
      },
      x, target);
}

TEST(Conv1D, InputGradientCheck) {
  Rng rng(5);
  Conv1D conv(2, 3, 3, &rng);
  Tensor x({1, 2, 6});
  Rng xr(6);
  for (auto& v : x.flat()) v = static_cast<float>(xr.normal());
  Tensor target({1, 3, 6});
  for (auto& v : target.flat()) v = static_cast<float>(xr.normal());

  Tensor grad;
  mse_loss(conv.forward(x), target, grad);
  const Tensor gx = conv.backward(grad);

  Rng pr(7);
  for (int probe = 0; probe < 8; ++probe) {
    const std::size_t idx = pr.next_below(x.numel());
    const float orig = x.at(idx);
    const float h = 1e-3f;
    Tensor xp = x;
    xp.at(idx) = orig + h;
    Tensor g1;
    const float l1 = mse_loss(conv.forward(xp), target, g1);
    xp.at(idx) = orig - h;
    Tensor g2;
    const float l2 = mse_loss(conv.forward(xp), target, g2);
    const double numeric =
        (static_cast<double>(l1) - static_cast<double>(l2)) /
        (2.0 * static_cast<double>(h));
    EXPECT_NEAR(gx.at(idx), numeric, 2e-2 * std::max(1.0, std::abs(numeric)));
  }
}

TEST(Conv1D, RejectsEvenKernel) {
  Rng rng(1);
  EXPECT_THROW(Conv1D(2, 2, 2, &rng), CheckError);
}

TEST(Conv1D, FlopsAccounting) {
  Rng rng(1);
  Conv1D conv(50, 64, 3, &rng);
  EXPECT_EQ(conv.flops(1, 112), 2u * 64 * 50 * 3 * 112);
}

TEST(Linear, MatchesManualComputation) {
  Rng rng(8);
  Linear fc(2, 2, &rng);
  fc.weight() = {1.0f, 2.0f, -1.0f, 0.5f};
  fc.bias() = {0.5f, -0.5f};
  Tensor x({1, 2});
  x.at(0) = 3;
  x.at(1) = 4;
  const Tensor y = fc.forward(x);
  EXPECT_FLOAT_EQ(y.at(0), 3 + 8 + 0.5f);
  EXPECT_FLOAT_EQ(y.at(1), -3 + 2 - 0.5f);
}

TEST(Linear, GradientCheck) {
  Rng rng(9);
  Linear fc(6, 4, &rng);
  Tensor x({3, 6}), target({3, 4});
  Rng xr(10);
  for (auto& v : x.flat()) v = static_cast<float>(xr.normal());
  for (auto& v : target.flat()) v = static_cast<float>(xr.normal());
  std::vector<Param> params;
  fc.collect_params(params);
  grad_check(
      params, [&](const Tensor& in) { return fc.forward(in); },
      [&](const Tensor& g) {
        fc.zero_grad();
        fc.forward(x);
        fc.backward(g);
      },
      x, target);
}

TEST(ReLU, ForwardBackward) {
  ReLU relu;
  Tensor x({1, 4});
  x.at(0) = -1;
  x.at(1) = 0;
  x.at(2) = 2;
  x.at(3) = -3;
  const Tensor y = relu.forward(x);
  EXPECT_EQ(y.at(0), 0.0f);
  EXPECT_EQ(y.at(2), 2.0f);
  Tensor g({1, 4});
  g.fill(1.0f);
  const Tensor gx = relu.backward(g);
  EXPECT_EQ(gx.at(0), 0.0f);
  EXPECT_EQ(gx.at(1), 0.0f);  // gradient 0 at x == 0
  EXPECT_EQ(gx.at(2), 1.0f);
}

TEST(MseLoss, ValueAndGradient) {
  Tensor pred({1, 2}), target({1, 2}), grad;
  pred.at(0) = 1;
  pred.at(1) = 3;
  target.at(0) = 0;
  target.at(1) = 1;
  const float loss = mse_loss(pred, target, grad);
  EXPECT_FLOAT_EQ(loss, (1.0f + 4.0f) / 2);  // mean of squared differences
  EXPECT_FLOAT_EQ(grad.at(0), 1.0f);              // 2*d/numel = 2*1/2
  EXPECT_FLOAT_EQ(grad.at(1), 2.0f);
}

// ------------------------------------------------------------------- lstm --

TEST(Lstm, ForwardShapes) {
  Rng rng(11);
  Lstm lstm(3, 5, rng);
  Tensor x({2, 4, 3});
  const Tensor h = lstm.forward(x);
  EXPECT_EQ(h.shape(), (std::vector<std::size_t>{2, 4, 5}));
  EXPECT_EQ(lstm.last_hidden().shape(), (std::vector<std::size_t>{2, 5}));
}

TEST(Lstm, ZeroInputGivesBoundedOutput) {
  Rng rng(12);
  Lstm lstm(2, 4, rng);
  Tensor x({1, 6, 2});
  const Tensor h = lstm.forward(x);
  for (float v : h.flat()) {
    EXPECT_LT(std::abs(v), 1.0f);  // tanh-bounded
  }
}

TEST(Lstm, GradientCheck) {
  Rng rng(13);
  Lstm lstm(2, 3, rng);
  Tensor x({1, 3, 2}), target({1, 3, 3});
  Rng xr(14);
  for (auto& v : x.flat()) v = static_cast<float>(xr.normal());
  for (auto& v : target.flat()) v = static_cast<float>(xr.normal() * 0.3);
  std::vector<Param> params;
  lstm.collect_params(params);
  grad_check(
      params, [&](const Tensor& in) { return lstm.forward(in); },
      [&](const Tensor& g) {
        lstm.zero_grad();
        lstm.forward(x);
        lstm.backward(g);
      },
      x, target, 3e-2);
}

TEST(Lstm, StatefulAcrossSequenceNotAcrossCalls) {
  Rng rng(15);
  Lstm lstm(1, 2, rng);
  Tensor x({1, 2, 1});
  x.at(0) = 1.0f;
  x.at(1) = 1.0f;
  const Tensor h1 = lstm.forward(x);
  const Tensor h2 = lstm.forward(x);
  // Fresh state each forward: identical outputs.
  for (std::size_t i = 0; i < h1.numel(); ++i) EXPECT_EQ(h1.at(i), h2.at(i));
  // Within a sequence, state accumulates: t=1 differs from t=0.
  EXPECT_NE(h1(0, 0, 0), h1(0, 1, 0));
}

// ------------------------------------------------------------------ model --

TEST(SimNetModel, ForwardShapeAndFlops) {
  SimNetModelConfig cfg{.in_features = 50, .window = 16, .channels = 8,
                        .hidden = 12, .kernel = 3, .outputs = 3};
  SimNetModel m(cfg);
  Tensor x({4, 50, 16});
  const Tensor y = m.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{4, 3}));
  EXPECT_GT(m.flops_per_batch(1), 0u);
  EXPECT_EQ(m.flops_per_batch(2), 2 * m.flops_per_batch(1));
}

TEST(SimNetModel, TrainingReducesLoss) {
  SimNetModelConfig cfg{.in_features = 4, .window = 8, .channels = 6,
                        .hidden = 10, .kernel = 3, .outputs = 2};
  SimNetModel m(cfg, 1);
  Adam optim(m.params(), {.lr = 5e-3f});

  // Learnable synthetic task: outputs are linear functions of the input.
  Rng rng(20);
  Tensor x({16, 4, 8}), target({16, 2});
  for (auto& v : x.flat()) v = static_cast<float>(rng.normal());
  for (std::size_t b = 0; b < 16; ++b) {
    float s0 = 0, s1 = 0;
    for (std::size_t c = 0; c < 4; ++c) {
      for (std::size_t l = 0; l < 8; ++l) {
        const float v = x(b, c, l);
        s0 += v * 0.05f;
        s1 += (c == 1 ? v : 0.0f) * 0.1f;
      }
    }
    target(b, 0) = s0;
    target(b, 1) = s1;
  }

  Tensor grad;
  float first = 0, last = 0;
  for (int step = 0; step < 150; ++step) {
    m.zero_grad();
    const Tensor pred = m.forward(x);
    const float loss = mse_loss(pred, target, grad);
    if (step == 0) first = loss;
    last = loss;
    m.backward(grad);
    optim.step();
  }
  EXPECT_LT(last, first * 0.2f);
}

TEST(SimNetModel, SaveLoadRoundTrip) {
  SimNetModelConfig cfg{.in_features = 6, .window = 5, .channels = 4,
                        .hidden = 7, .kernel = 3, .outputs = 3};
  SimNetModel m(cfg, 17);
  wire::Writer w;
  put_model(w, m);
  wire::Reader r(w.bytes(), "test");
  SimNetModel back = get_model(r);
  r.finish();
  EXPECT_EQ(back.config(), cfg);
  Tensor x({2, 6, 5});
  Rng rng(18);
  for (auto& v : x.flat()) v = static_cast<float>(rng.normal());
  const Tensor y1 = m.forward(x);
  const Tensor y2 = back.forward(x);
  for (std::size_t i = 0; i < y1.numel(); ++i) EXPECT_EQ(y1.at(i), y2.at(i));
}

// ------------------------------------------------------ kernel bit-exactness --

// The scalar forward loops the vectorised kernels replaced, kept as the
// reference: each output starts at its bias and adds one product at a time
// in (input channel, tap) order. A zero input adds nothing; Conv1D also
// skips zero weights and taps outside the row, Linear multiplies every
// weight.
Tensor conv_reference(const Conv1D& conv, const Tensor& x) {
  const std::size_t B = x.dim(0), c_in = conv.in_channels(),
                    c_out = conv.out_channels(), k = conv.kernel(), L = x.dim(2);
  const std::ptrdiff_t pad = static_cast<std::ptrdiff_t>(k / 2);
  Tensor y({B, c_out, L});
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t co = 0; co < c_out; ++co) {
      float* yrow = y.data() + (b * c_out + co) * L;
      for (std::size_t l = 0; l < L; ++l) yrow[l] = conv.bias()[co];
      for (std::size_t ci = 0; ci < c_in; ++ci) {
        const float* xrow = x.data() + (b * c_in + ci) * L;
        for (std::size_t kk = 0; kk < k; ++kk) {
          const float wv = conv.weight()[(co * c_in + ci) * k + kk];
          if (wv == 0.0f) continue;
          const std::ptrdiff_t off = static_cast<std::ptrdiff_t>(kk) - pad;
          const std::size_t lo = off < 0 ? static_cast<std::size_t>(-off) : 0;
          const std::size_t hi = off > 0 ? L - static_cast<std::size_t>(off) : L;
          for (std::size_t l = lo; l < hi; ++l) {
            const float xv = xrow[static_cast<std::size_t>(static_cast<std::ptrdiff_t>(l) + off)];
            if (xv != 0.0f) yrow[l] += wv * xv;
          }
        }
      }
    }
  }
  return y;
}

Tensor linear_reference(const Linear& fc, const Tensor& x) {
  const std::size_t B = x.dim(0), n_in = fc.in_features(), n_out = fc.out_features();
  Tensor y({B, n_out});
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t o = 0; o < n_out; ++o) {
      float acc = fc.bias()[o];
      for (std::size_t i = 0; i < n_in; ++i) {
        const float xv = x.data()[b * n_in + i];
        if (xv != 0.0f) acc += fc.weight()[o * n_in + i] * xv;
      }
      y(b, o) = acc;
    }
  }
  return y;
}

Tensor relu_reference(Tensor t) {
  for (auto& v : t.flat()) v = v > 0.0f ? v : 0.0f;
  return t;
}

Tensor model_reference(const SimNetModel& m, const Tensor& x) {
  Tensor h = relu_reference(conv_reference(m.conv1(), x));
  h = relu_reference(conv_reference(m.conv2(), h));
  h = relu_reference(conv_reference(m.conv3(), h));
  h = h.reshaped({h.dim(0), h.dim(1) * h.dim(2)});
  return linear_reference(m.fc2(), relu_reference(linear_reference(m.fc1(), h)));
}

// Raw float bytes, so -0.0f vs 0.0f and NaN payloads count as differences.
bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

// Random parameters exercising the kernels' special cases: every third
// draw 2:4-prunes the weights, and about a quarter of the biases are -0.0f.
void randomize(std::vector<float>& w, std::vector<float>& bias, Rng& rng) {
  for (auto& v : w) v = static_cast<float>(rng.normal());
  if (rng.next_below(3) == 0) prune_2to4_inplace(w);
  for (auto& v : bias) v = rng.next_below(4) == 0 ? -0.0f : static_cast<float>(rng.normal());
}

// Inputs with zero runs (whole zero tensors, zero rows, scattered zeros) and
// a few infinities, which a zero weight must not turn into NaN.
void fill_input(Tensor& x, std::size_t row, Rng& rng) {
  const bool all_zero = rng.next_below(6) == 0;
  for (std::size_t i = 0; i < x.numel(); ++i) {
    const bool zero = all_zero || (i / row) % 5 == 3 || rng.next_below(8) == 0;
    const bool inf = !zero && rng.next_below(200) == 0;
    x.at(i) = zero  ? 0.0f
              : inf ? std::copysign(HUGE_VALF, static_cast<float>(rng.normal()))
                    : static_cast<float>(rng.normal());
  }
}

TEST(Kernels, ConvMatchesScalarLoopsBitForBit) {
  Rng rng(61);
  std::size_t cases = 0;
  for (const std::size_t k : {1, 3, 5}) {
    for (std::size_t L = k / 2 + 1; L <= 130; ++L) {
      const std::size_t c_in = 1 + rng.next_below(9), c_out = 1 + rng.next_below(7);
      const std::size_t B = 1 + rng.next_below(3);
      Conv1D conv(c_in, c_out, k, &rng);
      randomize(conv.weight(), conv.bias(), rng);
      Tensor x({B, c_in, L});
      fill_input(x, L, rng);
      const Tensor want = conv_reference(conv, x);
      ASSERT_TRUE(same_bits(conv.infer(x), want)) << "k=" << k << " L=" << L;
      ASSERT_TRUE(same_bits(conv.forward(x), want)) << "k=" << k << " L=" << L;
      ++cases;
    }
  }
  EXPECT_EQ(cases, 130u + 129u + 128u);
}

TEST(Kernels, LinearMatchesScalarLoopsBitForBit) {
  Rng rng(62);
  for (int t = 0; t < 300; ++t) {
    const std::size_t n_in = 1 + rng.next_below(t % 10 == 0 ? 1100 : 70);
    const std::size_t n_out = 1 + rng.next_below(70);
    const std::size_t B = 1 + rng.next_below(3);
    Linear fc(n_in, n_out, &rng);
    randomize(fc.weight(), fc.bias(), rng);
    Tensor x({B, n_in});
    fill_input(x, n_in, rng);
    const Tensor want = linear_reference(fc, x);
    ASSERT_TRUE(same_bits(fc.infer(x), want)) << n_in << "->" << n_out;
    ASSERT_TRUE(same_bits(fc.forward(x), want)) << n_in << "->" << n_out;
  }
}

TEST(Kernels, ModelInferAndForwardMatchScalarLoops) {
  Rng rng(63);
  const SimNetModelConfig configs[] = {
      {.in_features = 50, .window = 33, .channels = 32, .hidden = 64, .kernel = 3, .outputs = 3},
      {.in_features = 50, .window = 112, .channels = 13, .hidden = 9, .kernel = 3, .outputs = 3},
      {.in_features = 7, .window = 3, .channels = 5, .hidden = 6, .kernel = 5, .outputs = 2},
      {.in_features = 6, .window = 17, .channels = 6, .hidden = 18, .kernel = 1, .outputs = 3}};
  for (const auto& cfg : configs) {
    SimNetModel m(cfg, 64);
    if (cfg.channels == 13) prune_model_2to4(m);
    for (const std::size_t B : {1, 3}) {
      Tensor x({B, cfg.in_features, cfg.window});
      fill_input(x, cfg.window, rng);
      const Tensor want = model_reference(m, x);
      EXPECT_TRUE(same_bits(m.infer(x), want)) << "window " << cfg.window << " batch " << B;
      EXPECT_TRUE(same_bits(m.forward(x), want)) << "window " << cfg.window << " batch " << B;
    }
  }
}

// The shapes the vector kernels handle apart from the common case: output
// counts that are not a multiple of 4 (padded lanes are never stored),
// windows shorter than 2 * pad + 4 (no 4x4 store block, every position an
// edge), batches, and 2:4-pruned weights (the masked conv path).
TEST(Kernels, EdgeShapesMatchScalarLoopsBitForBit) {
  Rng rng(66);
  for (const std::size_t k : {1, 3, 5}) {
    const std::size_t pad = k / 2;
    for (const std::size_t c_out : {1, 2, 3, 5, 6, 7, 9, 33}) {
      for (std::size_t L = pad + 1; L < 2 * pad + 4; ++L) {
        Conv1D conv(4 + rng.next_below(3), c_out, k, &rng);
        do randomize(conv.weight(), conv.bias(), rng);
        while (!conv.packed().has_zero);  // until a draw 2:4-prunes
        Tensor x({3, conv.in_channels(), L});
        fill_input(x, L, rng);
        const Tensor want = conv_reference(conv, x);
        const std::string where = "k=" + std::to_string(k) + " c_out=" + std::to_string(c_out) +
                                  " L=" + std::to_string(L);
        ASSERT_TRUE(same_bits(conv.infer(x), want)) << where;
        ASSERT_TRUE(same_bits(conv.packed().forward(x, true), relu_reference(want))) << where;
      }
    }
  }
  for (const std::size_t n_out : {1, 2, 3, 5, 7, 31, 33, 63, 65}) {
    Linear fc(1 + rng.next_below(40), n_out, &rng);
    randomize(fc.weight(), fc.bias(), rng);
    prune_2to4_inplace(fc.weight());
    Tensor x({3, fc.in_features()});
    fill_input(x, fc.in_features(), rng);
    const Tensor want = linear_reference(fc, x);
    ASSERT_TRUE(same_bits(fc.infer(x), want)) << n_out;
    ASSERT_TRUE(same_bits(fc.packed().forward(x, true), relu_reference(want))) << n_out;
  }
}

// The training path's ReLU pass and the kernels' fused store use the same
// select: v > 0 ? v : +0.0, so -0.0 and NaN become +0.0.
TEST(Kernels, ReluPassMatchesScalarSelect) {
  const float specials[] = {-0.0f, 0.0f, 1.5f, -2.0f, HUGE_VALF, -HUGE_VALF, std::nanf(""),
                            1e-45f, -1e-45f};
  for (std::size_t n = 1; n <= 13; ++n) {
    Tensor x({1, n});
    for (std::size_t i = 0; i < n; ++i) x.at(i) = specials[(i + n) % std::size(specials)];
    ReLU relu;
    EXPECT_TRUE(same_bits(relu.forward(x), relu_reference(x))) << n;
  }
}

// A deployed model packs its weights once; the packed net gives the bytes
// SimNetModel::infer gives and reports the dense FLOPs.
TEST(Kernels, PackedSimNetMatchesModel) {
  Rng rng(67);
  const SimNetModelConfig cfg{.in_features = 50, .window = 33, .channels = 32, .hidden = 64,
                              .kernel = 3, .outputs = 3};
  SimNetModel m(cfg, 68);
  for (const bool pruned : {false, true}) {
    if (pruned) prune_model_2to4(m);
    const PackedSimNet packed(m);
    EXPECT_EQ(packed.flops_per_window(), m.flops_per_batch(1));
    EXPECT_EQ(packed.config(), cfg);
    Tensor x({4, cfg.in_features, cfg.window});
    fill_input(x, cfg.window, rng);
    const Tensor want = model_reference(m, x);
    EXPECT_TRUE(same_bits(packed.infer(x), want)) << pruned;
    EXPECT_TRUE(same_bits(m.infer(x), want)) << pruned;
  }
}

TEST(Kernels, RejectWindowShorterThanHalfTheKernel) {
  Rng rng(65);
  Conv1D conv(2, 2, 5, &rng);
  EXPECT_THROW(conv.infer(Tensor({1, 2, 2})), CheckError);
  EXPECT_THROW(conv.forward(Tensor({1, 2, 2})), CheckError);
  EXPECT_NO_THROW(conv.infer(Tensor({1, 2, 3})));

  SimNetModel m({.in_features = 2, .window = 2, .channels = 2, .hidden = 2, .kernel = 5,
                 .outputs = 1});
  EXPECT_THROW(m.infer(Tensor({1, 2, 2})), CheckError);
  EXPECT_THROW(m.forward(Tensor({1, 2, 2})), CheckError);
}

// ------------------------------------------------------------------- adam --

TEST(Adam, ConvergesOnQuadratic) {
  // Minimise (w - 3)^2 by hand-fed gradients.
  std::vector<float> w{0.0f}, g{0.0f};
  Adam adam({{&w, &g}}, {.lr = 0.1f});
  for (int i = 0; i < 300; ++i) {
    g[0] = 2.0f * (w[0] - 3.0f);
    adam.step();
  }
  EXPECT_NEAR(w[0], 3.0f, 0.05f);
}

TEST(Adam, GradClipBoundsStep) {
  std::vector<float> w{0.0f}, g{0.0f};
  Adam adam({{&w, &g}}, {.lr = 0.1f, .grad_clip = 1.0f});
  g[0] = 1e6f;
  adam.step();
  EXPECT_LT(std::abs(w[0]), 0.2f);
}

TEST(Adam, CountsParameters) {
  std::vector<float> a(10, 0.0f), ga(10, 0.0f), b(5, 0.0f), gb(5, 0.0f);
  std::vector<Param> params{{&a, &ga}, {&b, &gb}};
  Adam adam(params);
  EXPECT_EQ(adam.num_parameters(), 15u);
}

TEST(Adam, RejectsMismatchedSizes) {
  std::vector<float> w(3, 0.0f), g(2, 0.0f);
  std::vector<Param> params{{&w, &g}};
  EXPECT_THROW(Adam{params}, CheckError);
}

// ------------------------------------------------------------------ quant --

TEST(Quant, HalfQuantizationBoundsError) {
  Rng rng(21);
  std::vector<float> v(1000);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  auto q = v;
  quantize_half_inplace(q);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(q[i], v[i], std::abs(v[i]) * 0.001f + 1e-6f);
  }
}

TEST(Quant, Prune2to4StructureAndSelection) {
  std::vector<float> v{0.1f, -0.9f, 0.5f, 0.2f, 1.0f, 0.0f, -2.0f, 0.3f};
  prune_2to4_inplace(v);
  EXPECT_TRUE(satisfies_2to4(v));
  // Group 1 keeps -0.9 and 0.5.
  EXPECT_EQ(v[0], 0.0f);
  EXPECT_EQ(v[1], -0.9f);
  EXPECT_EQ(v[2], 0.5f);
  EXPECT_EQ(v[3], 0.0f);
  // Group 2 keeps 1.0 and -2.0.
  EXPECT_EQ(v[4], 1.0f);
  EXPECT_EQ(v[6], -2.0f);
  EXPECT_GE(sparsity(v), 0.5);
}

TEST(Quant, PruneTailUnaligned) {
  std::vector<float> v{1, 2, 3, 4, 5, 6};  // last 2 not in an aligned group
  prune_2to4_inplace(v);
  EXPECT_EQ(v[4], 5.0f);
  EXPECT_EQ(v[5], 6.0f);
}

TEST(Quant, ModelPruningKeepsAccuracyReasonable) {
  SimNetModelConfig cfg{.in_features = 8, .window = 8, .channels = 8,
                        .hidden = 8, .kernel = 3, .outputs = 2};
  SimNetModel m(cfg, 33);
  Tensor x({4, 8, 8});
  Rng rng(34);
  for (auto& v : x.flat()) v = static_cast<float>(rng.normal());
  const Tensor before = m.forward(x);
  prune_model_2to4(m);
  quantize_model_half(m);
  EXPECT_TRUE(satisfies_2to4(m.conv1().weight()));
  EXPECT_TRUE(satisfies_2to4(m.fc1().weight()));
  const Tensor after = m.forward(x);
  // Outputs change but stay in the same ballpark (bounded perturbation).
  for (std::size_t i = 0; i < before.numel(); ++i) {
    EXPECT_LT(std::abs(after.at(i) - before.at(i)),
              std::abs(before.at(i)) + 2.0f);
  }
}

}  // namespace
}  // namespace mlsim::tensor
