#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.h"

namespace mlsim::tensor {

namespace {
void kaiming_uniform(std::vector<float>& w, std::size_t fan_in, Rng& rng) {
  const float bound = std::sqrt(6.0f / static_cast<float>(fan_in));
  for (auto& v : w) v = static_cast<float>(rng.uniform() * 2.0 - 1.0) * bound;
}

// Forward kernels. They vectorise across output channels with 16-byte
// GCC/Clang vector extensions (SSE2 on baseline x86-64): an input value is
// broadcast and multiplied into four outputs' accumulators at a time, and
// each lane runs exactly the scalar sequence of its output: start from the
// bias, then add one rounded product per nonzero input in (input channel,
// tap) order. Lanes never combine, so the result does not depend on how
// outputs are grouped.
typedef float v4f __attribute__((vector_size(16)));
constexpr std::size_t kLanes = 4;

inline v4f load4(const float* p) {
  v4f v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline void store4(float* p, v4f v) { std::memcpy(p, &v, sizeof v); }
inline v4f splat(float v) { return v4f{v, v, v, v}; }

// max(v, 0) as ReLU defines it: v > 0 ? v : +0.0, so -0.0 and NaN become
// +0.0. One compare and mask, no branch.
inline v4f relu4(v4f v) { return v > 0.0f ? v : v4f{}; }

std::size_t round_up4(std::size_t n) { return (n + kLanes - 1) / kLanes * kLanes; }

// Positions of the nonzero entries of x[0, n), ascending, into nz[0, n);
// returns their count. nz[n, 2n) is scratch. Branch-free: one vector
// compare per four entries, then a compaction, so random zeros cost no
// mispredicted branches.
std::size_t nonzeros(const float* x, std::size_t n, std::uint32_t* nz) {
  typedef std::int32_t v4i __attribute__((vector_size(16)));
  std::uint32_t* flag = nz + n;  // 1 where x is nonzero
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const v4i f = (load4(x + i) != 0.0f) & 1;
    std::memcpy(flag + i, &f, sizeof f);
  }
  for (; i < n; ++i) flag[i] = x[i] != 0.0f;
  std::size_t count = 0;
  for (i = 0; i < n; ++i) {
    nz[count] = static_cast<std::uint32_t>(i);
    count += flag[i];
  }
  return count;
}

// a[0, n) += w[0, n) * v, four lanes at a time; n is a multiple of 4. A
// masked lane (zero weight) adds -0.0, i.e. nothing: 0 * x would be +0.0,
// -0.0 or NaN.
template <bool kMasked>
inline void axpy(float* a, const float* w, v4f v, std::size_t n) {
  auto step = [&](std::size_t j) {
    const v4f wv = load4(w + j);
    v4f prod = wv * v;
    if constexpr (kMasked) prod = wv != 0.0f ? prod : splat(-0.0f);
    store4(a + j, load4(a + j) + prod);
  };
  constexpr std::size_t kBlock = 8 * kLanes;
  std::size_t j = 0;
  for (; j + kBlock <= n; j += kBlock) {
#pragma GCC unroll 8
    for (std::size_t u = 0; u < kBlock; u += kLanes) step(j + u);
  }
  for (; j < n; j += kLanes) step(j);
}

// Stores `n` (<= 4) lanes of `v`, `stride` floats apart.
inline void store_lanes(float* y, std::size_t stride, v4f v, std::size_t n) {
  for (std::size_t r = 0; r < n; ++r) y[r * stride] = v[r];
}

// Writes position-major accumulators (L rows of cp >= c_out channels) to
// the channel-major output (c_out rows of L), through ReLU if `relu`.
// Four positions of four channels at a time are transposed in registers.
void store_transposed(const float* acc, std::size_t cp, std::size_t c_out, std::size_t L,
                      bool relu, float* y) {
  auto act = [relu](v4f v) { return relu ? relu4(v) : v; };
  std::size_t l = 0;
  for (; l + kLanes <= L; l += kLanes) {
    for (std::size_t j = 0; j < c_out; j += kLanes) {
      const float* a = acc + l * cp + j;
      const v4f r0 = act(load4(a)), r1 = act(load4(a + cp));
      const v4f r2 = act(load4(a + 2 * cp)), r3 = act(load4(a + 3 * cp));
      const v4f t0 = __builtin_shufflevector(r0, r1, 0, 4, 1, 5);
      const v4f t1 = __builtin_shufflevector(r0, r1, 2, 6, 3, 7);
      const v4f t2 = __builtin_shufflevector(r2, r3, 0, 4, 1, 5);
      const v4f t3 = __builtin_shufflevector(r2, r3, 2, 6, 3, 7);
      const v4f col[kLanes] = {__builtin_shufflevector(t0, t2, 0, 1, 4, 5),
                               __builtin_shufflevector(t0, t2, 2, 3, 6, 7),
                               __builtin_shufflevector(t1, t3, 0, 1, 4, 5),
                               __builtin_shufflevector(t1, t3, 2, 3, 6, 7)};
      for (std::size_t r = 0; r < kLanes && j + r < c_out; ++r) store4(y + (j + r) * L + l, col[r]);
    }
  }
  for (; l < L; ++l) {
    for (std::size_t j = 0; j < c_out; j += kLanes) {
      store_lanes(y + j * L + l, L, act(load4(acc + l * cp + j)), std::min(kLanes, c_out - j));
    }
  }
}

// One sample of Conv1D. For each input channel, ascending, every nonzero
// position p adds w[ci][kk] * x[ci][p] into output row p + pad - kk for the
// taps kk that land inside the row. A row's taps arrive in ascending p, so
// in ascending kk. Accumulators are position-major (L rows of cp channels)
// and are transposed into the channel-major output when stored. kMasked:
// zero weights add nothing (axpy).
template <bool kMasked>
void conv_sample(const ConvWeights& cw, const float* x, std::size_t L, bool relu,
                 float* acc, std::uint32_t* nz, float* y) {
  const std::size_t cp = round_up4(cw.c_out), pad = cw.k / 2;
  for (std::size_t l = 0; l < L; ++l) std::memcpy(acc + l * cp, cw.b.data(), cp * sizeof(float));
  for (std::size_t ci = 0; ci < cw.c_in; ++ci) {
    const float* xr = x + ci * L;
    const float* wc = cw.w.data() + ci * cw.k * cp;
    const std::size_t n = nonzeros(xr, L, nz);
    for (std::size_t t = 0; t < n; ++t) {
      const std::size_t p = nz[t];
      const v4f v = splat(xr[p]);
      // Output row l = p + pad - kk lies in [0, L).
      const std::size_t k_lo = p + pad >= L ? p + pad - L + 1 : 0;
      const std::size_t k_hi = std::min(cw.k, p + pad + 1);
      for (std::size_t kk = k_lo; kk < k_hi; ++kk) {
        axpy<kMasked>(acc + (p + pad - kk) * cp, wc + kk * cp, v, cp);
      }
    }
  }
  store_transposed(acc, cp, cw.c_out, L, relu, y);
}

// NV vectors of consecutive Linear outputs (from `o`, in the padded row of
// np) over the n nonzero inputs listed in `nz`, in registers.
template <std::size_t NV>
void linear_block(const LinearWeights& lw, std::size_t np, std::size_t o, const float* x,
                  const std::uint32_t* nz, std::size_t n, bool relu, float* y) {
  v4f acc[NV];
#pragma GCC unroll 8
  for (std::size_t j = 0; j < NV; ++j) acc[j] = load4(lw.b.data() + o + kLanes * j);
  for (std::size_t t = 0; t < n; ++t) {
    const float* w = lw.w.data() + nz[t] * np + o;
    const v4f v = splat(x[nz[t]]);
#pragma GCC unroll 8
    for (std::size_t j = 0; j < NV; ++j) acc[j] += load4(w + kLanes * j) * v;
  }
  for (std::size_t j = 0; j < NV && o + kLanes * j < lw.n_out; ++j) {
    const std::size_t first = o + kLanes * j;
    store_lanes(y + first, 1, relu ? relu4(acc[j]) : acc[j], std::min(kLanes, lw.n_out - first));
  }
}
}  // namespace

// ---------------------------------------------------------------- Conv1D ---

Conv1D::Conv1D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
               Rng* rng)
    : c_in_(in_channels),
      c_out_(out_channels),
      k_(kernel),
      w_(out_channels * in_channels * kernel),
      b_(out_channels, 0.0f),
      gw_(w_.size(), 0.0f),
      gb_(b_.size(), 0.0f) {
  check(kernel % 2 == 1, "Conv1D uses odd kernels with 'same' padding");
  if (rng) kaiming_uniform(w_, c_in_ * k_, *rng);
}

Tensor Conv1D::forward(const Tensor& x) {
  Tensor y = infer(x);
  cached_input_ = x;
  return y;
}

Tensor Conv1D::infer(const Tensor& x) const { return packed().forward(x, false); }

ConvWeights Conv1D::packed() const {
  const std::size_t cp = round_up4(c_out_);
  ConvWeights cw{c_in_, c_out_, k_, std::vector<float>(c_in_ * k_ * cp), b_, false};
  cw.b.resize(cp);
  for (std::size_t co = 0; co < c_out_; ++co) {
    for (std::size_t i = 0; i < c_in_ * k_; ++i) {
      const float v = w_[co * c_in_ * k_ + i];
      cw.w[i * cp + co] = v;
      cw.has_zero = cw.has_zero || v == 0.0f;
    }
  }
  return cw;
}

Tensor ConvWeights::forward(const Tensor& x, bool relu) const {
  check(x.rank() == 3 && x.dim(1) == c_in, "Conv1D input must be (B, C_in, L)");
  const std::size_t B = x.dim(0), L = x.dim(2);
  check(L > k / 2, "Conv1D input length must exceed half the kernel width");
  std::vector<float> acc(L * round_up4(c_out));
  std::vector<std::uint32_t> nz(2 * L);
  Tensor y({B, c_out, L});
  for (std::size_t s = 0; s < B; ++s) {
    const float* xb = x.data() + s * c_in * L;
    float* yb = y.data() + s * c_out * L;
    if (has_zero) {
      conv_sample<true>(*this, xb, L, relu, acc.data(), nz.data(), yb);
    } else {
      conv_sample<false>(*this, xb, L, relu, acc.data(), nz.data(), yb);
    }
  }
  return y;
}

Tensor Conv1D::backward(const Tensor& grad_out) {
  const Tensor& x = cached_input_;
  const std::size_t B = x.dim(0), L = x.dim(2);
  const std::ptrdiff_t pad = static_cast<std::ptrdiff_t>(k_ / 2);
  Tensor gx({B, c_in_, L});

  const float* xd = x.data();
  const float* gyd = grad_out.data();
  float* gxd = gx.data();
  for (std::size_t b = 0; b < B; ++b) {
    const float* xb = xd + b * c_in_ * L;
    const float* gyb = gyd + b * c_out_ * L;
    float* gxb = gxd + b * c_in_ * L;
    for (std::size_t co = 0; co < c_out_; ++co) {
      const float* gyrow = gyb + co * L;
      float* gwrow = gw_.data() + co * c_in_ * k_;
      float acc_b = 0.0f;
      for (std::size_t l = 0; l < L; ++l) acc_b += gyrow[l];
      gb_[co] += acc_b;
      for (std::size_t ci = 0; ci < c_in_; ++ci) {
        const float* xrow = xb + ci * L;
        float* gxrow = gxb + ci * L;
        const float* wk = w_.data() + (co * c_in_ + ci) * k_;
        float* gwk = gwrow + ci * k_;
        for (std::size_t kk = 0; kk < k_; ++kk) {
          const std::ptrdiff_t off = static_cast<std::ptrdiff_t>(kk) - pad;
          const std::size_t lo = off < 0 ? static_cast<std::size_t>(-off) : 0;
          const std::size_t hi = off > 0 ? L - static_cast<std::size_t>(off) : L;
          float acc_w = 0.0f;
          const float wv = wk[kk];
          for (std::size_t l = lo; l < hi; ++l) {
            const std::size_t xi =
                static_cast<std::size_t>(static_cast<std::ptrdiff_t>(l) + off);
            acc_w += gyrow[l] * xrow[xi];
            gxrow[xi] += gyrow[l] * wv;
          }
          gwk[kk] += acc_w;
        }
      }
    }
  }
  return gx;
}

void Conv1D::collect_params(std::vector<Param>& out) {
  out.push_back({&w_, &gw_});
  out.push_back({&b_, &gb_});
}

void Conv1D::zero_grad() {
  std::fill(gw_.begin(), gw_.end(), 0.0f);
  std::fill(gb_.begin(), gb_.end(), 0.0f);
}

std::size_t Conv1D::flops(std::size_t batch, std::size_t length) const {
  return 2 * batch * c_out_ * c_in_ * k_ * length;
}

// ---------------------------------------------------------------- Linear ---

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng* rng)
    : n_in_(in_features),
      n_out_(out_features),
      w_(out_features * in_features),
      b_(out_features, 0.0f),
      gw_(w_.size(), 0.0f),
      gb_(b_.size(), 0.0f) {
  if (rng) kaiming_uniform(w_, n_in_, *rng);
}

Tensor Linear::forward(const Tensor& x) {
  Tensor y = infer(x);
  cached_input_ = x;
  return y;
}

Tensor Linear::infer(const Tensor& x) const { return packed().forward(x, false); }

LinearWeights Linear::packed() const {
  const std::size_t np = round_up4(n_out_);
  LinearWeights lw{n_in_, n_out_, std::vector<float>(n_in_ * np), b_};
  lw.b.resize(np);
  for (std::size_t o = 0; o < n_out_; ++o) {
    for (std::size_t i = 0; i < n_in_; ++i) lw.w[i * np + o] = w_[o * n_in_ + i];
  }
  return lw;
}

Tensor LinearWeights::forward(const Tensor& x, bool relu) const {
  check(x.rank() == 2 && x.dim(1) == n_in, "Linear input must be (B, N_in)");
  const std::size_t B = x.dim(0), np = round_up4(n_out);
  constexpr std::size_t kBlock = 8 * kLanes;
  std::vector<std::uint32_t> nz(2 * n_in);
  Tensor y({B, n_out});
  for (std::size_t s = 0; s < B; ++s) {
    const float* xb = x.data() + s * n_in;
    float* yb = y.data() + s * n_out;
    const std::size_t n = nonzeros(xb, n_in, nz.data());
    std::size_t o = 0;
    for (; o + kBlock <= np; o += kBlock) linear_block<8>(*this, np, o, xb, nz.data(), n, relu, yb);
    switch ((np - o) / kLanes) {
      case 1: linear_block<1>(*this, np, o, xb, nz.data(), n, relu, yb); break;
      case 2: linear_block<2>(*this, np, o, xb, nz.data(), n, relu, yb); break;
      case 3: linear_block<3>(*this, np, o, xb, nz.data(), n, relu, yb); break;
      case 4: linear_block<4>(*this, np, o, xb, nz.data(), n, relu, yb); break;
      case 5: linear_block<5>(*this, np, o, xb, nz.data(), n, relu, yb); break;
      case 6: linear_block<6>(*this, np, o, xb, nz.data(), n, relu, yb); break;
      case 7: linear_block<7>(*this, np, o, xb, nz.data(), n, relu, yb); break;
      default: break;
    }
  }
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  const Tensor& x = cached_input_;
  const std::size_t B = x.dim(0);
  Tensor gx({B, n_in_});
  const float* xd = x.data();
  const float* gyd = grad_out.data();
  float* gxd = gx.data();
  for (std::size_t b = 0; b < B; ++b) {
    const float* xb = xd + b * n_in_;
    const float* gyb = gyd + b * n_out_;
    float* gxb = gxd + b * n_in_;
    for (std::size_t o = 0; o < n_out_; ++o) {
      const float g = gyb[o];
      if (g == 0.0f) continue;
      gb_[o] += g;
      float* gwrow = gw_.data() + o * n_in_;
      const float* wrow = w_.data() + o * n_in_;
      for (std::size_t i = 0; i < n_in_; ++i) {
        gwrow[i] += g * xb[i];
        gxb[i] += g * wrow[i];
      }
    }
  }
  return gx;
}

void Linear::collect_params(std::vector<Param>& out) {
  out.push_back({&w_, &gw_});
  out.push_back({&b_, &gb_});
}

void Linear::zero_grad() {
  std::fill(gw_.begin(), gw_.end(), 0.0f);
  std::fill(gb_.begin(), gb_.end(), 0.0f);
}

// ------------------------------------------------------------------ ReLU ---

Tensor ReLU::forward(const Tensor& x) {
  cached_input_ = x;
  Tensor y = x;
  float* d = y.data();
  const std::size_t n = y.numel();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) store4(d + i, relu4(load4(d + i)));
  if (i < n) {  // the last 1-3 values, through one padded vector
    float tail[kLanes] = {};
    std::memcpy(tail, d + i, (n - i) * sizeof(float));
    store4(tail, relu4(load4(tail)));
    std::memcpy(d + i, tail, (n - i) * sizeof(float));
  }
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  Tensor gx = grad_out;
  auto gxf = gx.flat();
  auto xf = cached_input_.flat();
  for (std::size_t i = 0; i < gxf.size(); ++i) {
    if (xf[i] <= 0.0f) gxf[i] = 0.0f;
  }
  return gx;
}

// ------------------------------------------------------------------ Loss ---

float mse_loss(const Tensor& pred, const Tensor& target, Tensor& grad) {
  check(pred.numel() == target.numel(), "loss shape mismatch");
  grad = pred;
  const float scale = 2.0f / static_cast<float>(pred.numel());
  float loss = 0.0f;
  auto gf = grad.flat();
  auto pf = pred.flat();
  auto tf = target.flat();
  for (std::size_t i = 0; i < pf.size(); ++i) {
    const float d = pf[i] - tf[i];
    loss += d * d;
    gf[i] = d * scale;
  }
  return loss / static_cast<float>(pred.numel());
}

}  // namespace mlsim::tensor
