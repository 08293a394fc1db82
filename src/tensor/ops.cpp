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

// Forward kernels. They vectorise across independent outputs with 16-byte
// GCC/Clang vector extensions (SSE2 on baseline x86-64), and each lane runs
// exactly the scalar sequence of its output: start from the bias, then add
// one rounded product at a time in (input channel, tap) order. Lanes never
// combine, so the result does not depend on how outputs are grouped.
typedef float v4f __attribute__((vector_size(16)));
constexpr std::size_t kLanes = 4;

inline v4f load4(const float* p) {
  v4f v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline void store4(float* p, v4f v) { std::memcpy(p, &v, sizeof v); }

struct ConvShape {
  std::size_t c_in, k, length;
};

// NV vectors of interior output positions (every tap inside the row) of one
// output channel, accumulated in registers: vector j < NV-1 starts at
// first + 4j, the last at `last` (it may overlap its neighbour; both store
// the same values).
template <std::size_t NV>
void conv_vectors(const float* x, const float* wrow, float bias, const ConvShape& s,
                  std::size_t first, std::size_t last, float* yrow) {
  const std::size_t pad = s.k / 2;
  v4f acc[NV];
#pragma GCC unroll 8
  for (auto& a : acc) a = v4f{bias, bias, bias, bias};
  for (std::size_t ci = 0; ci < s.c_in; ++ci) {
    const float* wk = wrow + ci * s.k;
    const float* xa = x + ci * s.length + first - pad;
    const float* xz = x + ci * s.length + last - pad;
    for (std::size_t kk = 0; kk < s.k; ++kk) {
      const float wv = wk[kk];
      if (wv == 0.0f) continue;  // 2:4-pruned weights skip work
#pragma GCC unroll 8
      for (std::size_t j = 0; j + 1 < NV; ++j) acc[j] += wv * load4(xa + kk + kLanes * j);
      acc[NV - 1] += wv * load4(xz + kk);
    }
  }
#pragma GCC unroll 8
  for (std::size_t j = 0; j + 1 < NV; ++j) store4(yrow + first + kLanes * j, acc[j]);
  store4(yrow + last, acc[NV - 1]);
}

// Interior positions [pad, L - pad) of one output channel, in blocks of up to
// 8 vectors. Needs L - 2 * pad >= 4.
void conv_interior(const float* x, const float* wrow, float bias, const ConvShape& s,
                   float* yrow) {
  constexpr std::size_t kMaxVectors = 8;
  const std::size_t pad = s.k / 2, end = s.length - pad;
  for (std::size_t first = pad; first < end; first += kLanes * kMaxVectors) {
    const std::size_t nv = std::min(kMaxVectors, (end - first + kLanes - 1) / kLanes);
    const std::size_t last = std::min(first + kLanes * (nv - 1), end - kLanes);
    switch (nv) {
      case 1: conv_vectors<1>(x, wrow, bias, s, first, last, yrow); break;
      case 2: conv_vectors<2>(x, wrow, bias, s, first, last, yrow); break;
      case 3: conv_vectors<3>(x, wrow, bias, s, first, last, yrow); break;
      case 4: conv_vectors<4>(x, wrow, bias, s, first, last, yrow); break;
      case 5: conv_vectors<5>(x, wrow, bias, s, first, last, yrow); break;
      case 6: conv_vectors<6>(x, wrow, bias, s, first, last, yrow); break;
      case 7: conv_vectors<7>(x, wrow, bias, s, first, last, yrow); break;
      default: conv_vectors<8>(x, wrow, bias, s, first, last, yrow); break;
    }
  }
}

// Output position l of `rows` (1..4) consecutive output channels, one
// channel per lane, summing only the taps that land inside the row. A lane
// whose weight is zero keeps its sum: the select discards the product
// instead of adding it (0 * x is -0.0, or NaN for an infinite x). Lanes past
// `rows` repeat the last channel and are not stored.
void conv_column(const float* x, const float* w, const float* bias, std::size_t rows,
                 const ConvShape& s, std::size_t l, float* y) {
  const std::size_t pad = s.k / 2, stride = s.c_in * s.k;
  const std::size_t k_lo = l < pad ? pad - l : 0;
  const std::size_t k_hi = std::min(s.k, s.length + pad - l);
  const std::size_t r1 = std::min<std::size_t>(1, rows - 1);
  const std::size_t r2 = std::min<std::size_t>(2, rows - 1), r3 = rows - 1;
  const float *w1 = w + r1 * stride, *w2 = w + r2 * stride, *w3 = w + r3 * stride;
  v4f acc{bias[0], bias[r1], bias[r2], bias[r3]};
  for (std::size_t ci = 0; ci < s.c_in; ++ci) {
    const float* xr = x + ci * s.length;
    for (std::size_t kk = k_lo; kk < k_hi; ++kk) {
      const std::size_t i = ci * s.k + kk;
      const v4f wv{w[i], w1[i], w2[i], w3[i]};
      acc = wv != 0.0f ? acc + wv * xr[l + kk - pad] : acc;
    }
  }
  for (std::size_t r = 0; r < rows; ++r) y[r * s.length + l] = acc[r];
}

// `rows` (at most 4 * NV) consecutive Linear outputs in NV vectors. Each step
// loads a 4x4 block of weights (4 output rows x 4 inputs), transposes it in
// registers and adds one input's column at a time, so lane r of vector j
// sums w[4j+r][i] * x[i] for i ascending. Lanes past `rows` repeat the last
// output and are not stored.
template <std::size_t NV>
void linear_vectors(const float* x, const float* w, const float* bias, std::size_t n_in,
                    std::size_t rows, float* y) {
  std::size_t row[kLanes * NV];
  for (std::size_t r = 0; r < kLanes * NV; ++r) row[r] = std::min(r, rows - 1);
  v4f acc[NV];
#pragma GCC unroll 8
  for (std::size_t j = 0; j < NV; ++j) {
    const std::size_t* rj = row + kLanes * j;
    acc[j] = v4f{bias[rj[0]], bias[rj[1]], bias[rj[2]], bias[rj[3]]};
  }
  std::size_t i = 0;
  for (; i + kLanes <= n_in; i += kLanes) {
    const v4f xv = load4(x + i);
    const v4f x0 = __builtin_shufflevector(xv, xv, 0, 0, 0, 0);
    const v4f x1 = __builtin_shufflevector(xv, xv, 1, 1, 1, 1);
    const v4f x2 = __builtin_shufflevector(xv, xv, 2, 2, 2, 2);
    const v4f x3 = __builtin_shufflevector(xv, xv, 3, 3, 3, 3);
#pragma GCC unroll 8
    for (std::size_t j = 0; j < NV; ++j) {
      const std::size_t* rj = row + kLanes * j;
      const v4f r0 = load4(w + rj[0] * n_in + i), r1 = load4(w + rj[1] * n_in + i);
      const v4f r2 = load4(w + rj[2] * n_in + i), r3 = load4(w + rj[3] * n_in + i);
      const v4f t0 = __builtin_shufflevector(r0, r1, 0, 4, 1, 5);
      const v4f t1 = __builtin_shufflevector(r0, r1, 2, 6, 3, 7);
      const v4f t2 = __builtin_shufflevector(r2, r3, 0, 4, 1, 5);
      const v4f t3 = __builtin_shufflevector(r2, r3, 2, 6, 3, 7);
      acc[j] += __builtin_shufflevector(t0, t2, 0, 1, 4, 5) * x0;
      acc[j] += __builtin_shufflevector(t0, t2, 2, 3, 6, 7) * x1;
      acc[j] += __builtin_shufflevector(t1, t3, 0, 1, 4, 5) * x2;
      acc[j] += __builtin_shufflevector(t1, t3, 2, 3, 6, 7) * x3;
    }
  }
  for (; i < n_in; ++i) {
#pragma GCC unroll 8
    for (std::size_t j = 0; j < NV; ++j) {
      const std::size_t* rj = row + kLanes * j;
      const v4f col{w[rj[0] * n_in + i], w[rj[1] * n_in + i], w[rj[2] * n_in + i],
                    w[rj[3] * n_in + i]};
      acc[j] += col * x[i];
    }
  }
  for (std::size_t r = 0; r < rows; ++r) y[r] = acc[r / kLanes][r % kLanes];
}

// One sample of Linear: outputs in blocks of 16, the rest in blocks of 4.
void linear_row(const float* x, const float* w, const float* bias, std::size_t n_in,
                std::size_t n_out, float* y) {
  constexpr std::size_t kBlock = 4 * kLanes;
  std::size_t o = 0;
  for (; o + kBlock <= n_out; o += kBlock) {
    linear_vectors<4>(x, w + o * n_in, bias + o, n_in, kBlock, y + o);
  }
  for (; o < n_out; o += kLanes) {
    linear_vectors<1>(x, w + o * n_in, bias + o, n_in, std::min(kLanes, n_out - o), y + o);
  }
}
}  // namespace

// ---------------------------------------------------------------- Conv1D ---

Conv1D::Conv1D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
               Rng& rng)
    : c_in_(in_channels),
      c_out_(out_channels),
      k_(kernel),
      w_(out_channels * in_channels * kernel),
      b_(out_channels, 0.0f),
      gw_(w_.size(), 0.0f),
      gb_(b_.size(), 0.0f) {
  check(kernel % 2 == 1, "Conv1D uses odd kernels with 'same' padding");
  kaiming_uniform(w_, c_in_ * k_, rng);
}

Tensor Conv1D::forward(const Tensor& x) {
  Tensor y = infer(x);
  cached_input_ = x;
  return y;
}

Tensor Conv1D::infer(const Tensor& x) const {
  check(x.rank() == 3 && x.dim(1) == c_in_, "Conv1D input must be (B, C_in, L)");
  const std::size_t B = x.dim(0), L = x.dim(2), pad = k_ / 2;
  check(L > pad, "Conv1D input length must exceed half the kernel width");
  const ConvShape s{c_in_, k_, L};
  // A row with room for a vector of interior positions gets the vector
  // kernel there and the column kernel for its 2 * pad edge columns; a
  // shorter row is all columns.
  const bool interior = L >= 2 * pad + kLanes;
  Tensor y({B, c_out_, L});
  for (std::size_t b = 0; b < B; ++b) {
    const float* xb = x.data() + b * c_in_ * L;
    for (std::size_t co = 0; co < c_out_; co += kLanes) {
      const std::size_t rows = std::min(kLanes, c_out_ - co);
      const float* w = w_.data() + co * c_in_ * k_;
      float* yc = y.data() + (b * c_out_ + co) * L;
      if (!interior) {
        for (std::size_t l = 0; l < L; ++l) conv_column(xb, w, b_.data() + co, rows, s, l, yc);
        continue;
      }
      for (std::size_t r = 0; r < rows; ++r) {
        conv_interior(xb, w + r * c_in_ * k_, b_[co + r], s, yc + r * L);
      }
      for (std::size_t e = 0; e < pad; ++e) {
        conv_column(xb, w, b_.data() + co, rows, s, e, yc);
        conv_column(xb, w, b_.data() + co, rows, s, L - 1 - e, yc);
      }
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

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng& rng)
    : n_in_(in_features),
      n_out_(out_features),
      w_(out_features * in_features),
      b_(out_features, 0.0f),
      gw_(w_.size(), 0.0f),
      gb_(b_.size(), 0.0f) {
  kaiming_uniform(w_, n_in_, rng);
}

Tensor Linear::forward(const Tensor& x) {
  Tensor y = infer(x);
  cached_input_ = x;
  return y;
}

Tensor Linear::infer(const Tensor& x) const {
  check(x.rank() == 2 && x.dim(1) == n_in_, "Linear input must be (B, N_in)");
  const std::size_t B = x.dim(0);
  Tensor y({B, n_out_});
  for (std::size_t b = 0; b < B; ++b) {
    linear_row(x.data() + b * n_in_, w_.data(), b_.data(), n_in_, n_out_,
               y.data() + b * n_out_);
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
  relu_inplace(y);
  return y;
}

void relu_inplace(Tensor& t) {
  for (auto& v : t.flat()) v = v > 0.0f ? v : 0.0f;
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
