#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.hpp"

namespace avgpipe::tensor {

namespace {

/// Rows = product of leading dims, cols = last dim.
void rows_cols(const Tensor& t, std::size_t& rows, std::size_t& cols) {
  AVGPIPE_CHECK(t.ndim() >= 1, "rows_cols needs >= 1-D tensor");
  cols = t.shape().back();
  rows = cols == 0 ? 0 : t.numel() / cols;
}

using detail::VarData;

/// In-place ops overwrite the value tensor of an existing op output. A
/// grad-requiring leaf is a parameter; mutating it would corrupt training
/// state, so reject that outright. (Producers whose backward reads their own
/// output value — activations, softmax — must not feed in-place ops either;
/// the call sites in nn/ only apply them to matmul/add outputs.)
void check_inplace_ok(const Variable& x, const char* op) {
  AVGPIPE_CHECK(!x.requires_grad() || x.data()->backward_fn != nullptr,
                op << ": in-place op on a grad-requiring leaf (parameter)");
}

}  // namespace

// -- raw GEMM -----------------------------------------------------------------

void gemm(const Scalar* a, const Scalar* b, Scalar* c, std::size_t m,
          std::size_t n, std::size_t k, bool trans_a, bool trans_b,
          bool accumulate, const GemmOpts& opts) {
  // All matmul-family ops (linear, LSTM gates, attention) route through this
  // dispatcher, so counting here covers the pipeline compute path. Small
  // problems take gemm_reference, whose bits are the plain loop's; the rest
  // take the packed FMA kernel.
  detail::add_thread_flops(2ull * m * n * k);
  if (m * n * k < kGemmBlockedThreshold) {
    gemm_reference(a, b, c, m, n, k, trans_a, trans_b, accumulate, opts);
  } else {
    gemm_blocked(a, b, c, m, n, k, trans_a, trans_b, accumulate, opts);
  }
}

// -- elementwise --------------------------------------------------------------

Variable add(const Variable& a, const Variable& b) {
  AVGPIPE_CHECK(a.value().numel() == b.value().numel(),
                "add: numel mismatch " << shape_to_string(a.shape()) << " vs "
                                       << shape_to_string(b.shape()));
  Tensor out = Tensor::uninitialized(a.shape());
  const auto av = a.value().data();
  const auto bv = b.value().data();
  auto ov = out.data();
  for (std::size_t i = 0; i < ov.size(); ++i) ov[i] = av[i] + bv[i];
  auto pa = a.data();
  auto pb = b.data();
  return Variable::make_op(std::move(out), {a, b}, [pa, pb](VarData& o) {
    if (pa->requires_grad) pa->accumulate_grad(o.grad);
    if (pb->requires_grad) pb->accumulate_grad(o.grad);
  });
}

Variable sub(const Variable& a, const Variable& b) {
  AVGPIPE_CHECK(a.value().numel() == b.value().numel(), "sub: numel mismatch");
  Tensor out = Tensor::uninitialized(a.shape());
  const auto av = a.value().data();
  const auto bv = b.value().data();
  auto ov = out.data();
  for (std::size_t i = 0; i < ov.size(); ++i) ov[i] = av[i] - bv[i];
  auto pa = a.data();
  auto pb = b.data();
  return Variable::make_op(std::move(out), {a, b}, [pa, pb](VarData& o) {
    if (pa->requires_grad) pa->accumulate_grad(o.grad);
    if (pb->requires_grad) {
      Tensor g = Tensor::uninitialized(pb->value.shape());
      auto gv = g.data();
      const auto og = o.grad.data();
      for (std::size_t i = 0; i < gv.size(); ++i) gv[i] = -og[i];
      pb->accumulate_grad(g);
    }
  });
}

Variable mul(const Variable& a, const Variable& b) {
  AVGPIPE_CHECK(a.value().numel() == b.value().numel(), "mul: numel mismatch");
  Tensor out = Tensor::uninitialized(a.shape());
  const auto av = a.value().data();
  const auto bv = b.value().data();
  auto ov = out.data();
  for (std::size_t i = 0; i < ov.size(); ++i) ov[i] = av[i] * bv[i];
  auto pa = a.data();
  auto pb = b.data();
  return Variable::make_op(std::move(out), {a, b}, [pa, pb](VarData& o) {
    const auto g = o.grad.data();
    if (pa->requires_grad) {
      Tensor ga = Tensor::uninitialized(pa->value.shape());
      auto gav = ga.data();
      const auto bv2 = pb->value.data();
      for (std::size_t i = 0; i < gav.size(); ++i) gav[i] = g[i] * bv2[i];
      pa->accumulate_grad(ga);
    }
    if (pb->requires_grad) {
      Tensor gb = Tensor::uninitialized(pb->value.shape());
      auto gbv = gb.data();
      const auto av2 = pa->value.data();
      for (std::size_t i = 0; i < gbv.size(); ++i) gbv[i] = g[i] * av2[i];
      pb->accumulate_grad(gb);
    }
  });
}

Variable scale(const Variable& a, Scalar s) {
  Tensor out = Tensor::uninitialized(a.shape());
  const auto av = a.value().data();
  auto ov = out.data();
  for (std::size_t i = 0; i < ov.size(); ++i) ov[i] = av[i] * s;
  auto pa = a.data();
  return Variable::make_op(std::move(out), {a}, [pa, s](VarData& o) {
    Tensor g = Tensor::uninitialized(pa->value.shape());
    auto gv = g.data();
    const auto og = o.grad.data();
    for (std::size_t i = 0; i < gv.size(); ++i) gv[i] = og[i] * s;
    pa->accumulate_grad(g);
  });
}

namespace {
Variable add_bias_impl(const Variable& x, const Variable& bias, Tensor out) {
  std::size_t rows = 0, cols = 0;
  rows_cols(x.value(), rows, cols);
  AVGPIPE_CHECK(bias.value().numel() == cols,
                "add_bias: bias numel " << bias.value().numel()
                                        << " != last dim " << cols);
  const auto xv = x.value().data();
  auto ov = out.data();
  const auto bv = bias.value().data();
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      ov[r * cols + c] = xv[r * cols + c] + bv[c];
    }
  }
  auto px = x.data();
  auto pb = bias.data();
  return Variable::make_op(
      std::move(out), {x, bias}, [px, pb, rows, cols](VarData& o) {
        if (px->requires_grad) px->accumulate_grad(o.grad);
        if (pb->requires_grad) {
          Tensor gb(pb->value.shape());
          auto gbv = gb.data();
          const auto g = o.grad.data();
          for (std::size_t r = 0; r < rows; ++r) {
            for (std::size_t c = 0; c < cols; ++c) gbv[c] += g[r * cols + c];
          }
          pb->accumulate_grad(gb);
        }
      });
}
}  // namespace

Variable add_bias(const Variable& x, const Variable& bias) {
  return add_bias_impl(x, bias, Tensor::uninitialized(x.shape()));
}

Variable add_bias_(const Variable& x, const Variable& bias) {
  check_inplace_ok(x, "add_bias_");
  return add_bias_impl(x, bias, x.value());  // alias: bias added in place
}

// -- activations --------------------------------------------------------------

Variable relu(const Variable& x) {
  Tensor out = Tensor::uninitialized(x.shape());
  const auto xv = x.value().data();
  auto ov = out.data();
  for (std::size_t i = 0; i < ov.size(); ++i) ov[i] = xv[i] > 0.0 ? xv[i] : 0.0;
  auto px = x.data();
  Tensor saved = out;  // alias; safe because ops never mutate values
  return Variable::make_op(std::move(out), {x}, [px, saved](VarData& o) {
    Tensor g = Tensor::uninitialized(px->value.shape());
    auto gv = g.data();
    const auto og = o.grad.data();
    const auto yv = saved.data();
    for (std::size_t i = 0; i < gv.size(); ++i) {
      gv[i] = og[i] * (yv[i] > 0.0 ? 1.0 : 0.0);
    }
    px->accumulate_grad(g);
  });
}

Variable tanh_op(const Variable& x) {
  Tensor out = Tensor::uninitialized(x.shape());
  vec_tanh(x.value().data().data(), out.data().data(), out.numel());
  auto px = x.data();
  Tensor saved = out;  // alias
  return Variable::make_op(std::move(out), {x}, [px, saved](VarData& o) {
    Tensor g = Tensor::uninitialized(px->value.shape());
    auto gv = g.data();
    const auto og = o.grad.data();
    const auto yv = saved.data();
    for (std::size_t i = 0; i < gv.size(); ++i) {
      gv[i] = og[i] * (1.0 - yv[i] * yv[i]);
    }
    px->accumulate_grad(g);
  });
}

Variable sigmoid(const Variable& x) {
  Tensor out = Tensor::uninitialized(x.shape());
  const auto xv = x.value().data();
  auto ov = out.data();
  for (std::size_t i = 0; i < ov.size(); ++i) ov[i] = -xv[i];
  vec_exp(ov.data(), ov.data(), ov.size());
  for (std::size_t i = 0; i < ov.size(); ++i) ov[i] = 1.0 / (1.0 + ov[i]);
  auto px = x.data();
  Tensor saved = out;  // alias
  return Variable::make_op(std::move(out), {x}, [px, saved](VarData& o) {
    Tensor g = Tensor::uninitialized(px->value.shape());
    auto gv = g.data();
    const auto og = o.grad.data();
    const auto yv = saved.data();
    for (std::size_t i = 0; i < gv.size(); ++i) {
      gv[i] = og[i] * (yv[i] * (1.0 - yv[i]));
    }
    px->accumulate_grad(g);
  });
}

namespace {
// GELU, tanh approximation: 0.5 x (1 + tanh(u)) with
// u = sqrt(2/pi) (x + 0.044715 x^3).
constexpr Scalar kGeluC = 0.7978845608028654;  // sqrt(2/pi)

/// Writes u(x[i]) into `t`, then tanh(u) over the span.
void gelu_tanh(std::span<const Scalar> x, std::span<Scalar> t) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    const Scalar v = x[i];
    t[i] = kGeluC * (v + 0.044715 * v * v * v);
  }
  vec_tanh(t.data(), t.data(), t.size());
}
}  // namespace

Variable gelu(const Variable& x) {
  // The derivative needs the input value, so there is no in-place variant.
  // Backward recomputes tanh(u) instead of keeping it alive until then.
  Tensor out = Tensor::uninitialized(x.shape());
  const auto xv = x.value().data();
  auto ov = out.data();
  gelu_tanh(xv, ov);
  for (std::size_t i = 0; i < ov.size(); ++i) {
    ov[i] = 0.5 * xv[i] * (1.0 + ov[i]);
  }
  auto px = x.data();
  return Variable::make_op(std::move(out), {x}, [px](VarData& o) {
    Tensor g = Tensor::uninitialized(px->value.shape());
    auto gv = g.data();
    const auto og = o.grad.data();
    const auto xv2 = px->value.data();
    gelu_tanh(xv2, gv);
    for (std::size_t i = 0; i < gv.size(); ++i) {
      const Scalar v = xv2[i];
      const Scalar t = gv[i];
      const Scalar du = kGeluC * (1.0 + 3.0 * 0.044715 * v * v);
      gv[i] = og[i] * (0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * du);
    }
    px->accumulate_grad(g);
  });
}

// -- linear algebra -----------------------------------------------------------

Variable matmul(const Variable& a, const Variable& b) {
  AVGPIPE_CHECK(a.value().ndim() == 2 && b.value().ndim() == 2,
                "matmul expects 2-D inputs, got "
                    << shape_to_string(a.shape()) << " x "
                    << shape_to_string(b.shape()));
  return linear(a, b, Variable());
}

Variable linear(const Variable& x, const Variable& weight,
                const Variable& bias) {
  AVGPIPE_CHECK(weight.value().ndim() == 2, "linear weight must be 2-D");
  const std::size_t in = weight.value().dim(0), out_cols = weight.value().dim(1);
  std::size_t rows = 0, cols = 0;
  rows_cols(x.value(), rows, cols);
  AVGPIPE_CHECK(cols == in, "linear: input last dim " << cols << " != " << in);
  const bool has_bias = bias.defined();
  AVGPIPE_CHECK(!has_bias || bias.value().numel() == out_cols,
                "linear: bias numel " << bias.value().numel() << " != "
                                      << out_cols);
  Shape out_shape = x.shape();
  out_shape.back() = out_cols;
  Tensor out = Tensor::uninitialized(std::move(out_shape));
  auto ov = out.data();
  gemm(x.value().data().data(), weight.value().data().data(), ov.data(), rows,
       out_cols, in, false, false, false);
  if (has_bias) {
    const auto bv = bias.value().data();
    for (std::size_t r = 0; r < rows; ++r) {
      Scalar* orow = ov.data() + r * out_cols;
      for (std::size_t c = 0; c < out_cols; ++c) orow[c] += bv[c];
    }
  }
  auto px = x.data();
  auto pw = weight.data();
  auto pb = has_bias ? bias.data() : nullptr;
  std::vector<Variable> parents{x, weight};
  if (has_bias) parents.push_back(bias);
  return Variable::make_op(
      std::move(out), std::move(parents),
      [px, pw, pb, rows, in, out_cols](VarData& o) {
        const Scalar* g = o.grad.data().data();
        if (pb && pb->requires_grad) {
          Tensor gb(pb->value.shape());  // zeroed: column sums of dY
          auto gbv = gb.data();
          for (std::size_t r = 0; r < rows; ++r) {
            for (std::size_t c = 0; c < out_cols; ++c) {
              gbv[c] += g[r * out_cols + c];
            }
          }
          pb->accumulate_grad(gb);
        }
        if (px->requires_grad) {
          Tensor gx = Tensor::uninitialized(px->value.shape());  // dY W^T
          gemm(g, pw->value.data().data(), gx.data().data(), rows, in,
               out_cols, false, true, false);
          px->accumulate_grad(gx);
        }
        if (pw->requires_grad) {
          Tensor gw = Tensor::uninitialized(pw->value.shape());  // X^T dY
          gemm(px->value.data().data(), g, gw.data().data(), in, out_cols,
               rows, true, false, false);
          pw->accumulate_grad(gw);
        }
      });
}

// -- shape --------------------------------------------------------------------

Variable reshape(const Variable& x, Shape shape) {
  Tensor out = x.value().reshape(shape);
  auto px = x.data();
  return Variable::make_op(std::move(out), {x}, [px](VarData& o) {
    px->accumulate_grad(o.grad.reshape(px->value.shape()));
  });
}

Variable slice_cols(const Variable& x, std::size_t lo, std::size_t hi) {
  AVGPIPE_CHECK(x.value().ndim() == 2, "slice_cols expects a 2-D tensor");
  const std::size_t rows = x.value().dim(0), cols = x.value().dim(1);
  AVGPIPE_CHECK(lo < hi && hi <= cols,
                "slice_cols range [" << lo << "," << hi << ") out of " << cols);
  const std::size_t w = hi - lo;
  Tensor out = Tensor::uninitialized({rows, w});
  const auto xv = x.value().data();
  auto ov = out.data();
  for (std::size_t r = 0; r < rows; ++r) {
    std::copy(xv.data() + r * cols + lo, xv.data() + r * cols + hi,
              ov.data() + r * w);
  }
  auto px = x.data();
  return Variable::make_op(
      std::move(out), {x}, [px, lo, rows, cols, w](VarData& o) {
        Tensor g({rows, cols});  // zeroed: only [lo, lo+w) columns written
        auto gv = g.data();
        const auto og = o.grad.data();
        for (std::size_t r = 0; r < rows; ++r) {
          std::copy(og.data() + r * w, og.data() + (r + 1) * w,
                    gv.data() + r * cols + lo);
        }
        px->accumulate_grad(g);
      });
}

Variable slice_rows(const Variable& x, std::size_t lo, std::size_t hi) {
  std::size_t rows = 0, cols = 0;
  rows_cols(x.value(), rows, cols);
  AVGPIPE_CHECK(lo < hi && hi <= rows,
                "slice_rows range [" << lo << "," << hi << ") out of " << rows);
  const std::size_t n = hi - lo;
  Tensor out = Tensor::uninitialized({n, cols});
  const auto xv = x.value().data();
  std::copy(xv.data() + lo * cols, xv.data() + hi * cols, out.data().data());
  auto px = x.data();
  return Variable::make_op(
      std::move(out), {x}, [px, lo, rows, cols, n](VarData& o) {
        Tensor g({rows, cols});  // zeroed: only rows [lo, lo+n) written
        const auto og = o.grad.data();
        std::copy(og.data(), og.data() + n * cols,
                  g.data().data() + lo * cols);
        px->accumulate_grad(g);
      });
}

Variable concat_rows(const std::vector<Variable>& xs) {
  AVGPIPE_CHECK(!xs.empty(), "concat_rows of nothing");
  std::size_t cols = xs.front().value().shape().back();
  std::size_t total_rows = 0;
  for (const auto& x : xs) {
    AVGPIPE_CHECK(x.value().shape().back() == cols,
                  "concat_rows column mismatch");
    total_rows += x.value().numel() / cols;
  }
  Tensor out = Tensor::uninitialized({total_rows, cols});
  auto ov = out.data();
  std::size_t offset = 0;
  std::vector<std::size_t> offsets;
  for (const auto& x : xs) {
    offsets.push_back(offset);
    const auto xv = x.value().data();
    std::copy(xv.begin(), xv.end(), ov.begin() + offset);
    offset += xv.size();
  }
  std::vector<std::shared_ptr<VarData>> parents;
  for (const auto& x : xs) parents.push_back(x.data());
  return Variable::make_op(
      std::move(out), xs, [parents, offsets](VarData& o) {
        const auto og = o.grad.data();
        for (std::size_t i = 0; i < parents.size(); ++i) {
          if (!parents[i]->requires_grad) continue;
          Tensor g = Tensor::uninitialized(parents[i]->value.shape());
          auto gv = g.data();
          std::copy(og.begin() + offsets[i], og.begin() + offsets[i] + gv.size(),
                    gv.begin());
          parents[i]->accumulate_grad(g);
        }
      });
}

// -- normalisation ------------------------------------------------------------

namespace {
/// out = the softmax of each row of scale*x, both [rows, cols] row-major;
/// `out` may equal `x`. The max shift runs per row, the exponentials in one
/// span call over the whole buffer. A -inf entry gives exactly 0; a NaN
/// anywhere in a row makes the whole row NaN.
void softmax_rows_into(const Scalar* x, Scalar* out, std::size_t rows,
                       std::size_t cols, Scalar scale = 1.0) {
  for (std::size_t r = 0; r < rows; ++r) {
    const Scalar* row = x + r * cols;
    if (scale != 1.0) {
      Scalar* srow = out + r * cols;
      for (std::size_t c = 0; c < cols; ++c) srow[c] = row[c] * scale;
      row = srow;
    }
    Scalar mx = row[0];
    for (std::size_t c = 1; c < cols; ++c) mx = std::max(mx, row[c]);
    for (std::size_t c = 0; c < cols; ++c) out[r * cols + c] = row[c] - mx;
  }
  vec_exp(out, out, rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    Scalar* orow = out + r * cols;
    Scalar z = 0.0;
    for (std::size_t c = 0; c < cols; ++c) z += orow[c];
    const Scalar inv_z = 1.0 / z;
    for (std::size_t c = 0; c < cols; ++c) orow[c] *= inv_z;
  }
}

/// g = the softmax input gradient for output y and output gradient dy, all
/// [rows, cols]; `g` may equal `dy`. Fused: one sweep stores t = y*dy into g
/// while reducing dot(y, dy), one sweep finalises g = t - y*dot (no
/// recomputed products).
void softmax_rows_backward(const Scalar* dy, const Scalar* y, Scalar* g,
                           std::size_t rows, std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    Scalar dotp = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      const Scalar t = dy[r * cols + c] * y[r * cols + c];
      g[r * cols + c] = t;
      dotp += t;
    }
    for (std::size_t c = 0; c < cols; ++c) {
      g[r * cols + c] -= y[r * cols + c] * dotp;
    }
  }
}
}  // namespace

Variable softmax_rows(const Variable& x) {
  std::size_t rows = 0, cols = 0;
  rows_cols(x.value(), rows, cols);
  Tensor out = Tensor::uninitialized(x.shape());
  softmax_rows_into(x.value().data().data(), out.data().data(), rows, cols);
  auto px = x.data();
  Tensor saved = out;  // alias
  return Variable::make_op(
      std::move(out), {x}, [px, saved, rows, cols](VarData& o) {
        Tensor g = Tensor::uninitialized(px->value.shape());
        auto gv = g.data();
        const auto og = o.grad.data();
        const auto yv = saved.data();
        softmax_rows_backward(og.data(), yv.data(), gv.data(), rows, cols);
        px->accumulate_grad(g);
      });
}

Variable layer_norm(const Variable& x, const Variable& gamma,
                    const Variable& beta, Scalar eps) {
  std::size_t rows = 0, cols = 0;
  rows_cols(x.value(), rows, cols);
  AVGPIPE_CHECK(gamma.value().numel() == cols && beta.value().numel() == cols,
                "layer_norm affine params must match last dim " << cols);
  Tensor out = Tensor::uninitialized(x.shape());
  Tensor xhat = Tensor::uninitialized({rows, cols});
  Tensor inv_std = Tensor::uninitialized({rows});
  const auto xv = x.value().data();
  auto ov = out.data();
  auto hv = xhat.data();
  auto sv = inv_std.data();
  const auto gv = gamma.value().data();
  const auto bv = beta.value().data();
  const Scalar inv_cols = 1.0 / static_cast<Scalar>(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    // Single fused sweep for both moments: var = E[x^2] - mu^2.
    Scalar sum = 0.0, sumsq = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      const Scalar v = xv[r * cols + c];
      sum += v;
      sumsq += v * v;
    }
    const Scalar mu = sum * inv_cols;
    const Scalar var = std::max(sumsq * inv_cols - mu * mu, Scalar(0));
    const Scalar is = 1.0 / std::sqrt(var + eps);
    sv[r] = is;
    for (std::size_t c = 0; c < cols; ++c) {
      const Scalar h = (xv[r * cols + c] - mu) * is;
      hv[r * cols + c] = h;
      ov[r * cols + c] = gv[c] * h + bv[c];
    }
  }
  auto px = x.data();
  auto pg = gamma.data();
  auto pb = beta.data();
  return Variable::make_op(
      std::move(out), {x, gamma, beta},
      [px, pg, pb, xhat, inv_std, rows, cols](VarData& o) {
        const auto og = o.grad.data();
        const auto hv2 = xhat.data();
        const auto sv2 = inv_std.data();
        const auto gv2 = pg->value.data();
        const bool need_x = px->requires_grad;
        const bool need_gamma = pg->requires_grad;
        const bool need_beta = pb->requires_grad;
        Tensor ggamma(need_gamma ? pg->value.shape() : Shape{0});  // zeroed
        Tensor gbeta(need_beta ? pb->value.shape() : Shape{0});    // zeroed
        Tensor gx = need_x ? Tensor::uninitialized(px->value.shape())
                           : Tensor();
        auto gg = ggamma.data();
        auto gb = gbeta.data();
        auto gxv = gx.data();
        const Scalar inv_n = 1.0 / static_cast<Scalar>(cols);
        // Fused: one sweep per row accumulates the gamma/beta reductions AND
        // the two x-grad row sums, stashing dy = og*gamma into gx so the
        // finalising sweep does not recompute it (2 sweeps total instead of
        // 2-3 per output).
        for (std::size_t r = 0; r < rows; ++r) {
          Scalar sum_dy = 0.0, sum_dyh = 0.0;
          for (std::size_t c = 0; c < cols; ++c) {
            const Scalar go = og[r * cols + c];
            const Scalar h = hv2[r * cols + c];
            if (need_gamma) gg[c] += go * h;
            if (need_beta) gb[c] += go;
            if (need_x) {
              const Scalar dy = go * gv2[c];
              sum_dy += dy;
              sum_dyh += dy * h;
              gxv[r * cols + c] = dy;
            }
          }
          if (need_x) {
            for (std::size_t c = 0; c < cols; ++c) {
              const Scalar dy = gxv[r * cols + c];
              gxv[r * cols + c] =
                  sv2[r] * (dy - inv_n * sum_dy -
                            hv2[r * cols + c] * inv_n * sum_dyh);
            }
          }
        }
        if (need_gamma) pg->accumulate_grad(ggamma);
        if (need_beta) pb->accumulate_grad(gbeta);
        if (need_x) px->accumulate_grad(gx);
      });
}

Tensor dropout_mask(Shape shape, double p, Rng& rng) {
  AVGPIPE_CHECK(p >= 0.0 && p < 1.0, "dropout p must be in [0,1), got " << p);
  const Scalar keep = 1.0 - p;
  Tensor mask = Tensor::uninitialized(std::move(shape));
  for (auto& m : mask.data()) m = rng.bernoulli(keep) ? 1.0 / keep : 0.0;
  return mask;
}

Variable dropout(const Variable& x, double p, Rng& rng, bool training) {
  AVGPIPE_CHECK(p >= 0.0 && p < 1.0, "dropout p must be in [0,1), got " << p);
  if (!training || p == 0.0) return x;
  Tensor mask = dropout_mask(x.shape(), p, rng);
  const auto mv = mask.data();
  Tensor out = Tensor::uninitialized(x.shape());
  const auto xv = x.value().data();
  auto ov = out.data();
  for (std::size_t i = 0; i < ov.size(); ++i) ov[i] = xv[i] * mv[i];
  auto px = x.data();
  return Variable::make_op(std::move(out), {x}, [px, mask](VarData& o) {
    Tensor g = Tensor::uninitialized(px->value.shape());
    auto gv = g.data();
    const auto og = o.grad.data();
    const auto mv2 = mask.data();
    for (std::size_t i = 0; i < gv.size(); ++i) gv[i] = og[i] * mv2[i];
    px->accumulate_grad(g);
  });
}

// -- attention ----------------------------------------------------------------

namespace {
/// The attention weights the context GEMM reads: the softmax output `y`
/// itself, or with a dropout mask its product with `mask`, written into
/// `scratch` (n elements each).
const Scalar* dropped_weights(const Scalar* y, const Scalar* mask,
                              Tensor& scratch, std::size_t n) {
  if (mask == nullptr) return y;
  Scalar* out = scratch.data().data();
  for (std::size_t i = 0; i < n; ++i) out[i] = y[i] * mask[i];
  return out;
}
}  // namespace

Variable multi_head_attention(const Variable& qkv, std::size_t heads, double p,
                              Rng& rng, bool training) {
  AVGPIPE_CHECK(qkv.value().ndim() == 3,
                "multi_head_attention expects [B,S,3D], got "
                    << shape_to_string(qkv.shape()));
  const std::size_t batch = qkv.value().dim(0), seq = qkv.value().dim(1);
  const std::size_t ld = qkv.value().dim(2);  // row stride of q, k and v
  AVGPIPE_CHECK(heads > 0 && ld % (3 * heads) == 0,
                "multi_head_attention: width " << ld << " is not 3 x " << heads
                                               << " heads");
  AVGPIPE_CHECK(p >= 0.0 && p < 1.0, "dropout p must be in [0,1), got " << p);
  const std::size_t d = ld / 3, dh = d / heads, tile = seq * seq;
  const Scalar scale = 1.0 / std::sqrt(static_cast<Scalar>(dh));
  const bool drop = training && p > 0.0;

  // probs holds each (batch, head)'s softmax weights for backward; the
  // dropped copy the context GEMM reads is rebuilt there from the mask.
  Tensor probs = Tensor::uninitialized({batch, heads, seq, seq});
  Tensor mask = drop ? dropout_mask({batch, heads, seq, seq}, p, rng) : Tensor();
  Tensor dropped = drop ? Tensor::uninitialized({seq, seq}) : Tensor();
  Tensor out = Tensor::uninitialized({batch, seq, d});
  const Scalar* x = qkv.value().data().data();
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t h = 0; h < heads; ++h) {
      const Scalar* q = x + b * seq * ld + h * dh;  // k = q + d, v = q + 2d
      const std::size_t t0 = (b * heads + h) * tile;
      Scalar* w = probs.data().data() + t0;
      gemm(q, q + d, w, seq, seq, dh, false, true, false,
           {.lda = ld, .ldb = ld});
      softmax_rows_into(w, w, seq, seq, scale);
      const Scalar* wd = dropped_weights(
          w, drop ? mask.data().data() + t0 : nullptr, dropped, tile);
      gemm(wd, q + 2 * d, out.data().data() + b * seq * d + h * dh, seq, dh,
           seq, false, false, false, {.ldb = ld, .ldc = d});
    }
  }

  auto px = qkv.data();
  return Variable::make_op(
      std::move(out), {qkv},
      [px, probs, mask, drop, batch, seq, heads, d, dh, ld, tile,
       scale](VarData& o) {
        const Scalar* x = px->value.data().data();
        const Scalar* go = o.grad.data().data();
        Tensor gqkv = Tensor::uninitialized(px->value.shape());
        Tensor gw = Tensor::uninitialized({seq, seq});
        Tensor dropped = drop ? Tensor::uninitialized({seq, seq}) : Tensor();
        Scalar* gs = gw.data().data();
        for (std::size_t b = 0; b < batch; ++b) {
          for (std::size_t h = 0; h < heads; ++h) {
            const std::size_t row0 = b * seq * ld + h * dh;
            const Scalar* q = x + row0;
            Scalar* gq = gqkv.data().data() + row0;
            const Scalar* gctx = go + b * seq * d + h * dh;
            const std::size_t t0 = (b * heads + h) * tile;
            const Scalar* y = probs.data().data() + t0;
            const Scalar* mk = drop ? mask.data().data() + t0 : nullptr;
            const Scalar* wd = dropped_weights(y, mk, dropped, tile);
            // dv = W^T dctx and dW = dctx v^T.
            gemm(wd, gctx, gq + 2 * d, seq, dh, seq, true, false, false,
                 {.ldb = d, .ldc = ld});
            gemm(gctx, q + 2 * d, gs, seq, seq, dh, false, true, false,
                 {.lda = d, .ldb = ld});
            // Back through dropout, softmax and the 1/sqrt(Dh) scale.
            if (mk != nullptr) {
              for (std::size_t i = 0; i < tile; ++i) gs[i] = gs[i] * mk[i];
            }
            softmax_rows_backward(gs, y, gs, seq, seq);
            for (std::size_t i = 0; i < tile; ++i) gs[i] = gs[i] * scale;
            // dq = dS k and dk = dS^T q.
            gemm(gs, q + d, gq, seq, dh, seq, false, false, false,
                 {.ldb = ld, .ldc = ld});
            gemm(gs, q, gq + d, seq, dh, seq, true, false, false,
                 {.ldb = ld, .ldc = ld});
          }
        }
        px->accumulate_grad(gqkv);
      });
}

// -- lookups ------------------------------------------------------------------

Variable embedding(const Variable& weight, const std::vector<int>& indices) {
  AVGPIPE_CHECK(weight.value().ndim() == 2, "embedding weight must be 2-D");
  const std::size_t v = weight.value().dim(0), d = weight.value().dim(1);
  Tensor out = Tensor::uninitialized({indices.size(), d});
  const auto wv = weight.value().data();
  auto ov = out.data();
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const auto idx = static_cast<std::size_t>(indices[i]);
    AVGPIPE_CHECK(indices[i] >= 0 && idx < v,
                  "embedding index " << indices[i] << " out of vocab " << v);
    std::copy(wv.data() + idx * d, wv.data() + (idx + 1) * d,
              ov.data() + i * d);
  }
  auto pw = weight.data();
  return Variable::make_op(std::move(out), {weight}, [pw, indices, d](VarData& o) {
    Tensor g(pw->value.shape());  // zeroed: scatter-add target
    auto gv = g.data();
    const auto og = o.grad.data();
    for (std::size_t i = 0; i < indices.size(); ++i) {
      const auto idx = static_cast<std::size_t>(indices[i]);
      for (std::size_t c = 0; c < d; ++c) gv[idx * d + c] += og[i * d + c];
    }
    pw->accumulate_grad(g);
  });
}

// -- reductions / losses -------------------------------------------------------

Variable sum_all(const Variable& x) {
  Tensor out({1});
  out[0] = x.value().sum();
  auto px = x.data();
  return Variable::make_op(std::move(out), {x}, [px](VarData& o) {
    Tensor g = Tensor::full(px->value.shape(), o.grad[0]);
    px->accumulate_grad(g);
  });
}

Variable mean_all(const Variable& x) {
  return scale(sum_all(x), 1.0 / static_cast<Scalar>(x.value().numel()));
}

Variable softmax_cross_entropy(const Variable& logits,
                               const std::vector<int>& targets) {
  AVGPIPE_CHECK(logits.value().ndim() == 2, "logits must be [N,C]");
  const std::size_t n = logits.value().dim(0), c = logits.value().dim(1);
  AVGPIPE_CHECK(targets.size() == n,
                "targets size " << targets.size() << " != rows " << n);
  Tensor probs = Tensor::uninitialized({n, c});
  auto pv = probs.data();
  softmax_rows_into(logits.value().data().data(), pv.data(), n, c);
  Scalar loss = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    const auto t = static_cast<std::size_t>(targets[r]);
    AVGPIPE_CHECK(targets[r] >= 0 && t < c,
                  "target " << targets[r] << " out of range " << c);
    loss -= std::log(std::max(pv[r * c + t], Scalar(1e-12)));
  }
  Tensor out({1});
  out[0] = loss / static_cast<Scalar>(n);
  auto pl = logits.data();
  return Variable::make_op(
      std::move(out), {logits}, [pl, probs, targets, n, c](VarData& o) {
        Tensor g = Tensor::uninitialized({n, c});
        auto gv = g.data();
        const auto pv2 = probs.data();
        const Scalar s = o.grad[0] / static_cast<Scalar>(n);
        for (std::size_t r = 0; r < n; ++r) {
          for (std::size_t j = 0; j < c; ++j) {
            gv[r * c + j] = s * pv2[r * c + j];
          }
          gv[r * c + static_cast<std::size_t>(targets[r])] -= s;
        }
        pl->accumulate_grad(g);
      });
}

Variable mse_loss(const Variable& pred, const Tensor& target) {
  AVGPIPE_CHECK(pred.value().numel() == target.numel(),
                "mse_loss numel mismatch");
  const std::size_t n = pred.value().numel();
  Tensor out({1});
  const auto pv = pred.value().data();
  const auto tv = target.data();
  Scalar loss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Scalar d = pv[i] - tv[i];
    loss += d * d;
  }
  out[0] = loss / static_cast<Scalar>(n);
  auto pp = pred.data();
  return Variable::make_op(std::move(out), {pred}, [pp, target, n](VarData& o) {
    Tensor g = Tensor::uninitialized(pp->value.shape());
    auto gv = g.data();
    const auto pv2 = pp->value.data();
    const auto tv2 = target.data();
    const Scalar s = 2.0 * o.grad[0] / static_cast<Scalar>(n);
    for (std::size_t i = 0; i < n; ++i) gv[i] = s * (pv2[i] - tv2[i]);
    pp->accumulate_grad(g);
  });
}

// -- detached helpers ----------------------------------------------------------

std::vector<int> argmax_rows(const Tensor& logits) {
  AVGPIPE_CHECK(logits.ndim() == 2, "argmax_rows expects [N,C]");
  const std::size_t n = logits.dim(0), c = logits.dim(1);
  std::vector<int> result(n, 0);
  const auto lv = logits.data();
  for (std::size_t r = 0; r < n; ++r) {
    std::size_t best = 0;
    for (std::size_t j = 1; j < c; ++j) {
      if (lv[r * c + j] > lv[r * c + best]) best = j;
    }
    result[r] = static_cast<int>(best);
  }
  return result;
}

double accuracy(const Tensor& logits, const std::vector<int>& targets) {
  const auto pred = argmax_rows(logits);
  AVGPIPE_CHECK(pred.size() == targets.size(), "accuracy size mismatch");
  if (pred.empty()) return 0.0;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    if (pred[i] == targets[i]) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(pred.size());
}

}  // namespace avgpipe::tensor
