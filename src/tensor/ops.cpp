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
          bool accumulate) {
  // All matmul-family ops (linear, LSTM gates, attention) route through this
  // dispatcher, so counting here covers the pipeline compute path.
  detail::add_thread_flops(2ull * m * n * k);
  if (m * n * k < kGemmBlockedThreshold) {
    gemm_reference(a, b, c, m, n, k, trans_a, trans_b, accumulate);
  } else {
    gemm_blocked(a, b, c, m, n, k, trans_a, trans_b, accumulate);
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

Variable neg(const Variable& a) { return scale(a, -1.0); }

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

Variable scale_(const Variable& a, Scalar s) {
  check_inplace_ok(a, "scale_");
  Tensor out = a.value();  // alias: scaled in place
  auto ov = out.data();
  for (std::size_t i = 0; i < ov.size(); ++i) ov[i] *= s;
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

namespace {
/// The output tensor of an activation: a fresh buffer, or x's own value when
/// the op runs in place (then backward must not read the input value).
Tensor activation_out(const Variable& x, bool in_place, const char* op) {
  if (!in_place) return Tensor::uninitialized(x.shape());
  check_inplace_ok(x, op);
  return x.value();  // alias: overwritten in place
}

Variable relu_impl(const Variable& x, bool in_place) {
  Tensor out = activation_out(x, in_place, "relu_");
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

Variable tanh_impl(const Variable& x, bool in_place) {
  Tensor out = activation_out(x, in_place, "tanh_op_");
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

Variable sigmoid_impl(const Variable& x, bool in_place) {
  Tensor out = activation_out(x, in_place, "sigmoid_");
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

Variable relu(const Variable& x) { return relu_impl(x, false); }
Variable relu_(const Variable& x) { return relu_impl(x, true); }
Variable tanh_op(const Variable& x) { return tanh_impl(x, false); }
Variable tanh_op_(const Variable& x) { return tanh_impl(x, true); }
Variable sigmoid(const Variable& x) { return sigmoid_impl(x, false); }
Variable sigmoid_(const Variable& x) { return sigmoid_impl(x, true); }

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
  const std::size_t m = a.value().dim(0), k = a.value().dim(1);
  const std::size_t k2 = b.value().dim(0), n = b.value().dim(1);
  AVGPIPE_CHECK(k == k2, "matmul inner dims mismatch: " << k << " vs " << k2);
  Tensor out = Tensor::uninitialized({m, n});
  gemm(a.value().data().data(), b.value().data().data(), out.data().data(), m,
       n, k, false, false, false);
  auto pa = a.data();
  auto pb = b.data();
  return Variable::make_op(
      std::move(out), {a, b}, [pa, pb, m, n, k](VarData& o) {
        const Scalar* g = o.grad.data().data();
        if (pa->requires_grad) {
          Tensor ga = Tensor::uninitialized({m, k});  // dA = dC * B^T
          gemm(g, pb->value.data().data(), ga.data().data(), m, k, n, false,
               true, false);
          pa->accumulate_grad(ga);
        }
        if (pb->requires_grad) {
          Tensor gb = Tensor::uninitialized({k, n});  // dB = A^T * dC
          gemm(pa->value.data().data(), g, gb.data().data(), k, n, m, true,
               false, false);
          pb->accumulate_grad(gb);
        }
      });
}

Variable bmm(const Variable& a, const Variable& b) {
  AVGPIPE_CHECK(a.value().ndim() == 3 && b.value().ndim() == 3,
                "bmm expects 3-D inputs");
  const std::size_t bs = a.value().dim(0);
  const std::size_t m = a.value().dim(1), k = a.value().dim(2);
  const std::size_t n = b.value().dim(2);
  AVGPIPE_CHECK(b.value().dim(0) == bs && b.value().dim(1) == k,
                "bmm shape mismatch: " << shape_to_string(a.shape()) << " x "
                                       << shape_to_string(b.shape()));
  Tensor out = Tensor::uninitialized({bs, m, n});
  for (std::size_t i = 0; i < bs; ++i) {
    gemm(a.value().data().data() + i * m * k,
         b.value().data().data() + i * k * n, out.data().data() + i * m * n, m,
         n, k, false, false, false);
  }
  auto pa = a.data();
  auto pb = b.data();
  return Variable::make_op(
      std::move(out), {a, b}, [pa, pb, bs, m, n, k](VarData& o) {
        const Scalar* g = o.grad.data().data();
        if (pa->requires_grad) {
          Tensor ga = Tensor::uninitialized({bs, m, k});
          for (std::size_t i = 0; i < bs; ++i) {
            gemm(g + i * m * n, pb->value.data().data() + i * k * n,
                 ga.data().data() + i * m * k, m, k, n, false, true, false);
          }
          pa->accumulate_grad(ga);
        }
        if (pb->requires_grad) {
          Tensor gb = Tensor::uninitialized({bs, k, n});
          for (std::size_t i = 0; i < bs; ++i) {
            gemm(pa->value.data().data() + i * m * k, g + i * m * n,
                 gb.data().data() + i * k * n, k, n, m, true, false, false);
          }
          pb->accumulate_grad(gb);
        }
      });
}

namespace {
Tensor transpose_last2_tensor(const Tensor& x) {
  const std::size_t nd = x.ndim();
  AVGPIPE_CHECK(nd >= 2, "transpose_last2 needs >= 2-D");
  const std::size_t r = x.shape()[nd - 2];
  const std::size_t c = x.shape()[nd - 1];
  const std::size_t batches = x.numel() / (r * c);
  Shape out_shape = x.shape();
  std::swap(out_shape[nd - 2], out_shape[nd - 1]);
  Tensor out = Tensor::uninitialized(std::move(out_shape));
  const auto xv = x.data();
  auto ov = out.data();
  for (std::size_t bidx = 0; bidx < batches; ++bidx) {
    const std::size_t base = bidx * r * c;
    for (std::size_t i = 0; i < r; ++i) {
      for (std::size_t j = 0; j < c; ++j) {
        ov[base + j * r + i] = xv[base + i * c + j];
      }
    }
  }
  return out;
}
}  // namespace

Variable transpose_last2(const Variable& x) {
  Tensor out = transpose_last2_tensor(x.value());
  auto px = x.data();
  return Variable::make_op(std::move(out), {x}, [px](VarData& o) {
    px->accumulate_grad(transpose_last2_tensor(o.grad));
  });
}

namespace {
Tensor permute_0213_tensor(const Tensor& x) {
  AVGPIPE_CHECK(x.ndim() == 4, "permute_0213 needs a 4-D tensor");
  const std::size_t A = x.dim(0), B = x.dim(1), C = x.dim(2), D = x.dim(3);
  Tensor out = Tensor::uninitialized({A, C, B, D});
  const auto xv = x.data();
  auto ov = out.data();
  for (std::size_t a = 0; a < A; ++a) {
    for (std::size_t b = 0; b < B; ++b) {
      for (std::size_t c = 0; c < C; ++c) {
        const std::size_t src = ((a * B + b) * C + c) * D;
        const std::size_t dst = ((a * C + c) * B + b) * D;
        for (std::size_t d = 0; d < D; ++d) ov[dst + d] = xv[src + d];
      }
    }
  }
  return out;
}
}  // namespace

Variable permute_0213(const Variable& x) {
  Tensor out = permute_0213_tensor(x.value());
  auto px = x.data();
  return Variable::make_op(std::move(out), {x}, [px](VarData& o) {
    px->accumulate_grad(permute_0213_tensor(o.grad));
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
/// out = the softmax of each row of x, both [rows, cols] row-major. The max
/// shift runs per row, the exponentials in one span call over the whole
/// buffer. A -inf entry gives exactly 0; a NaN anywhere in a row makes the
/// whole row NaN.
void softmax_rows_into(const Scalar* x, Scalar* out, std::size_t rows,
                       std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    const Scalar* row = x + r * cols;
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
        // Fused: one sweep stores t = y*dy into g while reducing dot(y, dy),
        // one sweep finalises g = t - y*dot (no recomputed products).
        for (std::size_t r = 0; r < rows; ++r) {
          Scalar dotp = 0.0;
          for (std::size_t c = 0; c < cols; ++c) {
            const Scalar t = og[r * cols + c] * yv[r * cols + c];
            gv[r * cols + c] = t;
            dotp += t;
          }
          for (std::size_t c = 0; c < cols; ++c) {
            gv[r * cols + c] -= yv[r * cols + c] * dotp;
          }
        }
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

Variable dropout(const Variable& x, double p, Rng& rng, bool training) {
  AVGPIPE_CHECK(p >= 0.0 && p < 1.0, "dropout p must be in [0,1), got " << p);
  if (!training || p == 0.0) return x;
  const Scalar keep = 1.0 - p;
  Tensor mask = Tensor::uninitialized(x.shape());
  auto mv = mask.data();
  for (auto& m : mv) m = rng.bernoulli(keep) ? 1.0 / keep : 0.0;
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
