// Parity and correctness suite for the performance layer: the small and
// the blocked GEMM vs the plain loop (tests/gemm_oracle.hpp), the vector
// tanh/exp kernels vs libm and across ISAs,
// fused optimizer kernels vs their unfused
// formulations, in-place op variants vs the allocating ones, the arena
// allocator's recycling behaviour, and thread-pool determinism.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "gemm_oracle.hpp"
#include "nn/lstm.hpp"
#include "optim/optimizer.hpp"
#include "tensor/arena.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/quantize.hpp"

namespace avgpipe {
namespace {

using tensor::Scalar;
using tensor::Tensor;
using tensor::Variable;

std::vector<Scalar> random_vec(std::size_t n, Rng& rng) {
  std::vector<Scalar> v(n);
  for (auto& x : v) x = rng.normal(0.0, 1.0);
  return v;
}

// -- GEMM parity ---------------------------------------------------------------

struct GemmCase {
  std::size_t m, n, k;
};

/// `src` (rows x cols, packed) copied into rows of stride `ld`, the gaps
/// filled with `fill`.
std::vector<Scalar> with_stride(const std::vector<Scalar>& src,
                                std::size_t rows, std::size_t cols,
                                std::size_t ld, Scalar fill) {
  std::vector<Scalar> out(rows * ld, fill);
  for (std::size_t r = 0; r < rows; ++r) {
    std::copy(src.begin() + r * cols, src.begin() + (r + 1) * cols,
              out.begin() + r * ld);
  }
  return out;
}

/// `x` (rows x cols, packed) transposed.
std::vector<Scalar> transposed(const std::vector<Scalar>& x, std::size_t rows,
                               std::size_t cols) {
  std::vector<Scalar> t(x.size());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) t[c * rows + r] = x[r * cols + c];
  }
  return t;
}

/// Operands of one GEMM call, either packed or re-laid with leading
/// dimensions 3 past the stored row lengths (NaN in A/B gaps so a stray
/// read poisons C, a sentinel in C gaps so a stray write shows).
struct GemmOperands {
  std::vector<Scalar> a, b, c;
  tensor::GemmOpts opts;
  std::size_t ldc;
};

constexpr Scalar kGapSentinel = -7.25;

GemmOperands gemm_operands(const std::vector<Scalar>& a,
                           const std::vector<Scalar>& b,
                           const std::vector<Scalar>& c, std::size_t m,
                           std::size_t n, std::size_t k, bool trans_a,
                           bool trans_b, bool strided) {
  if (!strided) return {a, b, c, {}, n};
  constexpr std::size_t kPad = 3;
  const Scalar nan = std::numeric_limits<Scalar>::quiet_NaN();
  const std::size_t a_rows = trans_a ? k : m, a_cols = trans_a ? m : k;
  const std::size_t b_rows = trans_b ? n : k, b_cols = trans_b ? k : n;
  GemmOperands ops{with_stride(a, a_rows, a_cols, a_cols + kPad, nan),
                   with_stride(b, b_rows, b_cols, b_cols + kPad, nan),
                   with_stride(c, m, n, n + kPad, kGapSentinel),
                   {.lda = a_cols + kPad, .ldb = b_cols + kPad, .ldc = n + kPad},
                   n + kPad};
  return ops;
}

/// C's gaps (columns n..ldc) still hold the sentinel.
::testing::AssertionResult gaps_untouched(const std::vector<Scalar>& c,
                                          std::size_t n, std::size_t ldc) {
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (i % ldc >= n && c[i] != kGapSentinel) {
      return ::testing::AssertionFailure() << "C gap written at " << i;
    }
  }
  return ::testing::AssertionSuccess();
}

class GemmParity : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmParity, MatchesReferenceForAllTransposeCombos) {
  const auto [m, n, k] = GetParam();
  Rng rng(0xC0FFEE + m * 131 + n * 17 + k);
  for (const bool trans_a : {false, true}) {
    for (const bool trans_b : {false, true}) {
      for (const bool accumulate : {false, true}) {
        const auto a = random_vec(m * k, rng);
        const auto b = random_vec(k * n, rng);
        const auto c0 = random_vec(m * n, rng);
        // Packed, then strided operands.
        for (const bool strided : {false, true}) {
          auto ops = gemm_operands(a, b, c0, m, n, k, trans_a, trans_b,
                                   strided);
          auto c_ref = ops.c;
          auto c_blk = ops.c;  // same starting C so accumulate paths match
          oracle::gemm_loop(ops.a.data(), ops.b.data(), c_ref.data(), m, n, k,
                            trans_a, trans_b, accumulate, ops.opts);
          tensor::gemm_blocked(ops.a.data(), ops.b.data(), c_blk.data(), m, n,
                               k, trans_a, trans_b, accumulate, ops.opts);
          ASSERT_TRUE(gaps_untouched(c_ref, n, ops.ldc));
          ASSERT_TRUE(gaps_untouched(c_blk, n, ops.ldc));
          for (std::size_t i = 0; i < c_ref.size(); ++i) {
            // FMA contraction in the blocked kernel shifts rounding by a few
            // ulp per k-term; scale the tolerance by the reduction length.
            const double tol =
                1e-13 * static_cast<double>(k + 1) *
                std::max(1.0, std::abs(c_ref[i]));
            ASSERT_NEAR(c_blk[i], c_ref[i], tol)
                << "m=" << m << " n=" << n << " k=" << k << " ta=" << trans_a
                << " tb=" << trans_b << " acc=" << accumulate
                << " strided=" << strided << " i=" << i;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmParity,
    ::testing::Values(
        GemmCase{1, 1, 1},      // degenerate
        GemmCase{1, 8, 1},      // single row/col
        GemmCase{3, 5, 7},      // tiny, all odd
        GemmCase{4, 8, 16},     // exact tile multiples
        GemmCase{5, 9, 17},     // one past the tile edges
        GemmCase{63, 65, 33},   // straddles MC and NR boundaries
        GemmCase{64, 8, 300},   // multiple KC panels
        GemmCase{128, 96, 64},  // rectangular, several row blocks
        GemmCase{1, 1030, 5},   // wide: multiple NC panels
        GemmCase{200, 3, 2}));  // tall and skinny

TEST(GemmParity, ZeroSizedDims) {
  // k == 0 must clear C when not accumulating and leave it when accumulating.
  for (const auto gemm : {tensor::gemm_blocked, tensor::gemm_reference}) {
    std::vector<Scalar> a(12, 1.0), b(12, 2.0), c(6, 7.0);
    for (const bool trans_b : {false, true}) {
      gemm(a.data(), b.data(), c.data(), 2, 3, 0, false, trans_b, true, {});
      EXPECT_EQ(c, std::vector<Scalar>(6, 7.0));
    }
    gemm(a.data(), b.data(), c.data(), 2, 3, 0, false, false, false, {});
    EXPECT_EQ(c, std::vector<Scalar>(6, 0.0));
    // An empty C is not touched, whatever k is.
    c.assign(6, 7.0);
    gemm(a.data(), b.data(), c.data(), 0, 3, 4, false, true, false, {});
    gemm(a.data(), b.data(), c.data(), 2, 0, 4, false, true, false, {});
    EXPECT_EQ(c, std::vector<Scalar>(6, 7.0));
  }
}

TEST(GemmDispatch, SmallProblemsStayExact) {
  // Below the dispatch threshold gemm() runs gemm_reference, so results
  // must be bit-identical to the plain loop.
  Rng rng(42);
  const std::size_t m = 4, n = 4, k = 4;
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  std::vector<Scalar> c1(m * n, 0.0), c2(m * n, 0.0);
  tensor::gemm(a.data(), b.data(), c1.data(), m, n, k, false, false, false);
  oracle::gemm_loop(a.data(), b.data(), c2.data(), m, n, k, false, false,
                    false);
  EXPECT_EQ(c1, c2);
}

// -- per-ISA micro-kernels -------------------------------------------------------

// The blocked GEMM's per-element operation order: for each KC-deep panel a
// zeroed accumulator takes std::fma(op(A)[i][p], op(B)[p][j], acc) for p
// ascending, then C = acc (first panel, not accumulating) or C += acc.
constexpr std::size_t kOracleKc = 256;

void gemm_fma_oracle(const Scalar* a, const Scalar* b, Scalar* c,
                     std::size_t m, std::size_t n, std::size_t k, bool trans_a,
                     bool trans_b, bool accumulate,
                     const tensor::GemmOpts& opts = {}) {
  const std::size_t lda = opts.lda ? opts.lda : (trans_a ? m : k);
  const std::size_t ldb = opts.ldb ? opts.ldb : (trans_b ? k : n);
  const std::size_t ldc = opts.ldc ? opts.ldc : n;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      Scalar& out = c[i * ldc + j];
      if (k == 0 && !accumulate) out = 0.0;
      for (std::size_t pc = 0; pc < k; pc += kOracleKc) {
        Scalar acc = 0.0;
        for (std::size_t p = pc; p < std::min(k, pc + kOracleKc); ++p) {
          const Scalar av = trans_a ? a[p * lda + i] : a[i * lda + p];
          const Scalar bv = trans_b ? b[j * ldb + p] : b[p * ldb + j];
          acc = std::fma(av, bv, acc);
        }
        out = (pc == 0 && !accumulate) ? acc : out + acc;
      }
    }
  }
}

std::vector<tensor::detail::GemmIsa> supported_gemm_isas() {
  using tensor::detail::GemmIsa;
  std::vector<GemmIsa> isas;
  for (const GemmIsa isa :
       {GemmIsa::kPortable, GemmIsa::kAvx2, GemmIsa::kAvx512}) {
    if (tensor::detail::gemm_isa_supported(isa)) isas.push_back(isa);
  }
  return isas;
}

TEST(GemmMicroKernels, DispatchNamesASupportedKernel) {
  const std::string selected = tensor::gemm_isa();
  bool found = false;
  for (const auto isa : supported_gemm_isas()) {
    found = found || selected == tensor::detail::to_string(isa);
  }
  EXPECT_TRUE(found) << selected;
  EXPECT_TRUE(
      tensor::detail::gemm_isa_supported(tensor::detail::GemmIsa::kPortable));
}

TEST(GemmMicroKernels, FmaKernelsMatchFmaOracleBitExactPortableWithinTolerance) {
  using tensor::detail::GemmIsa;
  // Both sides of the 8x16 tile edges, the MC=64 row block and the KC=256
  // panel boundary; the wide case crosses the NC=1024 column block.
  std::vector<GemmCase> shapes;
  for (const std::size_t m : {1, 7, 8, 9, 17, 64, 65}) {
    for (const std::size_t n : {1, 15, 16, 17, 40}) {
      for (const std::size_t k : {1, 255, 256, 257, 520}) {
        shapes.push_back({m, n, k});
      }
    }
  }
  shapes.push_back({3, 1030, 5});
  const auto isas = supported_gemm_isas();
  Rng rng(0x0F3A);
  for (const auto& [m, n, k] : shapes) {
    const auto a = random_vec(m * k, rng);
    const auto b = random_vec(k * n, rng);
    const auto c0 = random_vec(m * n, rng);
    for (const bool trans_a : {false, true}) {
      for (const bool trans_b : {false, true}) {
        for (const bool accumulate : {false, true}) {
          // Packed, then strided operands.
          for (const bool strided : {false, true}) {
            const auto ops = gemm_operands(a, b, c0, m, n, k, trans_a,
                                           trans_b, strided);
            auto c_fma = ops.c;
            gemm_fma_oracle(ops.a.data(), ops.b.data(), c_fma.data(), m, n, k,
                            trans_a, trans_b, accumulate, ops.opts);
            auto c_ref = ops.c;
            oracle::gemm_loop(ops.a.data(), ops.b.data(), c_ref.data(), m, n,
                              k, trans_a, trans_b, accumulate, ops.opts);
            for (const GemmIsa isa : isas) {
              auto c = ops.c;
              tensor::detail::gemm_blocked_isa(isa, ops.a.data(),
                                               ops.b.data(), c.data(), m, n,
                                               k, trans_a, trans_b, accumulate,
                                               ops.opts);
              const auto where = [&] {
                return ::testing::Message()
                       << tensor::detail::to_string(isa) << " m=" << m
                       << " n=" << n << " k=" << k << " ta=" << trans_a
                       << " tb=" << trans_b << " acc=" << accumulate
                       << " strided=" << strided;
              };
              ASSERT_TRUE(gaps_untouched(c, n, ops.ldc)) << where();
              if (isa == GemmIsa::kPortable) {
                for (std::size_t i = 0; i < c.size(); ++i) {
                  const double tol = 1e-13 * static_cast<double>(k + 1) *
                                     std::max(1.0, std::abs(c_ref[i]));
                  ASSERT_NEAR(c[i], c_ref[i], tol) << where() << " i=" << i;
                }
              } else {
                ASSERT_EQ(std::memcmp(c.data(), c_fma.data(),
                                      c.size() * sizeof(Scalar)),
                          0)
                    << where();
              }
            }
          }
        }
      }
    }
  }
}

// -- the small GEMM ------------------------------------------------------------

/// `got` and `want` hold the same bits at every element, gaps included.
::testing::AssertionResult same_bits(const std::vector<Scalar>& got,
                                     const std::vector<Scalar>& want) {
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(Scalar)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << got[i] << " vs " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// Stored A, B and a starting C that probe the small GEMM's contract:
///  - zeros of both signs scattered through op(A), and op(A)'s last column
///    all zeros facing a row of op(B) that holds +Inf, -Inf and NaN, so a
///    kernel that adds 0 * Inf instead of skipping the term writes NaN;
///  - a NaN at op(A)[0][0], which must reach all of C's first row;
///  - op(A)'s last row all zeros, so C's last row keeps its starting value
///    (a -0.0 stays -0.0 only if nothing is added to it);
///  - products of 1e-200 and -1e-200, which round to -0.0;
///  - -0.0 and +0.0 in the starting C.
struct GemmEdgeOperands {
  std::vector<Scalar> a, b, c;
};

GemmEdgeOperands gemm_edge_operands(std::size_t m, std::size_t n,
                                    std::size_t k, bool trans_a, bool trans_b,
                                    Rng& rng) {
  constexpr Scalar kInf = std::numeric_limits<Scalar>::infinity();
  constexpr Scalar kNaN = std::numeric_limits<Scalar>::quiet_NaN();
  constexpr Scalar kTiny = 1e-200;
  std::vector<Scalar> op_a(m * k), op_b(k * n), c(m * n);
  for (std::size_t i = 0; i < op_a.size(); ++i) {
    constexpr Scalar kPattern[] = {0.0, -0.0, -kTiny};
    op_a[i] = i % 5 < 3 ? kPattern[i % 5] : rng.normal(0.0, 1.0);
  }
  for (std::size_t i = 0; i < op_b.size(); ++i) {
    op_b[i] = i % 2 == 0 ? kTiny : rng.normal(0.0, 1.0);
  }
  const std::size_t dead = k - 1;
  for (std::size_t i = 0; i < m; ++i) op_a[i * k + dead] = i % 2 ? -0.0 : 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    constexpr Scalar kSpecials[] = {kInf, -kInf, kNaN};
    op_b[dead * n + j] = kSpecials[j % 3];
  }
  if (m >= 2) {
    for (std::size_t p = 0; p < k; ++p) op_a[(m - 1) * k + p] = -0.0;
  }
  if (k >= 2) op_a[0] = kNaN;
  for (std::size_t i = 0; i < c.size(); ++i) {
    c[i] = i % 3 == 0 ? -0.0 : i % 3 == 1 ? 0.0 : rng.normal(0.0, 1.0);
  }
  return {trans_a ? transposed(op_a, m, k) : op_a,
          trans_b ? transposed(op_b, k, n) : op_b, std::move(c)};
}

TEST(SmallGemm, EveryIsaBitEqualToTheLoop) {
  using tensor::detail::GemmIsa;
  // Both sides of every strip width (16 and 32 columns) and of the vector
  // widths inside them.
  const std::size_t dims[] = {1, 3, 4, 7, 16, 17, 31, 32, 33};
  const auto isas = supported_gemm_isas();
  Rng rng(0x5A11);
  for (const std::size_t m : dims) {
    for (const std::size_t n : dims) {
      for (const std::size_t k : dims) {
        for (const bool edge : {false, true}) {
          for (const bool trans_a : {false, true}) {
            for (const bool trans_b : {false, true}) {
              const auto [a, b, c0] =
                  edge ? gemm_edge_operands(m, n, k, trans_a, trans_b, rng)
                       : GemmEdgeOperands{random_vec(m * k, rng),
                                          random_vec(k * n, rng),
                                          random_vec(m * n, rng)};
              for (const bool accumulate : {false, true}) {
                for (const bool strided : {false, true}) {
                  const auto ops = gemm_operands(a, b, c0, m, n, k, trans_a,
                                                 trans_b, strided);
                  auto want = ops.c;
                  oracle::gemm_loop(ops.a.data(), ops.b.data(), want.data(), m,
                                    n, k, trans_a, trans_b, accumulate,
                                    ops.opts);
                  for (const GemmIsa isa : isas) {
                    auto c = ops.c;
                    tensor::detail::gemm_reference_isa(
                        isa, ops.a.data(), ops.b.data(), c.data(), m, n, k,
                        trans_a, trans_b, accumulate, ops.opts);
                    ASSERT_TRUE(same_bits(c, want))
                        << tensor::detail::to_string(isa) << " m=" << m
                        << " n=" << n << " k=" << k << " edge=" << edge
                        << " ta=" << trans_a << " tb=" << trans_b
                        << " acc=" << accumulate << " strided=" << strided;
                  }
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(GemmDispatch, StridesAndTransposesMatchCopiesBitExact) {
  // What the attention node relies on: reading an operand in place through
  // a leading dimension, or reading it transposed, gives exactly the bits
  // of packed copies and an explicitly transposed copy. Checked through
  // gemm() on both sides of kGemmBlockedThreshold and through every kernel
  // the host supports.
  using tensor::detail::GemmIsa;
  using GemmFn = std::function<void(const Scalar*, const Scalar*, Scalar*,
                                    std::size_t, std::size_t, std::size_t,
                                    bool, bool, bool, const tensor::GemmOpts&)>;
  std::vector<std::pair<std::string, GemmFn>> fns{
      {"gemm", [](auto... args) { tensor::gemm(args...); }},
      {"loop", [](auto... args) { oracle::gemm_loop(args...); }}};
  for (const GemmIsa isa : supported_gemm_isas()) {
    const std::string name = tensor::detail::to_string(isa);
    fns.emplace_back("blocked " + name, [isa](auto... args) {
      tensor::detail::gemm_blocked_isa(isa, args...);
    });
    fns.emplace_back("reference " + name, [isa](auto... args) {
      tensor::detail::gemm_reference_isa(isa, args...);
    });
  }
  Rng rng(0x5EED);
  // 16*16*16 sits below the threshold and 32*32*16 above it (the attention
  // score shape); 40*24*300 crosses a KC panel.
  for (const auto& [m, n, k] : {GemmCase{16, 16, 16}, GemmCase{32, 32, 16},
                                GemmCase{40, 24, 300}}) {
    ASSERT_EQ(m * n * k < tensor::kGemmBlockedThreshold, m == 16);
    const auto a = random_vec(m * k, rng);  // op(A) as stored untransposed
    const auto b = random_vec(k * n, rng);  // op(B) as stored untransposed
    const auto c0 = random_vec(m * n, rng);
    for (const auto& [name, fn] : fns) {
      for (const bool accumulate : {false, true}) {
        // Baseline: packed NN.
        auto expect = c0;
        fn(a.data(), b.data(), expect.data(), m, n, k, false, false,
           accumulate, {});
        for (const bool trans_a : {false, true}) {
          for (const bool trans_b : {false, true}) {
            const auto at = trans_a ? transposed(a, m, k) : a;
            const auto bt = trans_b ? transposed(b, k, n) : b;
            const auto ops = gemm_operands(at, bt, c0, m, n, k, trans_a,
                                           trans_b, /*strided=*/true);
            auto c = ops.c;
            fn(ops.a.data(), ops.b.data(), c.data(), m, n, k, trans_a,
               trans_b, accumulate, ops.opts);
            ASSERT_TRUE(gaps_untouched(c, n, ops.ldc));
            for (std::size_t i = 0; i < m; ++i) {
              ASSERT_EQ(std::memcmp(c.data() + i * ops.ldc,
                                    expect.data() + i * n, n * sizeof(Scalar)),
                        0)
                  << name << " m=" << m << " n=" << n << " k=" << k
                  << " ta=" << trans_a << " tb=" << trans_b
                  << " acc=" << accumulate << " row " << i;
            }
          }
        }
      }
    }
  }
}

TEST(LinearNode, MatchesMatmulThenAddBiasBitExact) {
  // The one-node Linear adds the bias after its GEMM and sums dY's columns
  // for db: the same bits, forward and backward, as a matmul node followed
  // by an add_bias node. Shapes on both sides of kGemmBlockedThreshold, one
  // with k past a KC panel and one 3-D input.
  const auto same_bits = [](const Tensor& a, const Tensor& b) {
    return a.numel() == b.numel() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.numel() * sizeof(Scalar)) == 0;
  };
  struct Case {
    tensor::Shape x_shape;
    std::size_t out;
  };
  for (const auto& [x_shape, out] :
       {Case{{4, 8}, 8}, Case{{40, 300}, 24}, Case{{2, 16, 64}, 48}}) {
    Rng rng(0xB1A5 + out);
    const std::size_t in = x_shape.back();
    const Tensor x0 = Tensor::randn(x_shape, rng);
    const Tensor w0 = Tensor::randn({in, out}, rng);
    const Tensor b0 = Tensor::randn({out}, rng);
    tensor::Shape y_shape = x_shape;
    y_shape.back() = out;
    const Tensor u = Tensor::randn(y_shape, rng);
    const auto run = [&](bool fused) {
      Variable x(x0.clone(), true), w(w0.clone(), true), b(b0.clone(), true);
      Variable y;
      if (fused) {
        y = tensor::linear(x, w, b);
      } else {
        Variable flat = tensor::reshape(x, {x0.numel() / in, in});
        y = tensor::reshape(tensor::add_bias(tensor::matmul(flat, w), b),
                            y_shape);
      }
      tensor::sum_all(tensor::mul(y, Variable(u))).backward();
      return std::vector<Tensor>{y.value().clone(), x.grad().clone(),
                                 w.grad().clone(), b.grad().clone()};
    };
    const auto fused = run(true), composite = run(false);
    for (std::size_t i = 0; i < fused.size(); ++i) {
      EXPECT_TRUE(same_bits(fused[i], composite[i]))
          << "in=" << in << " out=" << out << " tensor " << i;
    }
  }
}

// -- vector tanh / exp ----------------------------------------------------------

using SpanFn = void (*)(const Scalar*, Scalar*, std::size_t);

/// Distance in representable doubles between two same-signed finite values
/// (or equal infinities), counting across the subnormal range.
std::uint64_t ulp_distance(Scalar a, Scalar b) {
  if (a == b) return 0;
  const auto ordered = [](Scalar v) {
    std::int64_t i = 0;
    std::memcpy(&i, &v, sizeof(i));
    return i < 0 ? std::numeric_limits<std::int64_t>::min() - i : i;
  };
  const std::int64_t d = ordered(a) - ordered(b);
  return static_cast<std::uint64_t>(d < 0 ? -d : d);
}

/// Dense sweeps of [lo, hi], plus +-m * 2^e for e in [-100, 10] with m
/// stepping through [1, 2).
std::vector<Scalar> sweep_inputs(Scalar lo, Scalar hi) {
  std::vector<Scalar> xs;
  const std::size_t steps = 1 << 19;
  for (std::size_t i = 0; i <= steps; ++i) {
    xs.push_back(lo + (hi - lo) * static_cast<Scalar>(i) /
                          static_cast<Scalar>(steps));
  }
  for (int e = -100; e <= 10; ++e) {
    for (int j = 0; j < 256; ++j) {
      const Scalar m = std::ldexp(1.0 + j / 256.0, e);
      xs.push_back(m);
      xs.push_back(-m);
    }
  }
  return xs;
}

std::uint64_t max_ulp_vs(SpanFn fn, Scalar (*libm)(Scalar),
                         const std::vector<Scalar>& xs, Scalar& worst_x) {
  std::vector<Scalar> y(xs.size());
  fn(xs.data(), y.data(), xs.size());
  std::uint64_t worst = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::uint64_t d = ulp_distance(y[i], libm(xs[i]));
    if (d > worst) {
      worst = d;
      worst_x = xs[i];
    }
  }
  return worst;
}

TEST(VecMath, TanhWithinFourUlpOfLibm) {
  Scalar worst_x = 0.0;
  const std::uint64_t ulps = max_ulp_vs(
      tensor::vec_tanh, [](Scalar v) { return std::tanh(v); },
      sweep_inputs(-25.0, 25.0), worst_x);
  EXPECT_LE(ulps, 4u) << "at x=" << worst_x;
}

TEST(VecMath, ExpWithinFourUlpOfLibm) {
  // The sweep runs into both the overflow and the subnormal range.
  Scalar worst_x = 0.0;
  const std::uint64_t ulps = max_ulp_vs(
      tensor::vec_exp, [](Scalar v) { return std::exp(v); },
      sweep_inputs(-750.0, 712.0), worst_x);
  EXPECT_LE(ulps, 4u) << "at x=" << worst_x;
}

TEST(VecMath, EveryIsaBitIdenticalToPortableAcrossVectorTails) {
  using tensor::detail::GemmIsa;
  Rng rng(0x7A4E);
  for (const std::size_t n : {0, 1, 7, 8, 9, 63, 64, 65}) {
    std::vector<Scalar> x(n);
    for (auto& v : x) v = rng.normal(0.0, 8.0);
    if (n > 3) {  // specials in the vector body, not only the tail
      x[1] = std::numeric_limits<Scalar>::quiet_NaN();
      x[2] = -std::numeric_limits<Scalar>::infinity();
      x[3] = -0.0;
    }
    for (const bool use_exp : {false, true}) {
      const auto run = [&](GemmIsa isa) {
        std::vector<Scalar> y(n + 1, 42.0);  // the sentinel must survive
        if (use_exp) {
          tensor::detail::vec_exp_isa(isa, x.data(), y.data(), n);
        } else {
          tensor::detail::vec_tanh_isa(isa, x.data(), y.data(), n);
        }
        EXPECT_EQ(y[n], 42.0);
        return y;
      };
      const auto portable = run(GemmIsa::kPortable);
      for (const GemmIsa isa : supported_gemm_isas()) {
        const auto y = run(isa);
        EXPECT_EQ(std::memcmp(y.data(), portable.data(), n * sizeof(Scalar)),
                  0)
            << tensor::detail::to_string(isa) << (use_exp ? " exp" : " tanh")
            << " n=" << n;
      }
    }
  }
}

TEST(VecMath, InPlaceMatchesOutOfPlace) {
  Rng rng(0x1A7E);
  std::vector<Scalar> x(100);
  for (auto& v : x) v = rng.normal(0.0, 4.0);
  for (const SpanFn fn : {tensor::vec_tanh, tensor::vec_exp}) {
    std::vector<Scalar> y(x.size());
    fn(x.data(), y.data(), x.size());
    std::vector<Scalar> z = x;
    fn(z.data(), z.data(), z.size());
    EXPECT_EQ(y, z);
  }
}

TEST(VecMath, SpecialInputs) {
  constexpr Scalar kInf = std::numeric_limits<Scalar>::infinity();
  constexpr Scalar kNaN = std::numeric_limits<Scalar>::quiet_NaN();
  constexpr Scalar kMinSub = std::numeric_limits<Scalar>::denorm_min();
  constexpr Scalar kMinNormal = std::numeric_limits<Scalar>::min();
  const auto tanh1 = [](Scalar v) {
    tensor::vec_tanh(&v, &v, 1);
    return v;
  };
  const auto exp1 = [](Scalar v) {
    tensor::vec_exp(&v, &v, 1);
    return v;
  };
  // Signed zeros keep their sign.
  EXPECT_EQ(tanh1(0.0), 0.0);
  EXPECT_FALSE(std::signbit(tanh1(0.0)));
  EXPECT_EQ(tanh1(-0.0), 0.0);
  EXPECT_TRUE(std::signbit(tanh1(-0.0)));
  EXPECT_EQ(exp1(0.0), 1.0);
  EXPECT_EQ(exp1(-0.0), 1.0);
  // Subnormals: tanh(x) = x, exp(x) = 1.
  for (const Scalar v : {kMinSub, -kMinSub, kMinNormal / 3, -kMinNormal / 3}) {
    EXPECT_EQ(tanh1(v), v);
    EXPECT_EQ(exp1(v), 1.0);
  }
  // Infinities and saturation.
  EXPECT_EQ(tanh1(kInf), 1.0);
  EXPECT_EQ(tanh1(-kInf), -1.0);
  EXPECT_EQ(tanh1(30.0), 1.0);
  EXPECT_EQ(tanh1(-30.0), -1.0);
  EXPECT_EQ(exp1(kInf), kInf);
  EXPECT_EQ(exp1(-kInf), 0.0);
  // Overflow to inf, underflow through the subnormals to 0.
  EXPECT_EQ(exp1(709.78), std::exp(709.78));
  EXPECT_EQ(exp1(709.79), kInf);
  EXPECT_EQ(exp1(1000.0), kInf);
  EXPECT_LE(ulp_distance(exp1(-740.0), std::exp(-740.0)), 1u);
  EXPECT_EQ(exp1(-745.1), kMinSub);
  EXPECT_EQ(exp1(-745.2), 0.0);
  EXPECT_EQ(exp1(-1000.0), 0.0);
  // NaN in, NaN out: a min/max saturation would turn these into +-1 or 0.
  for (const Scalar v : {kNaN, -kNaN}) {
    EXPECT_TRUE(std::isnan(tanh1(v)));
    EXPECT_TRUE(std::isnan(exp1(v)));
  }
}

TEST(VecMath, SoftmaxRowsKeepsMaskedZerosAndPoisonedRows) {
  constexpr Scalar kInf = std::numeric_limits<Scalar>::infinity();
  constexpr Scalar kNaN = std::numeric_limits<Scalar>::quiet_NaN();
  Tensor x({3, 4});
  const Scalar vals[] = {0.5, -kInf, 1.5, -kInf,   // masked entries
                         1.0, 2.0,   kNaN, 3.0,    // bad input
                         kNaN, 0.0,  1.0, 2.0};    // bad input in front
  std::copy(std::begin(vals), std::end(vals), x.data().begin());
  const Tensor y = tensor::softmax_rows(Variable(x, false)).value();
  EXPECT_EQ(y.at(0, 1), 0.0);
  EXPECT_EQ(y.at(0, 3), 0.0);
  EXPECT_NEAR(y.at(0, 0) + y.at(0, 2), 1.0, 1e-15);
  EXPECT_NEAR(y.at(0, 2) / y.at(0, 0), std::exp(1.0), 1e-14);
  for (const std::size_t r : {1, 2}) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_TRUE(std::isnan(y.at(r, c))) << "row " << r << " col " << c;
    }
  }
}

// -- fused optimizer kernels ---------------------------------------------------

std::vector<Variable> make_params(Rng& rng) {
  std::vector<Variable> params;
  for (const std::size_t n : {7u, 64u, 129u}) {
    Tensor t({n});
    for (auto& v : t.data()) v = rng.normal(0.0, 1.0);
    params.emplace_back(std::move(t), /*requires_grad=*/true);
  }
  return params;
}

TEST(FusedOptim, SgdMomentumWeightDecayMatchesUnfused) {
  Rng rng(13);
  auto params = make_params(rng);
  std::vector<Variable> ref_params;
  for (auto& p : params) ref_params.emplace_back(p.value().clone(), true);

  const Scalar lr = 0.1, momentum = 0.9, wd = 0.01;
  optim::Sgd sgd(params, lr, momentum, wd);

  // Unfused reference state.
  std::vector<Tensor> velocity;
  for (auto& p : ref_params) velocity.emplace_back(p.value().shape());

  for (int step = 0; step < 3; ++step) {
    for (std::size_t i = 0; i < params.size(); ++i) {
      Tensor g(params[i].value().shape());
      for (auto& v : g.data()) v = rng.normal(0.0, 1.0);
      params[i].mutable_grad().copy_from(g);
      ref_params[i].mutable_grad().copy_from(g);
    }
    sgd.step();
    for (std::size_t i = 0; i < ref_params.size(); ++i) {
      Tensor g = ref_params[i].grad().clone();
      g.axpy_(wd, ref_params[i].value());
      velocity[i].scale_(momentum);
      velocity[i].axpy_(1.0, g);
      ref_params[i].value().axpy_(-lr, velocity[i]);
    }
    for (std::size_t i = 0; i < params.size(); ++i) {
      EXPECT_LE(params[i].value().max_abs_diff(ref_params[i].value()), 1e-12)
          << "step " << step << " param " << i;
    }
  }
}

TEST(FusedOptim, AsgdMatchesUnfused) {
  Rng rng(17);
  auto params = make_params(rng);
  std::vector<Variable> ref_params;
  for (auto& p : params) ref_params.emplace_back(p.value().clone(), true);

  const Scalar lr = 0.05, wd = 0.02;
  optim::Asgd asgd(params, lr, /*trigger=*/0, wd);

  for (int step = 0; step < 2; ++step) {
    for (std::size_t i = 0; i < params.size(); ++i) {
      Tensor g(params[i].value().shape());
      for (auto& v : g.data()) v = rng.normal(0.0, 1.0);
      params[i].mutable_grad().copy_from(g);
      ref_params[i].mutable_grad().copy_from(g);
    }
    asgd.step();
    for (std::size_t i = 0; i < ref_params.size(); ++i) {
      Tensor g = ref_params[i].grad().clone();
      g.axpy_(wd, ref_params[i].value());
      ref_params[i].value().axpy_(-lr, g);
      EXPECT_LE(params[i].value().max_abs_diff(ref_params[i].value()), 1e-12);
    }
  }
}

// -- in-place op variants -------------------------------------------------------

TEST(InplaceOps, MatchOutOfPlaceForwardAndBackward) {
  Rng rng(19);
  const std::size_t rows = 5, cols = 9;

  auto run = [&](bool in_place) {
    Rng local(23);
    Tensor xt({rows, cols}), bt({cols});
    for (auto& v : xt.data()) v = local.normal(0.0, 1.0);
    for (auto& v : bt.data()) v = local.normal(0.0, 1.0);
    Variable x(std::move(xt), true);
    Variable bias(std::move(bt), true);
    // Feed through a producer op first so the in-place guard passes.
    Variable h = tensor::scale(x, 1.5);
    Variable y = in_place ? tensor::add_bias_(h, bias)
                          : tensor::add_bias(h, bias);
    y = tensor::scale(y, 0.5);
    Variable loss = tensor::sum_all(y);
    loss.backward();
    return std::make_tuple(y.value().clone(), x.grad().clone(),
                           bias.grad().clone());
  };

  const auto [y1, gx1, gb1] = run(false);
  const auto [y2, gx2, gb2] = run(true);
  EXPECT_LE(y1.max_abs_diff(y2), 1e-12);
  EXPECT_LE(gx1.max_abs_diff(gx2), 1e-12);
  EXPECT_LE(gb1.max_abs_diff(gb2), 1e-12);
  (void)rng;
}

TEST(InplaceOps, RejectsGradRequiringLeaf) {
  Variable param(Tensor::ones({3}), /*requires_grad=*/true);
  Variable bias(Tensor::ones({3}), /*requires_grad=*/true);
  EXPECT_THROW(tensor::add_bias_(param, bias), std::runtime_error);
}

// -- arena allocator ------------------------------------------------------------

TEST(Arena, RecyclesBuffersWithinBucket) {
  tensor::arena::clear_thread_cache();
  tensor::arena::reset_stats();
  Scalar* p = tensor::arena::acquire(100);
  ASSERT_NE(p, nullptr);
  tensor::arena::release(p, 100);
  // A same-bucket request must be served from the free list, not the heap.
  Scalar* q = tensor::arena::acquire(
      tensor::arena::bucket_capacity(100));
  EXPECT_EQ(q, p);
  tensor::arena::release(q, tensor::arena::bucket_capacity(100));
  const auto s = tensor::arena::stats();
  EXPECT_EQ(s.acquires, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.heap_allocs, 1u);
}

TEST(Arena, SteadyStateTrainingStepHitsCache) {
  // Two identical forward/backward/step rounds: the second must be served
  // entirely from the free lists (zero new heap allocations).
  auto round = [](unsigned seed) {
    Rng rng(seed);
    Tensor xt({8, 16}), wt({16, 4});
    for (auto& v : xt.data()) v = rng.normal(0.0, 1.0);
    for (auto& v : wt.data()) v = rng.normal(0.0, 1.0);
    Variable x(std::move(xt), false);
    Variable w(std::move(wt), true);
    Variable y = tensor::matmul(x, w);
    Variable loss = tensor::mean_all(tensor::relu(y));
    loss.backward();
    optim::Sgd sgd({w}, 0.01, 0.9);
    sgd.step();
  };
  round(1);  // warm-up populates the caches
  tensor::arena::reset_stats();
  round(1);
  const auto s = tensor::arena::stats();
  EXPECT_GT(s.acquires, 0u);
  EXPECT_EQ(s.heap_allocs, 0u)
      << "steady-state step should not touch the heap";
}

TEST(Arena, DisabledFallsThroughToHeap) {
  tensor::arena::clear_thread_cache();
  tensor::arena::set_enabled(false);
  tensor::arena::reset_stats();
  Scalar* p = tensor::arena::acquire(64);
  tensor::arena::release(p, 64);
  Scalar* q = tensor::arena::acquire(64);
  tensor::arena::release(q, 64);
  const auto s = tensor::arena::stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.heap_allocs, 2u);
  tensor::arena::set_enabled(true);
}

TEST(Arena, UninitializedTensorSkipsZeroFill) {
  tensor::arena::clear_thread_cache();
  // Acquire, poison, release; the recycled uninitialized tensor must see the
  // poison (proving no zero-fill), while Tensor(Shape) must see zeros.
  Scalar* p = tensor::arena::acquire(tensor::arena::bucket_capacity(16));
  for (std::size_t i = 0; i < 16; ++i) p[i] = 123.0;
  tensor::arena::release(p, tensor::arena::bucket_capacity(16));
  Tensor u = Tensor::uninitialized({16});
  EXPECT_EQ(u.data().data(), p);
  EXPECT_EQ(u[0], 123.0);
  { Tensor drop = std::move(u); }  // release back
  Tensor z({16});
  EXPECT_EQ(z[0], 0.0);
  EXPECT_EQ(z.sum(), 0.0);
}

// -- thread pool ----------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(1000);
  pool.parallel_for(0, counts.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) counts[i].fetch_add(1);
  });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPoolTest, GrainLimitsChunkCount) {
  ThreadPool pool(8);
  std::atomic<int> chunks{0};
  pool.parallel_for(
      0, 100,
      [&](std::size_t lo, std::size_t hi) {
        EXPECT_GE(hi - lo, 50u);
        chunks.fetch_add(1);
      },
      /*grain=*/50);
  EXPECT_LE(chunks.load(), 2);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(0, 4, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      // Caller-runs chunking means this inner call cannot starve even with
      // every pool worker already busy in the outer loop.
      ThreadPool::global().parallel_for(
          0, 8, [&](std::size_t l2, std::size_t h2) {
            total.fetch_add(static_cast<int>(h2 - l2));
          });
    }
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPoolTest, GemmDeterministicAcrossRepeats) {
  // Row-block ownership is disjoint, so repeated runs (arbitrary thread
  // interleavings) must produce bit-identical output.
  Rng rng(31);
  const std::size_t m = 96, n = 64, k = 48;
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  std::vector<Scalar> first(m * n, 0.0);
  tensor::gemm_blocked(a.data(), b.data(), first.data(), m, n, k, false,
                       false, false);
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<Scalar> c(m * n, 0.0);
    tensor::gemm_blocked(a.data(), b.data(), c.data(), m, n, k, false, false,
                         false);
    ASSERT_EQ(c, first) << "rep " << rep;
  }
}

TEST(ThreadPoolTest, ParseNumThreads) {
  EXPECT_EQ(parse_num_threads(nullptr, 3), 3u);
  EXPECT_EQ(parse_num_threads("", 3), 3u);
  EXPECT_EQ(parse_num_threads("junk", 3), 3u);
  EXPECT_EQ(parse_num_threads("0", 3), 3u);
  EXPECT_EQ(parse_num_threads("-2", 3), 3u);
  EXPECT_EQ(parse_num_threads("5", 3), 5u);
}

// -- stage partitions ----------------------------------------------------------

TEST(StagePartitionKernels, GemmBitIdenticalAcrossWorkerShares) {
  // The same GEMM under worker shares {1, 2, 4} (what AVGPIPE_STAGE_THREADS
  // installs per stage thread) must match the plain loop and be
  // bit-identical across shares: row-block ownership is disjoint, so the
  // fan-out width can only change timing, never results.
  Rng rng(77);
  const std::size_t m = 96, n = 64, k = 48;  // past kGemmBlockedThreshold
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  std::vector<Scalar> ref(m * n, 0.0);
  oracle::gemm_loop(a.data(), b.data(), ref.data(), m, n, k, false, false,
                    false);
  std::vector<Scalar> base;
  for (const std::size_t share : {std::size_t{1}, std::size_t{2},
                                  std::size_t{4}}) {
    PartitionGuard guard(share);
    std::vector<Scalar> c(m * n, 0.0);
    tensor::gemm_blocked(a.data(), b.data(), c.data(), m, n, k, false, false,
                         false);
    for (std::size_t i = 0; i < m * n; ++i) {
      ASSERT_NEAR(c[i], ref[i], static_cast<double>(k) * 1e-14)
          << "share " << share << " index " << i;
    }
    if (base.empty()) {
      base = c;
    } else {
      ASSERT_EQ(c, base) << "share " << share;
    }
  }
}

TEST(StagePartitionKernels, LstmForwardBackwardBitIdenticalAcrossShares) {
  // A full LSTM forward+backward (gate GEMMs large enough for the blocked
  // path) run under different worker shares must produce bit-identical
  // activations and parameter gradients.
  Rng wrng(123);
  nn::LSTM lstm(32, 64, wrng);
  Rng drng(9);
  tensor::Tensor x({8, 4, 32});
  {
    auto xv = x.data();
    for (auto& v : xv) v = drng.normal(0.0, 1.0);
  }
  std::vector<Scalar> base_out;
  std::vector<std::vector<Scalar>> base_grads;
  for (const std::size_t share : {std::size_t{1}, std::size_t{2},
                                  std::size_t{4}}) {
    PartitionGuard guard(share);
    Variable in(x.clone(), /*requires_grad=*/false);
    Variable out = lstm.forward(in);
    tensor::Tensor seed(out.value().shape());
    seed.fill_(1.0);
    out.backward(seed);
    const auto ov = out.value().data();
    std::vector<Scalar> out_vals(ov.begin(), ov.end());
    std::vector<std::vector<Scalar>> grads;
    for (auto& p : lstm.parameters()) {
      const auto gv = p.grad().data();
      grads.emplace_back(gv.begin(), gv.end());
      p.mutable_grad().fill_(0.0);
    }
    if (base_out.empty()) {
      base_out = std::move(out_vals);
      base_grads = std::move(grads);
    } else {
      ASSERT_EQ(out_vals, base_out) << "share " << share;
      ASSERT_EQ(grads, base_grads) << "share " << share;
    }
  }
}

// -- sync codecs ----------------------------------------------------------------

// Sizes chosen to cross every tail path: sub-vector, sub-block, exact block
// multiples, and odd lengths that leave both a partial SIMD vector and a
// partial quantization block.
const std::size_t kCodecSizes[] = {1, 3, 7, 8, 9, 255, 256, 257, 1024, 1037};

std::vector<Scalar> codec_input(std::size_t n, Rng& rng) {
  std::vector<Scalar> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Mix magnitudes so per-block scales differ and small values round to 0.
    v[i] = rng.normal(0.0, std::pow(10.0, static_cast<double>(i % 7) - 3.0));
  }
  return v;
}

TEST(QuantizeInt8, DispatchedMatchesReferenceBitExact) {
  Rng rng(0x51AB);
  for (const std::size_t n : kCodecSizes) {
    const auto src = codec_input(n, rng);
    const std::size_t blocks = tensor::int8_num_blocks(n);
    std::vector<std::int8_t> q_a(n), q_b(n);
    std::vector<float> s_a(blocks), s_b(blocks);
    tensor::quantize_int8(src.data(), n, q_a.data(), s_a.data());
    tensor::quantize_int8_reference(src.data(), n, q_b.data(), s_b.data());
    ASSERT_EQ(q_a, q_b) << "n=" << n;
    ASSERT_EQ(s_a, s_b) << "n=" << n;

    std::vector<Scalar> d_a(n), d_b(n);
    tensor::dequantize_int8(q_a.data(), s_a.data(), n, d_a.data());
    tensor::dequantize_int8_reference(q_b.data(), s_b.data(), n, d_b.data());
    ASSERT_EQ(d_a, d_b) << "n=" << n;
  }
}

TEST(QuantizeInt8, RoundTripErrorBoundedByHalfStep) {
  // |x - dq| <= s/2 per value, where s = blockmax/127 (plus a little head
  // room for the f32 scale rounding).
  Rng rng(0x51AC);
  for (const std::size_t n : kCodecSizes) {
    const auto src = codec_input(n, rng);
    std::vector<Scalar> rt = src;
    tensor::codec_roundtrip(tensor::Codec::kInt8, rt.data(), n);
    for (std::size_t b = 0; b * tensor::kQuantBlock < n; ++b) {
      const std::size_t lo = b * tensor::kQuantBlock;
      const std::size_t hi = std::min(n, lo + tensor::kQuantBlock);
      double block_max = 0.0;
      for (std::size_t i = lo; i < hi; ++i) {
        block_max = std::max(block_max, std::abs(src[i]));
      }
      const double bound = block_max * (0.5 / 127.0 + 1e-6);
      for (std::size_t i = lo; i < hi; ++i) {
        ASSERT_LE(std::abs(src[i] - rt[i]), bound) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(QuantizeInt8, EdgeValuesStayFiniteAndSigned) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  std::vector<Scalar> src = {0.0, -0.0, denorm,  -denorm, 1.0,
                             -1.0, nan,  inf,     -inf,    1e300};
  const std::size_t n = src.size();
  std::vector<Scalar> rt = src;
  tensor::codec_roundtrip(tensor::Codec::kInt8, rt.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(std::isfinite(rt[i])) << "i=" << i;
  }
  // Zeros decode to exactly zero; an all-zero block keeps a zero scale.
  EXPECT_EQ(rt[0], 0.0);
  EXPECT_EQ(rt[1], 0.0);
  std::vector<Scalar> zeros(tensor::kQuantBlock + 3, 0.0);
  tensor::codec_roundtrip(tensor::Codec::kInt8, zeros.data(), zeros.size());
  for (const Scalar v : zeros) EXPECT_EQ(v, 0.0);
}

TEST(QuantizeFp16, DispatchedMatchesReferenceBitExact) {
  Rng rng(0xF16A);
  for (const std::size_t n : kCodecSizes) {
    auto src = codec_input(n, rng);
    if (n >= 8) {
      // Sprinkle in the hard cases so the SIMD clamp path sees them too.
      src[0] = std::numeric_limits<double>::quiet_NaN();
      src[1] = std::numeric_limits<double>::infinity();
      src[2] = -std::numeric_limits<double>::infinity();
      src[3] = 1e-10;   // subnormal half
      src[4] = -0.0;
      src[5] = 65504.0;
      src[6] = 65520.0;  // above half max, below float overflow
      src[7] = 6e-8;     // rounds within the subnormal-half range
    }
    std::vector<std::uint16_t> h_a(n), h_b(n);
    tensor::quantize_fp16(src.data(), n, h_a.data());
    tensor::quantize_fp16_reference(src.data(), n, h_b.data());
    ASSERT_EQ(h_a, h_b) << "n=" << n;

    std::vector<Scalar> d_a(n), d_b(n);
    tensor::dequantize_fp16(h_a.data(), n, d_a.data());
    tensor::dequantize_fp16_reference(h_b.data(), n, d_b.data());
    for (std::size_t i = 0; i < n; ++i) {
      // Compare as bits so -0.0 vs 0.0 or NaN payloads can't slip through.
      std::uint64_t bits_a, bits_b;
      std::memcpy(&bits_a, &d_a[i], 8);
      std::memcpy(&bits_b, &d_b[i], 8);
      ASSERT_EQ(bits_a, bits_b) << "n=" << n << " i=" << i;
    }
  }
}

TEST(QuantizeFp16, RoundTripErrorWithinHalfPrecision) {
  Rng rng(0xF16B);
  const std::size_t n = 1037;
  const auto src = codec_input(n, rng);
  std::vector<Scalar> rt = src;
  tensor::codec_roundtrip(tensor::Codec::kFp16, rt.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(std::isfinite(rt[i])) << "i=" << i;
    const double abs_err = std::abs(src[i] - rt[i]);
    // Normal halves: rel error <= 2^-11 (RNE); subnormals: abs <= 2^-25.
    // f64 -> f32 narrowing adds a negligible extra half-ulp.
    ASSERT_LE(abs_err, std::max(std::abs(src[i]) * 0x1.0p-10, 0x1.0p-24))
        << "i=" << i << " x=" << src[i];
  }
}

TEST(QuantizeFp16, HalfRoundTripIsExactForEveryFinitePattern) {
  // Widening then re-narrowing must reproduce every finite binary16 bit
  // pattern (including subnormals and both zeros) exactly.
  for (std::uint32_t bits = 0; bits < 0x10000; ++bits) {
    const auto h = static_cast<std::uint16_t>(bits);
    if ((h & 0x7C00) == 0x7C00) continue;  // Inf/NaN: clamped by design
    const float f = tensor::half_to_float(h);
    ASSERT_EQ(tensor::float_to_half(f), h) << "pattern " << bits;
    // And the f64 codec path agrees with the scalar helpers.
    const Scalar wide = static_cast<Scalar>(f);
    std::uint16_t back;
    tensor::quantize_fp16_reference(&wide, 1, &back);
    ASSERT_EQ(back, h) << "pattern " << bits;
  }
  // The codec (unlike the raw scalar helper) clamps, so an Inf input
  // narrows to the max finite half rather than the Inf encoding.
  const Scalar inf = std::numeric_limits<double>::infinity();
  std::uint16_t clamped;
  tensor::quantize_fp16_reference(&inf, 1, &clamped);
  EXPECT_EQ(clamped, 0x7BFF);
}

TEST(CodecMeta, WireBytesAndNames) {
  using tensor::Codec;
  EXPECT_EQ(tensor::codec_wire_bytes(Codec::kNone, 100), 800u);
  EXPECT_EQ(tensor::codec_wire_bytes(Codec::kFp16, 100), 200u);
  EXPECT_EQ(tensor::codec_wire_bytes(Codec::kInt8, 100), 104u);   // 1 block
  EXPECT_EQ(tensor::codec_wire_bytes(Codec::kInt8, 257), 265u);   // 2 blocks
  EXPECT_STREQ(tensor::to_string(Codec::kInt8), "int8");
  Codec c;
  EXPECT_TRUE(tensor::codec_from_string("fp16", &c));
  EXPECT_EQ(c, Codec::kFp16);
  EXPECT_FALSE(tensor::codec_from_string("gzip", &c));
  // kNone round trip is the identity.
  std::vector<Scalar> v = {1.0, -2.5, 3.25};
  const std::vector<Scalar> orig = v;
  tensor::codec_roundtrip(Codec::kNone, v.data(), v.size());
  EXPECT_EQ(v, orig);
}

}  // namespace
}  // namespace avgpipe
