/// \file small_gemm.cpp
/// gemm_reference, the GEMM for problems below kGemmBlockedThreshold
/// (declared in kernels.hpp).
///
/// Every C element sees the arithmetic of the unblocked i-p-j loop: it
/// starts at +0.0 (or at C when accumulating), p runs in ascending order, a
/// term whose op(A) value is zero is skipped (so a 0 * Inf never becomes a
/// NaN), and each product is rounded before it is added. What the kernel
/// drops is the loop's overhead. One C row is covered in strips of 32
/// columns (16 on the baseline ISA); a strip stays in registers, vectorized
/// across j, for the whole p loop and reads rows of op(B) contiguously.
/// Under trans_b, op(B) is first transposed once into arena scratch. The
/// columns past the last full strip run a width-bounded loop on C in place.
///
/// As in vecmath.cpp, one body is compiled for the baseline ISA, AVX2 and
/// AVX-512F, and the widest build the CPU supports is picked once at
/// startup. This file is compiled with -ffp-contract=off, so no build fuses
/// the multiply and the add: all three builds are bit-identical to the loop,
/// which tests/gemm_oracle.hpp keeps as the oracle.

#include <algorithm>
#include <cstring>

#include "common/check.hpp"
#include "tensor/arena.hpp"
#include "tensor/kernels.hpp"

namespace avgpipe::tensor {

namespace {

/// kLanes doubles in one vector register (a GCC vector extension). It is a
/// class member: GCC drops a dependent vector_size from an alias template
/// and parses a local typedef as a plain double.
template <std::size_t kLanes>
struct Vec {
  typedef Scalar type __attribute__((vector_size(kLanes * sizeof(Scalar))));
};

/// C[0..kLanes * kVecs) of one row, held in kVecs vector registers of
/// kLanes doubles for the whole p loop. op(A)[i][p] is a_row[p * a_step]
/// and op(B)[p][j] is b[p * ldb + j].
template <std::size_t kLanes, std::size_t kVecs>
__attribute__((always_inline)) inline void full_strip(
    const Scalar* a_row, std::size_t a_step, const Scalar* b, std::size_t ldb,
    Scalar* c, std::size_t k, bool accumulate) {
  using V = typename Vec<kLanes>::type;
  V acc[kVecs];
#pragma GCC unroll 16
  for (std::size_t v = 0; v < kVecs; ++v) {
    acc[v] = V{};
    if (accumulate) std::memcpy(&acc[v], c + v * kLanes, sizeof(V));
  }
  for (std::size_t p = 0; p < k; ++p) {
    const Scalar av = a_row[p * a_step];
    if (av == 0.0) continue;
    const Scalar* brow = b + p * ldb;
#pragma GCC unroll 16
    for (std::size_t v = 0; v < kVecs; ++v) {
      V bv;
      std::memcpy(&bv, brow + v * kLanes, sizeof(V));
      acc[v] += av * bv;
    }
  }
#pragma GCC unroll 16
  for (std::size_t v = 0; v < kVecs; ++v) {
    std::memcpy(c + v * kLanes, &acc[v], sizeof(V));
  }
}

/// C[0..width) of one row, accumulated in place.
__attribute__((always_inline)) inline void edge_strip(
    const Scalar* a_row, std::size_t a_step, const Scalar* b, std::size_t ldb,
    Scalar* __restrict c, std::size_t k, std::size_t width, bool accumulate) {
  if (!accumulate) std::fill_n(c, width, 0.0);
  for (std::size_t p = 0; p < k; ++p) {
    const Scalar av = a_row[p * a_step];
    if (av == 0.0) continue;
    const Scalar* __restrict brow = b + p * ldb;
    for (std::size_t j = 0; j < width; ++j) c[j] += av * brow[j];
  }
}

/// bt[p * n + j] = b[j * ldb + p]: op(B) of a trans_b call, k x n
/// row-major, written row by row in p order with one store per kLanes
/// columns, the vector width the strips load. The strips then read rows
/// whose stores have long retired, or are served by store forwarding; loads
/// that each span several recent scalar stores stall until those retire
/// (DESIGN.md section 10 gives the measured cost).
template <std::size_t kLanes>
__attribute__((always_inline)) inline void transpose_b(const Scalar* b,
                                                       std::size_t ldb,
                                                       std::size_t k,
                                                       std::size_t n,
                                                       Scalar* bt) {
  using V = typename Vec<kLanes>::type;
  const std::size_t full = n - n % kLanes;
  for (std::size_t p = 0; p < k; ++p) {
    Scalar* out = bt + p * n;
    for (std::size_t j = 0; j < full; j += kLanes) {
      V v;
#pragma GCC unroll 8
      for (std::size_t r = 0; r < kLanes; ++r) v[r] = b[(j + r) * ldb + p];
      std::memcpy(out + j, &v, sizeof(V));
    }
    for (std::size_t j = full; j < n; ++j) out[j] = b[j * ldb + p];
  }
}

/// C (+)= op(A) * op(B) in strips of kLanes * kVecs columns. Under trans_b,
/// op(B) is first written to `bt` (k x n scratch).
template <std::size_t kLanes, std::size_t kVecs>
__attribute__((always_inline)) inline void small_gemm_body(
    const Scalar* a, const Scalar* b, Scalar* c, std::size_t m, std::size_t n,
    std::size_t k, bool trans_a, bool trans_b, std::size_t lda,
    std::size_t ldb, std::size_t ldc, bool accumulate, Scalar* bt) {
  if (trans_b) {
    transpose_b<kLanes>(b, ldb, k, n, bt);
    b = bt;
    ldb = n;
  }
  const std::size_t a_row_step = trans_a ? 1 : lda;
  const std::size_t a_step = trans_a ? lda : 1;
  constexpr std::size_t kStrip = kLanes * kVecs;
  const std::size_t full = n - n % kStrip;
  for (std::size_t i = 0; i < m; ++i) {
    const Scalar* a_row = a + i * a_row_step;
    Scalar* c_row = c + i * ldc;
    for (std::size_t j = 0; j < full; j += kStrip) {
      full_strip<kLanes, kVecs>(a_row, a_step, b + j, ldb, c_row + j, k,
                                accumulate);
    }
    if (full < n) {
      edge_strip(a_row, a_step, b + full, ldb, c_row + full, k, n - full,
                 accumulate);
    }
  }
}

using SmallGemmKernel = void (*)(const Scalar*, const Scalar*, Scalar*,
                                 std::size_t, std::size_t, std::size_t, bool,
                                 bool, std::size_t, std::size_t, std::size_t,
                                 bool, Scalar*);

void small_gemm_portable(const Scalar* a, const Scalar* b, Scalar* c,
                         std::size_t m, std::size_t n, std::size_t k,
                         bool trans_a, bool trans_b, std::size_t lda,
                         std::size_t ldb, std::size_t ldc, bool accumulate,
                         Scalar* bt) {
  small_gemm_body<2, 8>(a, b, c, m, n, k, trans_a, trans_b, lda, ldb,
                        ldc, accumulate, bt);
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define AVGPIPE_SMALL_GEMM_X86 1
__attribute__((target("avx2"))) void small_gemm_avx2(
    const Scalar* a, const Scalar* b, Scalar* c, std::size_t m, std::size_t n,
    std::size_t k, bool trans_a, bool trans_b, std::size_t lda,
    std::size_t ldb, std::size_t ldc, bool accumulate, Scalar* bt) {
  small_gemm_body<4, 8>(a, b, c, m, n, k, trans_a, trans_b, lda, ldb,
                        ldc, accumulate, bt);
}

__attribute__((target("avx512f"))) void small_gemm_avx512(
    const Scalar* a, const Scalar* b, Scalar* c, std::size_t m, std::size_t n,
    std::size_t k, bool trans_a, bool trans_b, std::size_t lda,
    std::size_t ldb, std::size_t ldc, bool accumulate, Scalar* bt) {
  small_gemm_body<8, 4>(a, b, c, m, n, k, trans_a, trans_b, lda, ldb,
                        ldc, accumulate, bt);
}
#endif

SmallGemmKernel kernel_for(detail::GemmIsa isa) {
  switch (isa) {
#ifdef AVGPIPE_SMALL_GEMM_X86
    case detail::GemmIsa::kAvx512:
      return small_gemm_avx512;
    case detail::GemmIsa::kAvx2:
      return small_gemm_avx2;
#endif
    default:
      return small_gemm_portable;
  }
}

const SmallGemmKernel selected = kernel_for(detail::widest_supported_isa());

void gemm_reference_with(SmallGemmKernel kernel, const Scalar* a,
                         const Scalar* b, Scalar* c, std::size_t m,
                         std::size_t n, std::size_t k, bool trans_a,
                         bool trans_b, bool accumulate,
                         const GemmOpts& opts) {
  const auto [lda, ldb, ldc] =
      detail::resolve_gemm_opts(opts, m, n, k, trans_a, trans_b);
  if (m == 0 || n == 0) return;
  Scalar* bt = trans_b ? arena::acquire(k * n) : nullptr;
  kernel(a, b, c, m, n, k, trans_a, trans_b, lda, ldb, ldc, accumulate, bt);
  arena::release(bt, k * n);
}

}  // namespace

void gemm_reference(const Scalar* a, const Scalar* b, Scalar* c, std::size_t m,
                    std::size_t n, std::size_t k, bool trans_a, bool trans_b,
                    bool accumulate, const GemmOpts& opts) {
  gemm_reference_with(selected, a, b, c, m, n, k, trans_a, trans_b,
                      accumulate, opts);
}

namespace detail {

void gemm_reference_isa(GemmIsa isa, const Scalar* a, const Scalar* b,
                        Scalar* c, std::size_t m, std::size_t n, std::size_t k,
                        bool trans_a, bool trans_b, bool accumulate,
                        const GemmOpts& opts) {
  AVGPIPE_CHECK(gemm_isa_supported(isa),
                "small gemm kernel " << to_string(isa)
                                     << " not supported here");
  gemm_reference_with(kernel_for(isa), a, b, c, m, n, k, trans_a, trans_b,
                      accumulate, opts);
}

}  // namespace detail

}  // namespace avgpipe::tensor
