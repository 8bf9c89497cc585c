#include "tensor/kernels.hpp"

#include <algorithm>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "tensor/arena.hpp"

namespace avgpipe::tensor {

namespace {
thread_local std::uint64_t tls_flops = 0;
}  // namespace

std::uint64_t thread_flops() { return tls_flops; }

namespace detail {
void add_thread_flops(std::uint64_t n) { tls_flops += n; }

GemmOpts resolve_gemm_opts(GemmOpts opts, std::size_t m, std::size_t n,
                           std::size_t k, bool trans_a, bool trans_b) {
  const std::size_t a_row = trans_a ? m : k, b_row = trans_b ? k : n;
  if (opts.lda == 0) opts.lda = a_row;
  if (opts.ldb == 0) opts.ldb = b_row;
  if (opts.ldc == 0) opts.ldc = n;
  AVGPIPE_CHECK(opts.lda >= a_row && opts.ldb >= b_row && opts.ldc >= n,
                "gemm leading dimension below the stored row length");
  return opts;
}
}  // namespace detail

namespace {

// Register tile and cache-block sizes, tuned for doubles: the B micro-panel
// (KC x NR = 32 KB) streams through L1, the packed A block (MC x KC =
// 128 KB) lives in L2, and the packed B panel (KC x NC <= 2 MB) in L3. The
// block sizes are multiples of the tile, so only a matrix edge ever leaves
// a partial tile.
constexpr std::size_t kMr = 8;
constexpr std::size_t kNr = 16;
constexpr std::size_t kKc = 256;
constexpr std::size_t kMc = 64;
constexpr std::size_t kNc = 1024;

// Pack buffers hold whole (zero-padded) micro-panels, so round the block
// dims up to full panel multiples.
constexpr std::size_t kAPackElems = ((kMc + kMr - 1) / kMr) * kMr * kKc;
constexpr std::size_t kBPackElems = ((kNc + kNr - 1) / kNr) * kNr * kKc;

/// Pack op(B)[pc:pc+kc, jc:jc+nc] into column panels of width kNr:
/// dst[panel][p][0..kNr) with zero padding past nc.
void pack_b(Scalar* dst, const Scalar* b, std::size_t pc, std::size_t jc,
            std::size_t kc, std::size_t nc, std::size_t ldb, bool trans_b) {
  for (std::size_t jr = 0; jr < nc; jr += kNr) {
    const std::size_t width = std::min(kNr, nc - jr);
    for (std::size_t p = 0; p < kc; ++p) {
      Scalar* out = dst + jr * kc + p * kNr;
      if (trans_b) {
        // op(B)[p][j] = b[j*ldb + p]
        const Scalar* src = b + (jc + jr) * ldb + (pc + p);
        for (std::size_t j = 0; j < width; ++j) out[j] = src[j * ldb];
      } else {
        const Scalar* src = b + (pc + p) * ldb + jc + jr;
        for (std::size_t j = 0; j < width; ++j) out[j] = src[j];
      }
      for (std::size_t j = width; j < kNr; ++j) out[j] = 0.0;
    }
  }
}

/// Pack op(A)[ic:ic+mc, pc:pc+kc] into row panels of height kMr:
/// dst[panel][p][0..kMr) with zero padding past mc.
void pack_a(Scalar* dst, const Scalar* a, std::size_t ic, std::size_t pc,
            std::size_t mc, std::size_t kc, std::size_t lda, bool trans_a) {
  for (std::size_t ir = 0; ir < mc; ir += kMr) {
    const std::size_t height = std::min(kMr, mc - ir);
    for (std::size_t p = 0; p < kc; ++p) {
      Scalar* out = dst + ir * kc + p * kMr;
      if (trans_a) {
        // op(A)[i][p] = a[p*lda + i]
        const Scalar* src = a + (pc + p) * lda + ic + ir;
        for (std::size_t i = 0; i < height; ++i) out[i] = src[i];
      } else {
        const Scalar* src = a + (ic + ir) * lda + (pc + p);
        for (std::size_t i = 0; i < height; ++i) out[i] = src[i * lda];
      }
      for (std::size_t i = height; i < kMr; ++i) out[i] = 0.0;
    }
  }
}

// Every micro-kernel computes the same per-element sequence: the
// accumulator starts at zero, takes one multiply-add per p in ascending
// order, and is then stored (C = acc) or added (C += acc). Kernels with FMA
// therefore agree bit for bit whatever their tile shape.

/// 4x8 sub-tile of a kMr x kNr tile: `ap`/`bp` point into the packed panels
/// at the sub-tile's first row/column, so rows step by kMr and columns by
/// kNr per p. `mr`/`nr` bound the stores for edge tiles; the multiply loop
/// always runs the full (zero-padded) sub-tile so it stays branch-free and
/// unrollable. Force-inlined into per-ISA wrappers below so the compiler
/// re-vectorizes it for each target.
constexpr std::size_t kSubMr = 4;
constexpr std::size_t kSubNr = 8;

__attribute__((always_inline)) inline void sub_tile_body(
    std::size_t kc, const Scalar* ap, const Scalar* bp, Scalar* c,
    std::size_t ldc, std::size_t mr, std::size_t nr, bool overwrite) {
  Scalar acc[kSubMr][kSubNr] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const Scalar* arow = ap + p * kMr;
    const Scalar* brow = bp + p * kNr;
    for (std::size_t i = 0; i < kSubMr; ++i) {
      const Scalar av = arow[i];
      for (std::size_t j = 0; j < kSubNr; ++j) acc[i][j] += av * brow[j];
    }
  }
  if (overwrite) {
    for (std::size_t i = 0; i < mr; ++i) {
      for (std::size_t j = 0; j < nr; ++j) c[i * ldc + j] = acc[i][j];
    }
  } else {
    for (std::size_t i = 0; i < mr; ++i) {
      for (std::size_t j = 0; j < nr; ++j) c[i * ldc + j] += acc[i][j];
    }
  }
}

/// Covers a kMr x kNr tile with 4x8 sub-tiles, skipping those wholly past
/// the `mr` x `nr` edge.
__attribute__((always_inline)) inline void tile_by_sub_tiles(
    std::size_t kc, const Scalar* ap, const Scalar* bp, Scalar* c,
    std::size_t ldc, std::size_t mr, std::size_t nr, bool overwrite) {
  for (std::size_t i0 = 0; i0 < mr; i0 += kSubMr) {
    for (std::size_t j0 = 0; j0 < nr; j0 += kSubNr) {
      sub_tile_body(kc, ap + i0, bp + j0, c + i0 * ldc + j0, ldc,
                    std::min(kSubMr, mr - i0), std::min(kSubNr, nr - j0),
                    overwrite);
    }
  }
}

void micro_kernel_portable(std::size_t kc, const Scalar* ap, const Scalar* bp,
                           Scalar* c, std::size_t ldc, std::size_t mr,
                           std::size_t nr, bool overwrite) {
  tile_by_sub_tiles(kc, ap, bp, c, ldc, mr, nr, overwrite);
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define AVGPIPE_GEMM_X86 1
/// The sub-tile body recompiled for AVX2+FMA: each 4x8 accumulator becomes
/// 8 ymm registers with broadcast-FMA inner ops. Selected at runtime so the
/// binary still runs (and stays bit-stable) on machines without AVX2.
__attribute__((target("avx2,fma"))) void micro_kernel_avx2(
    std::size_t kc, const Scalar* ap, const Scalar* bp, Scalar* c,
    std::size_t ldc, std::size_t mr, std::size_t nr, bool overwrite) {
  tile_by_sub_tiles(kc, ap, bp, c, ldc, mr, nr, overwrite);
}

/// The whole 8x16 tile in 16 zmm accumulators: per p, two B loads, eight
/// A broadcasts and sixteen FMAs. Edge tiles mask the C loads and stores.
__attribute__((target("avx512f"))) void micro_kernel_avx512(
    std::size_t kc, const Scalar* ap, const Scalar* bp, Scalar* c,
    std::size_t ldc, std::size_t mr, std::size_t nr, bool overwrite) {
  __m512d acc[kMr][2];
#pragma GCC unroll 8
  for (std::size_t i = 0; i < kMr; ++i) {
    acc[i][0] = _mm512_setzero_pd();
    acc[i][1] = _mm512_setzero_pd();
  }
  for (std::size_t p = 0; p < kc; ++p) {
    const __m512d b0 = _mm512_loadu_pd(bp + p * kNr);
    const __m512d b1 = _mm512_loadu_pd(bp + p * kNr + 8);
    const Scalar* arow = ap + p * kMr;
#pragma GCC unroll 8
    for (std::size_t i = 0; i < kMr; ++i) {
      const __m512d av = _mm512_set1_pd(arow[i]);
      acc[i][0] = _mm512_fmadd_pd(av, b0, acc[i][0]);
      acc[i][1] = _mm512_fmadd_pd(av, b1, acc[i][1]);
    }
  }
  // Column masks for the two 8-wide halves of the tile.
  const auto half_mask = [](std::size_t w) -> __mmask8 {
    return w >= 8 ? __mmask8{0xFF} : static_cast<__mmask8>((1u << w) - 1);
  };
  const __mmask8 m0 = half_mask(nr);
  const __mmask8 m1 = half_mask(nr > 8 ? nr - 8 : 0);
  // A constant trip count keeps acc in registers; edge tiles stop at mr.
#pragma GCC unroll 8
  for (std::size_t i = 0; i < kMr; ++i) {
    if (i >= mr) break;
    Scalar* crow = c + i * ldc;
    __m512d lo = acc[i][0];
    __m512d hi = acc[i][1];
    if (!overwrite) {
      lo = _mm512_add_pd(_mm512_maskz_loadu_pd(m0, crow), lo);
      hi = _mm512_add_pd(_mm512_maskz_loadu_pd(m1, crow + 8), hi);
    }
    _mm512_mask_storeu_pd(crow, m0, lo);
    _mm512_mask_storeu_pd(crow + 8, m1, hi);
  }
}
#endif

using MicroKernel = void (*)(std::size_t, const Scalar*, const Scalar*,
                             Scalar*, std::size_t, std::size_t, std::size_t,
                             bool);

MicroKernel micro_kernel_for(detail::GemmIsa isa) {
  switch (isa) {
#ifdef AVGPIPE_GEMM_X86
    case detail::GemmIsa::kAvx512:
      return micro_kernel_avx512;
    case detail::GemmIsa::kAvx2:
      return micro_kernel_avx2;
#endif
    default:
      return micro_kernel_portable;
  }
}

const detail::GemmIsa selected_isa = detail::widest_supported_isa();
const MicroKernel micro_kernel = micro_kernel_for(selected_isa);

void gemm_blocked_with(MicroKernel kernel, const Scalar* a, const Scalar* b,
                       Scalar* c, std::size_t m, std::size_t n, std::size_t k,
                       bool trans_a, bool trans_b, bool accumulate,
                       const GemmOpts& opts) {
  if (m == 0 || n == 0) return;
  const auto [lda, ldb, ldc] =
      detail::resolve_gemm_opts(opts, m, n, k, trans_a, trans_b);
  if (k == 0) {
    if (!accumulate) {
      for (std::size_t i = 0; i < m; ++i) std::fill_n(c + i * ldc, n, 0.0);
    }
    return;
  }

  const std::size_t num_row_blocks = (m + kMc - 1) / kMc;
  Scalar* bpack = arena::acquire(kBPackElems);

  for (std::size_t jc = 0; jc < n; jc += kNc) {
    const std::size_t nc = std::min(kNc, n - jc);
    for (std::size_t pc = 0; pc < k; pc += kKc) {
      const std::size_t kc = std::min(kKc, k - pc);
      // The packed panel is shared read-only by every row-block task; the
      // parallel_for dispatch orders the pack before the reads.
      pack_b(bpack, b, pc, jc, kc, nc, ldb, trans_b);
      const bool overwrite = (pc == 0) && !accumulate;

      ThreadPool::global().parallel_for(
          0, num_row_blocks,
          [&](std::size_t blk_lo, std::size_t blk_hi) {
            Scalar* apack = arena::acquire(kAPackElems);
            for (std::size_t blk = blk_lo; blk < blk_hi; ++blk) {
              const std::size_t ic = blk * kMc;
              const std::size_t mc = std::min(kMc, m - ic);
              pack_a(apack, a, ic, pc, mc, kc, lda, trans_a);
              for (std::size_t jr = 0; jr < nc; jr += kNr) {
                const std::size_t nr = std::min(kNr, nc - jr);
                for (std::size_t ir = 0; ir < mc; ir += kMr) {
                  const std::size_t mr = std::min(kMr, mc - ir);
                  kernel(kc, apack + ir * kc, bpack + jr * kc,
                         c + (ic + ir) * ldc + jc + jr, ldc, mr, nr,
                         overwrite);
                }
              }
            }
            arena::release(apack, kAPackElems);
          });
    }
  }
  arena::release(bpack, kBPackElems);
}

}  // namespace

namespace detail {

bool gemm_isa_supported(GemmIsa isa) {
  switch (isa) {
    case GemmIsa::kPortable:
      return true;
#ifdef AVGPIPE_GEMM_X86
    case GemmIsa::kAvx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    case GemmIsa::kAvx512:
      return __builtin_cpu_supports("avx512f");
#endif
    default:
      return false;
  }
}

GemmIsa widest_supported_isa() {
  for (const auto isa : {GemmIsa::kAvx512, GemmIsa::kAvx2}) {
    if (gemm_isa_supported(isa)) return isa;
  }
  return GemmIsa::kPortable;
}

void gemm_blocked_isa(GemmIsa isa, const Scalar* a, const Scalar* b,
                      Scalar* c, std::size_t m, std::size_t n, std::size_t k,
                      bool trans_a, bool trans_b, bool accumulate,
                      const GemmOpts& opts) {
  AVGPIPE_CHECK(gemm_isa_supported(isa),
                "gemm kernel " << to_string(isa) << " not supported here");
  gemm_blocked_with(micro_kernel_for(isa), a, b, c, m, n, k, trans_a,
                    trans_b, accumulate, opts);
}

const char* to_string(GemmIsa isa) {
  switch (isa) {
    case GemmIsa::kAvx512:
      return "avx512";
    case GemmIsa::kAvx2:
      return "avx2";
    case GemmIsa::kPortable:
      break;
  }
  return "portable";
}

}  // namespace detail

const char* gemm_isa() { return detail::to_string(selected_isa); }

void gemm_blocked(const Scalar* a, const Scalar* b, Scalar* c, std::size_t m,
                  std::size_t n, std::size_t k, bool trans_a, bool trans_b,
                  bool accumulate, const GemmOpts& opts) {
  gemm_blocked_with(micro_kernel, a, b, c, m, n, k, trans_a, trans_b,
                    accumulate, opts);
}

}  // namespace avgpipe::tensor
