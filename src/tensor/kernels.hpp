#pragma once

/// \file kernels.hpp
/// High-performance compute kernels under the autograd ops.
///
/// The centrepiece is a cache-blocked, panel-packed GEMM in the classic
/// GotoBLAS/BLIS loop nest: op(B) is packed into KCx16 column panels and
/// op(A) into MCxKC row panels of 8-row strips (transposes are absorbed by
/// the packing gathers, so the micro-kernel always streams contiguous
/// memory), and an 8x16 register-tiled micro-kernel accumulates C tiles.
/// The micro-kernel is picked once at startup from what the CPU supports:
/// explicit AVX-512F intrinsics (16 zmm accumulators), the AVX2+FMA build
/// of a portable 4x8 body run as four sub-tiles, or that body built for the
/// baseline ISA. All three share one loop nest and one packing layout, and
/// every C element sees the same operation sequence (zeroed accumulator,
/// one multiply-add per k in ascending order within a KC panel, then store
/// or add), so the two FMA kernels are bit-identical. Row-panel blocks are
/// fanned out over the process-wide ThreadPool; each worker writes a
/// disjoint set of C rows, so results are bit-identical for any thread
/// count.
///
/// `gemm_reference` keeps the original unblocked triple loop as the parity
/// oracle (tests/kernel_test.cpp) and the baseline the micro-benchmarks
/// measure speedups against.

#include <cstddef>
#include <cstdint>

#include "tensor/tensor.hpp"

namespace avgpipe::tensor {

/// Per-thread running count of floating-point operations issued through the
/// gemm dispatcher (2·m·n·k per call). The count accrues on the *issuing*
/// thread even when the blocked kernel fans row panels out to pool workers,
/// so a pipeline stage thread's delta across an instruction is that
/// instruction's full matmul work — the basis of the per-stage achieved
/// GFLOP/s counter (trace::CounterId::kFlops). Monotone per thread; sample
/// deltas, don't reset.
std::uint64_t thread_flops();

namespace detail {
/// Fold `n` issued FLOPs into the calling thread's counter (ops.cpp's gemm
/// dispatch; not meant for user code).
void add_thread_flops(std::uint64_t n);

/// The instruction sets the GEMM micro-kernels and the vector math kernels
/// are built for. The dispatchers pick the widest one the CPU supports;
/// tests reach each build through gemm_blocked_isa / vec_*_isa.
enum class GemmIsa { kPortable, kAvx2, kAvx512 };
const char* to_string(GemmIsa isa);
bool gemm_isa_supported(GemmIsa isa);
GemmIsa widest_supported_isa();

/// gemm_blocked with the micro-kernel for `isa` (which must be supported).
void gemm_blocked_isa(GemmIsa isa, const Scalar* a, const Scalar* b,
                      Scalar* c, std::size_t m, std::size_t n, std::size_t k,
                      bool trans_a, bool trans_b, bool accumulate);

/// vec_tanh / vec_exp with the build for `isa` (which must be supported).
void vec_tanh_isa(GemmIsa isa, const Scalar* x, Scalar* y, std::size_t n);
void vec_exp_isa(GemmIsa isa, const Scalar* x, Scalar* y, std::size_t n);
}  // namespace detail

/// Name of the micro-kernel gemm_blocked runs on this machine: "avx512",
/// "avx2" or "portable".
const char* gemm_isa();

/// The pre-optimisation scalar GEMM (unblocked i-p-j loops). Kept as the
/// parity/benchmark reference. C (+)= op(A) * op(B).
void gemm_reference(const Scalar* a, const Scalar* b, Scalar* c, std::size_t m,
                    std::size_t n, std::size_t k, bool trans_a, bool trans_b,
                    bool accumulate);

/// Cache-blocked packed GEMM, parallelised over row panels via
/// ThreadPool::global(). Same contract as gemm_reference.
void gemm_blocked(const Scalar* a, const Scalar* b, Scalar* c, std::size_t m,
                  std::size_t n, std::size_t k, bool trans_a, bool trans_b,
                  bool accumulate);

/// y[i] = tanh(x[i]) and y[i] = exp(x[i]) for i < n (vecmath.cpp): a fixed
/// range reduction and polynomial, within 4 ulp of libm, with the same bits
/// on every ISA. `y` may equal `x` but must not otherwise overlap it. Every
/// transcendental in the tensor ops runs through these two.
void vec_tanh(const Scalar* x, Scalar* y, std::size_t n);
void vec_exp(const Scalar* x, Scalar* y, std::size_t n);

/// Problem-size threshold (in multiply-adds, m*n*k) below which the packing
/// overhead of the blocked kernel is not worth it and `gemm` dispatches to
/// the reference loop.
inline constexpr std::size_t kGemmBlockedThreshold = 8192;

}  // namespace avgpipe::tensor
