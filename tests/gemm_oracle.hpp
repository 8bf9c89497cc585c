#pragma once

/// \file gemm_oracle.hpp
/// The unblocked i-p-j GEMM loop, kept as the oracle the library's GEMM
/// kernels are checked against: tensor::gemm_reference must match it bit
/// for bit on every ISA build, and gemm_blocked within an FMA tolerance
/// (tests/kernel_test.cpp, `micro_benchmarks --json`).
///
/// Per C element: start at +0.0 (or at C when accumulating), then for p
/// ascending add the rounded product op(A)[i][p] * op(B)[p][j], skipping
/// the terms whose op(A)[i][p] == 0 (so 0 * Inf leaves no NaN).
///
/// A file that includes this must be compiled with -ffp-contract=off:
/// otherwise a build for an FMA target may fuse the multiply and the add.

#include <algorithm>
#include <cstddef>

#include "tensor/kernels.hpp"

namespace avgpipe::oracle {

/// C (+)= op(A) * op(B), the contract of tensor::gemm_reference.
inline void gemm_loop(const tensor::Scalar* a, const tensor::Scalar* b,
                      tensor::Scalar* c, std::size_t m, std::size_t n,
                      std::size_t k, bool trans_a, bool trans_b,
                      bool accumulate, const tensor::GemmOpts& opts = {}) {
  const std::size_t lda = opts.lda ? opts.lda : (trans_a ? m : k);
  const std::size_t ldb = opts.ldb ? opts.ldb : (trans_b ? k : n);
  const std::size_t ldc = opts.ldc ? opts.ldc : n;
  for (std::size_t i = 0; i < m; ++i) {
    tensor::Scalar* crow = c + i * ldc;
    if (!accumulate) std::fill(crow, crow + n, 0.0);
    for (std::size_t p = 0; p < k; ++p) {
      const tensor::Scalar av = trans_a ? a[p * lda + i] : a[i * lda + p];
      if (av == 0.0) continue;
      for (std::size_t j = 0; j < n; ++j) {
        crow[j] += av * (trans_b ? b[j * ldb + p] : b[p * ldb + j]);
      }
    }
  }
}

}  // namespace avgpipe::oracle
