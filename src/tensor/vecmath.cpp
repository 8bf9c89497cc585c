/// \file vecmath.cpp
/// Vector tanh and exp over spans of doubles (declared in kernels.hpp).
///
/// One branch-free scalar body per function, force-inlined into a loop that
/// is compiled three times: for the baseline ISA, for AVX2 and for AVX-512F.
/// The dispatcher picks the widest build the CPU supports, the same way the
/// GEMM picks its micro-kernel. Every lane runs the same IEEE operations in
/// the same order, and this file is compiled with -ffp-contract=off so no
/// build fuses a multiply and an add into an FMA; the three builds are
/// therefore bit-identical.
///
/// Both functions share one reduction: x = k*ln2 + r with k = round(x/ln2)
/// and |r| <= ln2/2, then expm1(r) from its Taylor polynomial to degree 13
/// (truncation error below 0.1 ulp on that interval).
///   exp(x)  = (1 + expm1(r)) * 2^k, with 2^k applied as two factors so
///             subnormal results round once and k never leaves the exponent
///             range;
///   tanh(x) = sign(x) * e / (e + 2), with e = expm1(2|x|) = 2^k expm1(r) +
///             (2^k - 1).
/// Saturation uses comparisons that let NaN through, so NaN in gives NaN out.

#include <bit>
#include <cstdint>

#include "common/check.hpp"
#include "tensor/kernels.hpp"

namespace avgpipe::tensor {

namespace {

constexpr double kLog2e = 0x1.71547652b82fep0;
// Cody-Waite split of ln2: kLn2Hi has 32 significant bits, so k * kLn2Hi is
// exact for every |k| this file produces.
constexpr double kLn2Hi = 0x1.62e42fee00000p-1;
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
// Adding 1.5 * 2^52 rounds a double below 2^51 in magnitude to the nearest
// integer, which then sits in the low bits of the sum's mantissa.
constexpr double kShift = 0x1.8p52;
constexpr std::uint64_t kSignBit = 0x8000000000000000ull;

// exp(x) is inf above 709.79 and 0 below -745.14; clamping just past those
// keeps k within [-1077, 1025] without changing any result.
constexpr double kExpHi = 710.0;
constexpr double kExpLo = -746.0;
// tanh(x) rounds to 1 for |x| > 19.07, so 2|x| saturates at 40.
constexpr double kTanhArgHi = 40.0;

/// 2^k for the integer k held as `shifted` = k + kShift, k in [-1022, 1023]:
/// the low bits of the sum's pattern are k in two's complement, and the
/// shift drops everything above the biased exponent.
__attribute__((always_inline)) inline double pow2(double shifted) {
  return std::bit_cast<double>((std::bit_cast<std::uint64_t>(shifted) + 1023)
                               << 52);
}

/// expm1(r) for |r| <= ln2/2: r + r^2 * sum_{n=2..13} r^(n-2) / n!.
__attribute__((always_inline)) inline double expm1_poly(double r) {
  double q = 0x1.6124613a86d09p-33;  // 1/13!
  q = q * r + 0x1.1eed8eff8d898p-29;  // 1/12!
  q = q * r + 0x1.ae64567f544e4p-26;  // 1/11!
  q = q * r + 0x1.27e4fb7789f5cp-22;  // 1/10!
  q = q * r + 0x1.71de3a556c734p-19;  // 1/9!
  q = q * r + 0x1.a01a01a01a01ap-16;  // 1/8!
  q = q * r + 0x1.a01a01a01a01ap-13;  // 1/7!
  q = q * r + 0x1.6c16c16c16c17p-10;  // 1/6!
  q = q * r + 0x1.1111111111111p-7;   // 1/5!
  q = q * r + 0x1.5555555555555p-5;   // 1/4!
  q = q * r + 0x1.5555555555555p-3;   // 1/3!
  q = q * r + 0.5;                    // 1/2!
  return r + (r * r) * q;
}

__attribute__((always_inline)) inline double exp_body(double x) {
  // Written so a NaN compares false and passes through unchanged.
  x = x > kExpHi ? kExpHi : x;
  x = x < kExpLo ? kExpLo : x;
  const double ks = x * kLog2e + kShift;
  const double k = ks - kShift;
  const double r = (x - k * kLn2Hi) - k * kLn2Lo;
  const double p = expm1_poly(r);
  // 2^k = 2^h * 2^(k-h) with h = round(k/2): both factors stay normal, and
  // the product rounds once, at the second multiply.
  const double hs = k * 0.5 + kShift;
  const double h = hs - kShift;
  const double ls = (k - h) + kShift;
  return ((1.0 + p) * pow2(hs)) * pow2(ls);
}

__attribute__((always_inline)) inline double tanh_body(double x) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  double y = 2.0 * std::bit_cast<double>(bits & ~kSignBit);
  y = y > kTanhArgHi ? kTanhArgHi : y;
  const double ks = y * kLog2e + kShift;
  const double k = ks - kShift;
  const double r = (y - k * kLn2Hi) - k * kLn2Lo;
  const double s = pow2(ks);
  const double e = s * expm1_poly(r) + (s - 1.0);  // expm1(2|x|)
  const double t = e / (e + 2.0);
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(t) |
                               (bits & kSignBit));
}

// `y` may equal `x`: element i is read before it is written and no other
// element is touched, so there is no loop-carried dependence and the
// vectorizer may skip its overlap check (which would fall back to scalar
// code for in-place calls).
#if defined(__clang__)
#define AVGPIPE_VECMATH_NO_DEP _Pragma("clang loop vectorize(assume_safety)")
#else
#define AVGPIPE_VECMATH_NO_DEP _Pragma("GCC ivdep")
#endif
#define AVGPIPE_VECMATH_LOOP(body) \
  AVGPIPE_VECMATH_NO_DEP           \
  for (std::size_t i = 0; i < n; ++i) y[i] = body(x[i]);

void tanh_portable(const Scalar* x, Scalar* y, std::size_t n) {
  AVGPIPE_VECMATH_LOOP(tanh_body)
}
void exp_portable(const Scalar* x, Scalar* y, std::size_t n) {
  AVGPIPE_VECMATH_LOOP(exp_body)
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define AVGPIPE_VECMATH_X86 1
__attribute__((target("avx2"))) void tanh_avx2(const Scalar* x, Scalar* y,
                                               std::size_t n) {
  AVGPIPE_VECMATH_LOOP(tanh_body)
}
__attribute__((target("avx2"))) void exp_avx2(const Scalar* x, Scalar* y,
                                              std::size_t n) {
  AVGPIPE_VECMATH_LOOP(exp_body)
}
__attribute__((target("avx512f"))) void tanh_avx512(const Scalar* x,
                                                    Scalar* y, std::size_t n) {
  AVGPIPE_VECMATH_LOOP(tanh_body)
}
__attribute__((target("avx512f"))) void exp_avx512(const Scalar* x, Scalar* y,
                                                   std::size_t n) {
  AVGPIPE_VECMATH_LOOP(exp_body)
}
#endif

#undef AVGPIPE_VECMATH_LOOP
#undef AVGPIPE_VECMATH_NO_DEP

using SpanKernel = void (*)(const Scalar*, Scalar*, std::size_t);

struct SpanKernels {
  SpanKernel tanh;
  SpanKernel exp;
};

SpanKernels kernels_for(detail::GemmIsa isa) {
  switch (isa) {
#ifdef AVGPIPE_VECMATH_X86
    case detail::GemmIsa::kAvx512:
      return {tanh_avx512, exp_avx512};
    case detail::GemmIsa::kAvx2:
      return {tanh_avx2, exp_avx2};
#endif
    default:
      return {tanh_portable, exp_portable};
  }
}

SpanKernels checked_kernels_for(detail::GemmIsa isa) {
  AVGPIPE_CHECK(detail::gemm_isa_supported(isa),
                "vector math kernel " << detail::to_string(isa)
                                      << " not supported here");
  return kernels_for(isa);
}

const SpanKernels selected = kernels_for(detail::widest_supported_isa());

}  // namespace

void vec_tanh(const Scalar* x, Scalar* y, std::size_t n) {
  selected.tanh(x, y, n);
}

void vec_exp(const Scalar* x, Scalar* y, std::size_t n) {
  selected.exp(x, y, n);
}

namespace detail {

void vec_tanh_isa(GemmIsa isa, const Scalar* x, Scalar* y, std::size_t n) {
  checked_kernels_for(isa).tanh(x, y, n);
}

void vec_exp_isa(GemmIsa isa, const Scalar* x, Scalar* y, std::size_t n) {
  checked_kernels_for(isa).exp(x, y, n);
}

}  // namespace detail

}  // namespace avgpipe::tensor
