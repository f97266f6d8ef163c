// Lane arithmetic of the filter and verify kernels (see core/kernels.h).
// Lanes<W> wraps W doubles: Lanes<1> is plain scalar code and Lanes<4> is
// AVX2. Each operation is one IEEE operation per lane, so an expression
// written once over Lanes<W> rounds exactly like the scalar expression it
// mirrors. Comparisons return a bit mask with bit k set for lane k.
//
// Only the kernel sources (filter.cc, verify.cc) include this header; they
// are compiled with -ffp-contract=off.
#ifndef RINGJOIN_CORE_LANES_H_
#define RINGJOIN_CORE_LANES_H_

#include "core/kernels.h"

#if RINGJOIN_AVX2_KERNELS
#include <immintrin.h>
#endif

// Brackets code that must compile to AVX2 (but not FMA) instructions. In a
// GCC region, only functions declared inside it (and explicit
// instantiations made inside it) get the AVX2 target; implicit template
// instantiations keep the baseline target.
#if RINGJOIN_AVX2_KERNELS && !defined(__clang__)
#define RINGJOIN_AVX2_BEGIN \
  _Pragma("GCC push_options") _Pragma("GCC target(\"avx2\")")
#define RINGJOIN_AVX2_END _Pragma("GCC pop_options")
#else
#define RINGJOIN_AVX2_BEGIN
#define RINGJOIN_AVX2_END
#endif

namespace rcj {
namespace kernel {

template <int W>
struct Lanes;

template <>
struct Lanes<1> {
  using V = double;
  static V Set(double x) { return x; }
  static V Load(const double* p) { return *p; }
  static V Add(V a, V b) { return a + b; }
  static V Sub(V a, V b) { return a - b; }
  static V Mul(V a, V b) { return a * b; }
  /// a > b ? a : b (the x86 maxpd rule).
  static V Max(V a, V b) { return a > b ? a : b; }
  /// n > 0 ? a : b.
  static V IfPositive(V n, V a, V b) { return n > 0.0 ? a : b; }
  static unsigned Less(V a, V b) { return a < b ? 1u : 0u; }
  static unsigned Greater(V a, V b) { return a > b ? 1u : 0u; }
};

#if RINGJOIN_AVX2_KERNELS
RINGJOIN_AVX2_BEGIN
template <>
struct Lanes<4> {
  using V = __m256d;
  static V Set(double x) { return _mm256_set1_pd(x); }
  static V Load(const double* p) { return _mm256_load_pd(p); }
  static V Add(V a, V b) { return _mm256_add_pd(a, b); }
  static V Sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V Mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V Max(V a, V b) { return _mm256_max_pd(a, b); }
  static V IfPositive(V n, V a, V b) {
    return _mm256_blendv_pd(
        b, a, _mm256_cmp_pd(n, _mm256_setzero_pd(), _CMP_GT_OQ));
  }
  static unsigned Less(V a, V b) {
    return static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(a, b, _CMP_LT_OQ)));
  }
  static unsigned Greater(V a, V b) {
    return static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(a, b, _CMP_GT_OQ)));
  }
};
RINGJOIN_AVX2_END
#endif

}  // namespace kernel
}  // namespace rcj

#endif  // RINGJOIN_CORE_LANES_H_
