/**
 * @file
 * AVX2+FMA kernel backend: 8-lane fp32 instantiation of the shared
 * backend template. This translation unit is compiled with
 * -mavx2 -mfma (per-file flags set in CMake); its code is only ever
 * reached through the dispatch table after a CPUID check, so linking
 * it into a binary that runs on a non-AVX2 machine is safe.
 */
#include "kernels/simd_backends.hpp"

#ifdef PGCN_SIMD_HAVE_AVX2

#include <immintrin.h>

#include "kernels/simd_backend.inc.hpp"

namespace pgcn::kernels::simd {

namespace {

struct Avx2Policy
{
    static constexpr uint64_t W = 8;
    using V = __m256;
    static V load(const float *p) { return _mm256_loadu_ps(p); }
    static void store(float *p, V v) { _mm256_storeu_ps(p, v); }
    static V set1(float x) { return _mm256_set1_ps(x); }
    static V zero() { return _mm256_setzero_ps(); }
    static V fma(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
    static V add(V a, V b) { return _mm256_add_ps(a, b); }
    static V max0(V a) { return _mm256_max_ps(a, _mm256_setzero_ps()); }
    /** First n (< W) lanes; masked-off lanes are neither read nor written. */
    static __m256i mask(uint64_t n)
    {
        return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                                  _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    }
    static V loadN(const float *p, uint64_t n)
    {
        return _mm256_maskload_ps(p, mask(n));
    }
    static void storeN(float *p, V v, uint64_t n)
    {
        _mm256_maskstore_ps(p, mask(n), v);
    }
};

} // namespace

const Ops &
avx2Ops()
{
    static const Ops table = detail::makeOps<Avx2Policy>(Tier::Avx2);
    return table;
}

} // namespace pgcn::kernels::simd

#endif // PGCN_SIMD_HAVE_AVX2
