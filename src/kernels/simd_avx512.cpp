/**
 * @file
 * AVX-512F kernel backend: 16-lane fp32 instantiation of the shared
 * backend template. Compiled with -mavx512f (per-file flags set in
 * CMake) and reached only through the dispatch table after a CPUID
 * check, so the binary still runs on narrower machines.
 */
#include "kernels/simd_backends.hpp"

#ifdef PGCN_SIMD_HAVE_AVX512

#include <immintrin.h>

#include "kernels/simd_backend.inc.hpp"

namespace pgcn::kernels::simd {

namespace {

struct Avx512Policy
{
    static constexpr uint64_t W = 16;
    using V = __m512;
    static V load(const float *p) { return _mm512_loadu_ps(p); }
    static void store(float *p, V v) { _mm512_storeu_ps(p, v); }
    static V set1(float x) { return _mm512_set1_ps(x); }
    static V zero() { return _mm512_setzero_ps(); }
    static V fma(V a, V b, V c) { return _mm512_fmadd_ps(a, b, c); }
    static V add(V a, V b) { return _mm512_add_ps(a, b); }
    static V max0(V a) { return _mm512_max_ps(a, _mm512_setzero_ps()); }
    /** First n (< W) lanes; masked-off lanes are neither read nor written. */
    static __mmask16 mask(uint64_t n)
    {
        return static_cast<__mmask16>((1u << n) - 1u);
    }
    static V loadN(const float *p, uint64_t n)
    {
        return _mm512_maskz_loadu_ps(mask(n), p);
    }
    static void storeN(float *p, V v, uint64_t n)
    {
        _mm512_mask_storeu_ps(p, mask(n), v);
    }
};

} // namespace

const Ops &
avx512Ops()
{
    static const Ops table = detail::makeOps<Avx512Policy>(Tier::Avx512);
    return table;
}

} // namespace pgcn::kernels::simd

#endif // PGCN_SIMD_HAVE_AVX512
