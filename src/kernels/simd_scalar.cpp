/**
 * @file
 * Scalar kernel backend: the one-lane instantiation of the shared
 * backend template. Compiled with the project's default flags on
 * every platform, it is both the portable fallback and the oracle
 * the property tests pin via forceTier(Tier::Scalar).
 */
#include "kernels/simd_backends.hpp"

#include "kernels/simd_backend.inc.hpp"

namespace pgcn::kernels::simd {

namespace {

struct ScalarPolicy
{
    static constexpr uint64_t W = 1;
    using V = float;
    static V load(const float *p) { return *p; }
    static void store(float *p, V v) { *p = v; }
    static V set1(float x) { return x; }
    static V zero() { return 0.0f; }
    static V fma(V a, V b, V c) { return a * b + c; }
    static V add(V a, V b) { return a + b; }
    static V max0(V a) { return a < 0.0f ? 0.0f : a; }
    // One lane: a partial register is empty, so the tails never run.
    static V loadN(const float *p, uint64_t n) { return n > 0 ? *p : 0.0f; }
    static void storeN(float *p, V v, uint64_t n)
    {
        if (n > 0)
            *p = v;
    }
};

} // namespace

const Ops &
scalarOps()
{
    static const Ops table = detail::makeOps<ScalarPolicy>(Tier::Scalar);
    return table;
}

} // namespace pgcn::kernels::simd
