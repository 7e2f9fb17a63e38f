/**
 * @file
 * Shared templated implementation of the SIMD kernel backends.
 *
 * Each backend translation unit (simd_scalar.cpp, simd_avx2.cpp,
 * simd_avx512.cpp) defines a vector Policy — lane count plus
 * load/store/fma/max primitives over its register type — and
 * instantiates Backend<Policy> here, compiled with that TU's -m
 * flags. The kernels themselves are written once:
 *
 *  - axpy / relu / addBias: straight-line vector loops; the last
 *    partial register is a masked load/store (loadN/storeN), never a
 *    scalar loop.
 *  - spmmRowRange / spmmGatherRows: the feature dimension is walked
 *    in blocks of up to eight vector registers that stay resident
 *    across all non-zeros of a row (multi-accumulator inner loop), so
 *    each output row is written exactly once and the inner loop is
 *    pure FMA on loaded feature rows. A width that is not a multiple
 *    of the lane count ends in one masked register inside the last
 *    block (k = 47 on AVX-512 is one pass of 2 full + 1 masked).
 *  - gemmPackB / gemmPrepacked: BLIS-style packed GEMM. B is packed
 *    into NR-column panels (NR = two vector registers); the
 *    microkernel computes an MR x NR register tile (MR = kGemmMr)
 *    with KC-blocked accumulation over the inner dimension; a partial
 *    last panel stores through the mask, and one no wider than a
 *    register computes only that register.
 *
 * Every element is summed in the same order whichever block, tile or
 * mask computes it, so a caller that splits rows across threads gets
 * bit-identical results.
 */
#ifndef PGCN_KERNELS_SIMD_BACKEND_INC_HPP
#define PGCN_KERNELS_SIMD_BACKEND_INC_HPP

#include <algorithm>
#include <cstdint>

#include "kernels/simd.hpp"

namespace pgcn::kernels::simd::detail {

/** Inner-dimension cache block of the packed GEMM. */
inline constexpr uint64_t kGemmKc = 256;
/** Widest panel across tiers (AVX-512: NR = 2 * 16). */
inline constexpr uint64_t kGemmNrMax = 32;

template <class P> struct Backend
{
    using V = typename P::V;
    static constexpr uint64_t W = P::W;
    /** Panel width: two vector registers of columns. */
    static constexpr uint64_t NR = 2 * W;

    static void
    axpy(float *y, const float *x, float w, uint64_t k)
    {
        const V vw = P::set1(w);
        uint64_t j = 0;
        for (; j + 4 * W <= k; j += 4 * W) {
            P::store(y + j, P::fma(vw, P::load(x + j), P::load(y + j)));
            P::store(y + j + W,
                     P::fma(vw, P::load(x + j + W), P::load(y + j + W)));
            P::store(y + j + 2 * W, P::fma(vw, P::load(x + j + 2 * W),
                                           P::load(y + j + 2 * W)));
            P::store(y + j + 3 * W, P::fma(vw, P::load(x + j + 3 * W),
                                           P::load(y + j + 3 * W)));
        }
        for (; j + W <= k; j += W)
            P::store(y + j, P::fma(vw, P::load(x + j), P::load(y + j)));
        if (j < k) {
            const uint64_t n = k - j;
            P::storeN(y + j, P::fma(vw, P::loadN(x + j, n),
                                    P::loadN(y + j, n)), n);
        }
    }

    /**
     * One output row, feature block [j, j + (NB-1)*W + last): NB
     * accumulators held in registers across every non-zero of the
     * row, so each feature row is gathered in as few passes as
     * possible (NB = 8 covers a whole k=128 row in one pass on
     * AVX-512), and the row start — the one access the hardware
     * prefetcher cannot predict — is touched once instead of once per
     * pass. The last register covers @p last lanes (1..W) through the
     * policy's mask when last < W.
     */
    template <int NB, bool Tail>
    static void
    rowBlockN(float *out_row, const float *h_in, uint64_t k,
              const uint32_t *cols, const float *vals, uint64_t e0,
              uint64_t e1, uint64_t j, uint64_t last, bool accumulate)
    {
        // Only the last register of a Tail block is masked; b is a
        // constant once the register loops unroll, so the test folds.
        const auto masked = [](int b) { return Tail && b + 1 == NB; };
        V acc[NB];
        for (int b = 0; b < NB; ++b) {
            const float *o = out_row + j + static_cast<uint64_t>(b) * W;
            acc[b] = !accumulate ? P::zero()
                     : masked(b) ? P::loadN(o, last)
                                 : P::load(o);
        }
        for (uint64_t e = e0; e < e1; ++e) {
            const float *in =
                h_in + static_cast<uint64_t>(cols[e]) * k + j;
            const V vw = P::set1(vals[e]);
            for (int b = 0; b < NB; ++b) {
                const float *x = in + static_cast<uint64_t>(b) * W;
                acc[b] = P::fma(vw, masked(b) ? P::loadN(x, last)
                                              : P::load(x),
                                acc[b]);
            }
        }
        for (int b = 0; b < NB; ++b) {
            float *o = out_row + j + static_cast<uint64_t>(b) * W;
            if (masked(b))
                P::storeN(o, acc[b], last);
            else
                P::store(o, acc[b]);
        }
    }

    /** rowBlockN over the last (1..8)-register block of a row. */
    template <int NB>
    static void
    rowTail(float *out_row, const float *h_in, uint64_t k,
            const uint32_t *cols, const float *vals, uint64_t e0,
            uint64_t e1, uint64_t j, uint64_t last, bool accumulate)
    {
        if (last == W)
            rowBlockN<NB, false>(out_row, h_in, k, cols, vals, e0, e1, j,
                                 W, accumulate);
        else
            rowBlockN<NB, true>(out_row, h_in, k, cols, vals, e0, e1, j,
                                last, accumulate);
    }

    /**
     * One output row, all feature blocks: full eight-register blocks,
     * then one block of the remaining ceil(rest / W) registers.
     */
    static void
    rowKernel(float *out_row, const float *h_in, uint64_t k,
              const uint32_t *cols, const float *vals, uint64_t e0,
              uint64_t e1, bool accumulate)
    {
        uint64_t j = 0;
        for (; j + 8 * W <= k; j += 8 * W)
            rowBlockN<8, false>(out_row, h_in, k, cols, vals, e0, e1, j, W,
                                accumulate);
        if (j == k)
            return;
        const uint64_t rest = k - j;
        const uint64_t nb = (rest + W - 1) / W;
        const uint64_t last = rest - (nb - 1) * W;
        using TailFn = void (*)(float *, const float *, uint64_t,
                                const uint32_t *, const float *, uint64_t,
                                uint64_t, uint64_t, uint64_t, bool);
        static constexpr TailFn kTails[8] = {
            &rowTail<1>, &rowTail<2>, &rowTail<3>, &rowTail<4>,
            &rowTail<5>, &rowTail<6>, &rowTail<7>, &rowTail<8>};
        kTails[nb - 1](out_row, h_in, k, cols, vals, e0, e1, j, last,
                       accumulate);
    }

    static void
    spmmRowRange(float *out, const float *h_in, uint64_t k,
                 const uint64_t *offsets, const uint32_t *cols,
                 const float *vals, uint64_t row_begin, uint64_t row_end,
                 uint64_t out_row_base)
    {
        for (uint64_t u = row_begin; u < row_end; ++u) {
            float *out_row = out + (u - out_row_base) * k;
            rowKernel(out_row, h_in, k, cols, vals, offsets[u],
                      offsets[u + 1], /*accumulate=*/false);
        }
    }

    static void
    spmmGatherRows(float *out, const float *h_in, uint64_t k,
                   const uint32_t *row_ids, const uint64_t *offsets,
                   const uint32_t *cols, const float *vals,
                   uint64_t i_begin, uint64_t i_end)
    {
        for (uint64_t i = i_begin; i < i_end; ++i) {
            float *out_row =
                out + static_cast<uint64_t>(row_ids[i]) * k;
            rowKernel(out_row, h_in, k, cols, vals, offsets[i],
                      offsets[i + 1], /*accumulate=*/true);
        }
    }

    static void
    relu(float *p, uint64_t n)
    {
        uint64_t i = 0;
        for (; i + 4 * W <= n; i += 4 * W) {
            P::store(p + i, P::max0(P::load(p + i)));
            P::store(p + i + W, P::max0(P::load(p + i + W)));
            P::store(p + i + 2 * W, P::max0(P::load(p + i + 2 * W)));
            P::store(p + i + 3 * W, P::max0(P::load(p + i + 3 * W)));
        }
        for (; i + W <= n; i += W)
            P::store(p + i, P::max0(P::load(p + i)));
        if (i < n)
            P::storeN(p + i, P::max0(P::loadN(p + i, n - i)), n - i);
    }

    static void
    addBias(float *m, const float *bias, uint64_t rows, uint64_t cols)
    {
        for (uint64_t r = 0; r < rows; ++r) {
            float *row = m + r * cols;
            uint64_t c = 0;
            for (; c + W <= cols; c += W)
                P::store(row + c,
                         P::add(P::load(row + c), P::load(bias + c)));
            if (c < cols) {
                const uint64_t n = cols - c;
                P::storeN(row + c, P::add(P::loadN(row + c, n),
                                          P::loadN(bias + c, n)), n);
            }
        }
    }

    static void
    gemmPackB(const float *b, uint64_t ldb, uint64_t n, uint64_t kk,
              float *pack_buf)
    {
        uint64_t panel = 0;
        for (uint64_t j0 = 0; j0 < n; j0 += NR, ++panel) {
            float *dst = pack_buf + panel * kk * NR;
            const uint64_t jw = std::min(NR, n - j0);
            for (uint64_t p = 0; p < kk; ++p) {
                const float *src = b + p * ldb + j0;
                uint64_t j = 0;
                for (; j < jw; ++j)
                    dst[j] = src[j];
                for (; j < NR; ++j)
                    dst[j] = 0.0f;
                dst += NR;
            }
        }
    }

    /**
     * MR_ x (NV * W) register-tile microkernel over packed-B panel
     * rows [p0, p1). Writes the jw (<= NV * W) valid columns of C;
     * beta_one accumulates into the existing C values. A last panel
     * no wider than one register (NV = 1) loads and FMAs only its
     * first register, whose lanes run the same FMAs as in a two-
     * register tile.
     */
    template <int MR_, int NV>
    static void
    micro(const float *a, uint64_t lda, const float *panel, float *c,
          uint64_t ldc, uint64_t p0, uint64_t p1, bool beta_one,
          uint64_t jw)
    {
        V acc[MR_][NV];
        for (int r = 0; r < MR_; ++r) {
            for (int v = 0; v < NV; ++v)
                acc[r][v] = P::zero();
        }
        for (uint64_t p = p0; p < p1; ++p) {
            V b[NV];
            for (int v = 0; v < NV; ++v)
                b[v] = P::load(panel + p * NR +
                               static_cast<uint64_t>(v) * W);
            for (int r = 0; r < MR_; ++r) {
                const V va = P::set1(a[static_cast<uint64_t>(r) * lda + p]);
                for (int v = 0; v < NV; ++v)
                    acc[r][v] = P::fma(va, b[v], acc[r][v]);
            }
        }
        // A partial last panel (jw < NR) stores its valid columns
        // through the mask; the padded lanes never touch C.
        const uint64_t w0 = std::min(jw, W);
        for (int r = 0; r < MR_; ++r) {
            float *crow = c + static_cast<uint64_t>(r) * ldc;
            storePart(crow, acc[r][0], w0, beta_one);
            if constexpr (NV == 2)
                storePart(crow + W, acc[r][1], jw - w0, beta_one);
        }
    }

    /** C[0..n) (+)= v for n in [0, W]; n = W is a plain store. */
    static void
    storePart(float *c, V v, uint64_t n, bool beta_one)
    {
        if (n == W) {
            P::store(c, beta_one ? P::add(P::load(c), v) : v);
        } else if (n > 0) {
            P::storeN(c, beta_one ? P::add(P::loadN(c, n), v) : v, n);
        }
    }

    /** micro<mr, NV> for mr in 1..kGemmMr. */
    template <int NV, class... Args>
    static void
    microRows(int mr, Args... args)
    {
        switch (mr) {
        case 6: micro<6, NV>(args...); break;
        case 5: micro<5, NV>(args...); break;
        case 4: micro<4, NV>(args...); break;
        case 3: micro<3, NV>(args...); break;
        case 2: micro<2, NV>(args...); break;
        default: micro<1, NV>(args...);
        }
    }

    static void
    microDispatch(int mr, const float *a, uint64_t lda, const float *panel,
                  float *c, uint64_t ldc, uint64_t p0, uint64_t p1,
                  bool beta_one, uint64_t jw)
    {
        if (jw <= W)
            microRows<1>(mr, a, lda, panel, c, ldc, p0, p1, beta_one, jw);
        else
            microRows<2>(mr, a, lda, panel, c, ldc, p0, p1, beta_one, jw);
    }

    static void
    gemmPrepacked(const float *a, uint64_t lda, const float *packed_b,
                  float *c, uint64_t ldc, uint64_t m, uint64_t n,
                  uint64_t kk, bool accumulate)
    {
        if (kk == 0) {
            if (!accumulate) {
                for (uint64_t i = 0; i < m; ++i) {
                    float *crow = c + i * ldc;
                    for (uint64_t j = 0; j < n; ++j)
                        crow[j] = 0.0f;
                }
            }
            return;
        }
        for (uint64_t pc = 0; pc < kk; pc += kGemmKc) {
            const uint64_t p1 = std::min(pc + kGemmKc, kk);
            const bool beta_one = accumulate || pc > 0;
            for (uint64_t i0 = 0; i0 < m; i0 += kGemmMr) {
                const int mr = static_cast<int>(
                    std::min<uint64_t>(kGemmMr, m - i0));
                uint64_t panel = 0;
                for (uint64_t j0 = 0; j0 < n; j0 += NR, ++panel) {
                    const float *panel_base =
                        packed_b + panel * kk * NR;
                    microDispatch(mr, a + i0 * lda, lda, panel_base,
                                  c + i0 * ldc + j0, ldc, pc, p1,
                                  beta_one, std::min(NR, n - j0));
                }
            }
        }
    }
};

/** Fill an Ops table from one backend instantiation. */
template <class P>
Ops
makeOps(Tier tier)
{
    Ops t;
    t.tier = tier;
    t.width = P::W;
    t.axpy = &Backend<P>::axpy;
    t.spmmRowRange = &Backend<P>::spmmRowRange;
    t.spmmGatherRows = &Backend<P>::spmmGatherRows;
    t.relu = &Backend<P>::relu;
    t.addBias = &Backend<P>::addBias;
    t.gemmPackB = &Backend<P>::gemmPackB;
    t.gemmPrepacked = &Backend<P>::gemmPrepacked;
    return t;
}

} // namespace pgcn::kernels::simd::detail

#endif // PGCN_KERNELS_SIMD_BACKEND_INC_HPP
