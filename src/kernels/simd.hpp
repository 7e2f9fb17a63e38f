/**
 * @file
 * Portable SIMD kernel layer with runtime ISA dispatch.
 *
 * The host kernels (SpMM, packed GEMM, activations) are compiled
 * three times from one templated implementation — scalar, AVX2+FMA
 * and AVX-512 — each in its own translation unit built with the
 * matching -m flags, so the library links and runs on any x86 host
 * (and on non-x86, where only the scalar tier exists). At runtime a
 * CPUID probe picks the widest tier the machine supports; the
 * PGCN_SIMD environment variable (scalar | avx2 | avx512 | auto) or
 * forceTier() narrows it, which is how tests pin the scalar path.
 *
 * All entry points are reached through the Ops function-pointer
 * table, never called directly, so ISA-specific code cannot be
 * inlined into translation units compiled for a narrower ISA.
 */
#ifndef PGCN_KERNELS_SIMD_HPP
#define PGCN_KERNELS_SIMD_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace pgcn::kernels::simd {

/**
 * Rows per GEMM register tile. gemmPrepacked walks A in row panels of
 * this height, so a caller splitting rows across threads cuts at
 * multiples of it and every panel stays a full tile.
 */
inline constexpr uint64_t kGemmMr = 6;

/** Instruction-set tier of a kernel backend. */
enum class Tier
{
    Scalar, ///< plain C++, always compiled, runs anywhere
    Avx2,   ///< 8-lane fp32 with FMA
    Avx512, ///< 16-lane fp32 with FMA
};

/** Human-readable tier name ("scalar", "avx2", "avx512"). */
const char *tierName(Tier tier);

/**
 * Function table of one kernel backend. All pointers are always
 * non-null. Row-major layouts throughout; `k` is the feature width.
 */
struct Ops
{
    /** Tier this table implements. */
    Tier tier;
    /** fp32 lanes per vector register (1, 8 or 16). */
    uint64_t width;

    /** y[0..k) += w * x[0..k). */
    void (*axpy)(float *y, const float *x, float w, uint64_t k);

    /**
     * CSR row-range SpMM with *overwrite* semantics: for every row
     * u in [row_begin, row_end),
     *   out[(u - out_row_base) * k .. ) = sum_e vals[e] * h_in[cols[e] * k ..)
     * over e in [offsets[u], offsets[u+1]). Rows with no non-zeros
     * are set to zero. The feature dimension is processed in
     * register-resident accumulator blocks (multi-accumulator inner
     * loop), so `out` is written exactly once per row.
     *
     * @param out_row_base Row index of out's first row (0 for a full
     *        |V|-row output; a tile base lets a small scratch tile
     *        receive global row indices).
     */
    void (*spmmRowRange)(float *out, const float *h_in, uint64_t k,
                         const uint64_t *offsets, const uint32_t *cols,
                         const float *vals, uint64_t row_begin,
                         uint64_t row_end, uint64_t out_row_base);

    /**
     * Gathered-row SpMM with *accumulate* semantics, for column-tiled
     * operators: tile-local row i in [i_begin, i_end) accumulates
     *   out[row_ids[i] * k ..) += sum_e vals[e] * h_in[cols[e] * k ..)
     * over e in [offsets[i], offsets[i+1]) (offsets are tile-local).
     */
    void (*spmmGatherRows)(float *out, const float *h_in, uint64_t k,
                           const uint32_t *row_ids, const uint64_t *offsets,
                           const uint32_t *cols, const float *vals,
                           uint64_t i_begin, uint64_t i_end);

    /** p[0..n) = max(p[0..n), 0). */
    void (*relu)(float *p, uint64_t n);

    /** m[r * cols + c] += bias[c] for all rows x cols. */
    void (*addBias)(float *m, const float *bias, uint64_t rows,
                    uint64_t cols);

    /**
     * Pack B (kk x n, leading dimension ldb) into NR-column panels
     * laid out p-major, zero-padded to the tier's panel width, ready
     * for gemmPrepacked. pack_buf must hold gemmPackBufferElems(n, kk)
     * floats and be 64-byte aligned.
     */
    void (*gemmPackB)(const float *b, uint64_t ldb, uint64_t n,
                      uint64_t kk, float *pack_buf);

    /**
     * Register-tiled GEMM on a pre-packed B: C (m x n, leading
     * dimension ldc) (+)= A (m x kk, leading dimension lda) * B.
     * accumulate=false overwrites C, true adds into it. The inner
     * microkernel is an MR x NR register tile (MR = kGemmMr rows,
     * NR = two vector registers of columns) fed by B panels from
     * pack_buf. Each row of C depends only on the same row of A, in a
     * fixed summation order, so calls on disjoint row ranges compose
     * bit-identically to one call over all rows.
     */
    void (*gemmPrepacked)(const float *a, uint64_t lda,
                          const float *packed_b, float *c, uint64_t ldc,
                          uint64_t m, uint64_t n, uint64_t kk,
                          bool accumulate);
};

/**
 * Elements of pack-buffer space gemmPackB needs for a kk x n B
 * operand, valid for every tier (sized for the widest panel).
 */
uint64_t gemmPackBufferElems(uint64_t n, uint64_t kk);

/** Tiers compiled into this binary AND supported by this CPU. */
std::vector<Tier> availableTiers();

/** Widest available tier (what auto-dispatch selects). */
Tier detectBestTier();

/**
 * Tier currently dispatched to. Resolves lazily on first use from
 * PGCN_SIMD (scalar | avx2 | avx512 | auto); unrecognised or
 * unsupported values fall back to auto with a warning.
 */
Tier activeTier();

/**
 * Pin dispatch to @p tier (tests, A/B benchmarks).
 *
 * @throws pgcn::ConfigError if the tier is not available on this
 *         host or was not compiled in.
 */
void forceTier(Tier tier);

/** Return to automatic (env + CPUID) dispatch. */
void resetTier();

/** Function table of the active tier. */
const Ops &ops();

/**
 * Function table of a specific tier.
 *
 * @throws pgcn::ConfigError if unavailable.
 */
const Ops &opsFor(Tier tier);

/**
 * Allocate @p n floats with 64-byte alignment (not zero-filled).
 * Buffers of 2 MiB or more are 2 MiB-aligned, huge-page advised
 * mappings of their own, and the most recently freed one is handed
 * to the next request of its rounded size (one spare, process-wide,
 * behind a mutex).
 */
float *alignedAlloc(uint64_t n);

/** Free a pointer from alignedAlloc (null is a no-op). */
void alignedFree(float *p);

/** Deleter so aligned allocations can live in unique_ptr. */
struct AlignedDeleter
{
    void
    operator()(float *p) const
    {
        alignedFree(p);
    }
};

/** Owning handle for a 64-byte-aligned float buffer. */
using AlignedBuffer = std::unique_ptr<float[], AlignedDeleter>;

/** Allocate an owning aligned buffer of @p n floats. */
AlignedBuffer makeAlignedBuffer(uint64_t n);

} // namespace pgcn::kernels::simd

#endif // PGCN_KERNELS_SIMD_HPP
