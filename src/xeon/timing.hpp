/**
 * @file
 * Analytical Xeon timing: the STREAM-style bandwidth-vs-threads curve
 * of Fig. 8 (left), a cache-reuse-corrected SpMM model, a Dense-MM
 * roofline and the element-wise glue cost. These reproduce the CPU
 * columns of Figs. 2, 3, 8 and 9.
 */
#ifndef PGCN_XEON_TIMING_HPP
#define PGCN_XEON_TIMING_HPP

#include "model/spmm_model.hpp"
#include "xeon/config.hpp"

namespace pgcn::xeon {

/**
 * Effective memory bandwidth (bytes/ns == GB/s) with @p threads
 * OpenMP threads spread evenly across sockets (the numactl placement
 * the paper uses). Rises ~linearly until the socket controllers
 * saturate, stays flat to the physical core count, then *decreases*
 * in the hyper-threading region because extra contexts contend on the
 * same controllers (the measured Fig. 8 left behaviour).
 *
 * @param cfg Machine description.
 * @param threads Active thread count (>= 1).
 */
double streamBandwidth(const XeonConfig &cfg, unsigned threads);

/**
 * Fraction of feature-row reads served by cache, for a working set of
 * @p num_vertices rows of @p k floats against the machine's combined
 * caches. Uniform graphs: hit rate ~ resident fraction. Skewed
 * graphs: hot vertices dominate the access stream, so the hit rate is
 * (resident fraction)^skewExponent — far higher than uniform, which
 * is how the CPU stays competitive on *products* in Fig. 8 (middle).
 *
 * @param skewed Whether the graph has a power-law degree profile.
 */
double featureCacheHitRate(const XeonConfig &cfg, uint64_t num_vertices,
                           uint64_t k, bool skewed = false);

/**
 * DRAM traffic (bytes) of one SpMM after cache-reuse correction:
 * every distinct feature row is read at least once (compulsory), and
 * the remaining (|E| - |V|) accesses miss at (1 - hit rate).
 */
double spmmTrafficBytes(const XeonConfig &cfg, const model::SpmmWorkload &w,
                        bool skewed = false);

/**
 * SpMM execution time (ns) with @p threads threads: corrected traffic
 * over gather-derated effective bandwidth.
 */
double spmmTimeNs(const XeonConfig &cfg, const model::SpmmWorkload &w,
                  unsigned threads, bool skewed = false);

/**
 * Dense update time (ns) for (|V| x k_in) * (k_in x k_out): roofline
 * over AVX-512 peak FLOPS and streaming bandwidth.
 */
double denseMmTimeNs(const XeonConfig &cfg, uint64_t num_vertices,
                     uint64_t k_in, uint64_t k_out, unsigned threads);

/**
 * Glue time (ns): one activation read-modify-write pass over the
 * |V| x k features plus the per-kernel framework overhead. When the
 * working set no longer fits in cache the traffic is uncacheable,
 * which is how the paper explains the growing Glue share on papers.
 */
double glueTimeNs(const XeonConfig &cfg, uint64_t num_vertices, uint64_t k,
                  unsigned threads);

/**
 * Random-walk throughput (steps/ns) for neighbourhood sampling: each
 * step is two dependent random DRAM accesses; each core overlaps a
 * handful of independent walks through its out-of-order window. The
 * paper's Section VI argument: this latency-bound kernel is where
 * PIUMA's 16K threads beat a CPU hardest.
 *
 * @param cfg Machine description.
 * @param threads Worker threads (capped at logical cores).
 */
double randomWalkStepsPerNs(const XeonConfig &cfg, unsigned threads);

} // namespace pgcn::xeon

#endif // PGCN_XEON_TIMING_HPP
