/**
 * @file
 * Run provenance manifests and the FNV-1a digests behind them.
 *
 * A RunManifest describes what ran (bench name, seed) and on what
 * (git SHA, build type, compiler, SIMD tier, NUMA topology) as one
 * JSON line; perfbench attaches it to every run record. The digests
 * also stamp bench checkpoints (bench_util.hpp checkpointStamp).
 *
 * This header sits in pgcn_common and deliberately knows nothing
 * about kernels, NUMA, or the simulator: callers fill the platform
 * fields from the layers they already link.
 */
#ifndef PGCN_COMMON_MANIFEST_HPP
#define PGCN_COMMON_MANIFEST_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pgcn {

/** FNV-1a 64-bit offset basis (the seed for an empty hash). */
inline constexpr uint64_t kFnv1aOffset = 14695981039346656037ull;

/**
 * Fold @p len bytes at @p data into a running FNV-1a 64-bit hash.
 * FNV-1a because digests here only need to be stable and cheap, not
 * cryptographic: they answer "same config/graph as last run?".
 *
 * @param data Bytes to fold in.
 * @param len Number of bytes.
 * @param hash Running hash (start from kFnv1aOffset).
 * @return The updated hash.
 */
uint64_t fnv1a64(const void *data, size_t len,
                 uint64_t hash = kFnv1aOffset);

/** Fold a string (content only, not its length) into a hash. */
uint64_t fnv1a64(const std::string &text, uint64_t hash = kFnv1aOffset);

/** Fold a double's byte representation into a hash. */
uint64_t fnv1a64(double value, uint64_t hash = kFnv1aOffset);

/** Fold an unsigned integer's byte representation into a hash. */
uint64_t fnv1a64(uint64_t value, uint64_t hash = kFnv1aOffset);

/** Render a 64-bit hash as fixed-width lowercase hex. */
std::string hashHex(uint64_t hash);

/**
 * Provenance record for one benchmark run. Plain data: fill what you
 * know, leave the rest at the defaults, then toJsonLine().
 */
struct RunManifest
{
    /** Benchmark name (bench_util derives it from argv[0]). */
    std::string bench;
    /** Wall-clock start of the run, ISO-8601 UTC (from nowIso8601()). */
    std::string timestamp;
    /** Short git SHA the binary was configured from. */
    std::string gitSha;
    /** Whether the work tree was dirty at configure time. */
    bool gitDirty = false;
    /** CMake build type (Release, RelWithDebInfo, ...). */
    std::string buildType;
    /** Compiler id and version. */
    std::string compiler;
    /** Active SIMD dispatch tier ("scalar", "avx2", "avx512"). */
    std::string simdTier;
    /** NUMA nodes visible to the process (0 = unknown/no libnuma). */
    unsigned numaNodes = 0;
    /** Hardware threads on the host. */
    unsigned hostThreads = 0;
    /** RNG seed for synthetic inputs. */
    uint64_t seed = 0;
    /** Free-form annotations, e.g. {"l2_bytes", "2097152"}. */
    std::vector<std::pair<std::string, std::string>> extra;

    /**
     * Serialise to one line of JSON (no trailing newline). Key order
     * is fixed so textual diffs of two records stay readable.
     */
    std::string toJsonLine() const;
};

/** Current wall-clock time as ISO-8601 UTC ("2026-02-07T12:34:56Z"). */
std::string nowIso8601();

} // namespace pgcn

#endif // PGCN_COMMON_MANIFEST_HPP
