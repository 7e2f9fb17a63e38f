/**
 * @file
 * Runtime SIMD dispatch: CPUID probing, PGCN_SIMD env override, and
 * the active-Ops pointer the kernels call through.
 */
#include "kernels/simd.hpp"

#include <sys/mman.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <new>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "kernels/simd_backend.inc.hpp"
#include "kernels/simd_backends.hpp"

namespace pgcn::kernels::simd {

namespace {

/** CPU support for a tier, independent of what was compiled. */
bool
cpuSupports(Tier tier)
{
    switch (tier) {
    case Tier::Scalar:
        return true;
#if defined(__x86_64__) || defined(__i386__)
    case Tier::Avx2:
        return __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("fma");
    case Tier::Avx512:
        return __builtin_cpu_supports("avx512f");
#else
    case Tier::Avx2:
    case Tier::Avx512:
        return false;
#endif
    }
    return false;
}

/** Whether a backend for @p tier was compiled into this binary. */
bool
compiledIn(Tier tier)
{
    switch (tier) {
    case Tier::Scalar:
        return true;
    case Tier::Avx2:
#ifdef PGCN_SIMD_HAVE_AVX2
        return true;
#else
        return false;
#endif
    case Tier::Avx512:
#ifdef PGCN_SIMD_HAVE_AVX512
        return true;
#else
        return false;
#endif
    }
    return false;
}

bool
tierUsable(Tier tier)
{
    return compiledIn(tier) && cpuSupports(tier);
}

const Ops &
tableFor(Tier tier)
{
    switch (tier) {
#ifdef PGCN_SIMD_HAVE_AVX512
    case Tier::Avx512:
        return avx512Ops();
#endif
#ifdef PGCN_SIMD_HAVE_AVX2
    case Tier::Avx2:
        return avx2Ops();
#endif
    default:
        return scalarOps();
    }
}

/** Env-requested tier, or best-available when unset/auto/invalid. */
Tier
resolveInitialTier()
{
    const char *env = std::getenv("PGCN_SIMD");
    if (env != nullptr && *env != '\0') {
        const std::string v(env);
        if (v == "scalar")
            return Tier::Scalar;
        if (v == "avx2" && tierUsable(Tier::Avx2))
            return Tier::Avx2;
        if (v == "avx512" && tierUsable(Tier::Avx512))
            return Tier::Avx512;
        if (v != "auto") {
            warn("PGCN_SIMD=" + v +
                 " is not available on this host; using auto dispatch");
        }
    }
    return detectBestTier();
}

std::atomic<const Ops *> g_active{nullptr};

const Ops *
resolveActive()
{
    const Ops *table = &tableFor(resolveInitialTier());
    const Ops *expected = nullptr;
    // First resolver wins; any concurrent resolution picks the same
    // table anyway (env + CPUID are stable within a process).
    g_active.compare_exchange_strong(expected, table);
    return g_active.load(std::memory_order_acquire);
}

} // namespace

const char *
tierName(Tier tier)
{
    switch (tier) {
    case Tier::Scalar:
        return "scalar";
    case Tier::Avx2:
        return "avx2";
    case Tier::Avx512:
        return "avx512";
    }
    return "unknown";
}

uint64_t
gemmPackBufferElems(uint64_t n, uint64_t kk)
{
    const uint64_t n_rounded =
        (n + detail::kGemmNrMax - 1) / detail::kGemmNrMax *
        detail::kGemmNrMax;
    return n_rounded * kk;
}

std::vector<Tier>
availableTiers()
{
    std::vector<Tier> tiers;
    for (Tier t : {Tier::Scalar, Tier::Avx2, Tier::Avx512}) {
        if (tierUsable(t))
            tiers.push_back(t);
    }
    return tiers;
}

Tier
detectBestTier()
{
    if (tierUsable(Tier::Avx512))
        return Tier::Avx512;
    if (tierUsable(Tier::Avx2))
        return Tier::Avx2;
    return Tier::Scalar;
}

Tier
activeTier()
{
    return ops().tier;
}

void
forceTier(Tier tier)
{
    if (!compiledIn(tier)) {
        PGCN_THROW(ConfigError, "SIMD tier " << tierName(tier)
                                             << " was not compiled into "
                                                "this binary");
    }
    if (!cpuSupports(tier)) {
        PGCN_THROW(ConfigError, "SIMD tier "
                                    << tierName(tier)
                                    << " is not supported by this CPU");
    }
    g_active.store(&tableFor(tier), std::memory_order_release);
}

void
resetTier()
{
    g_active.store(nullptr, std::memory_order_release);
}

const Ops &
ops()
{
    const Ops *table = g_active.load(std::memory_order_acquire);
    if (table == nullptr) [[unlikely]]
        table = resolveActive();
    return *table;
}

const Ops &
opsFor(Tier tier)
{
    if (!tierUsable(tier)) {
        PGCN_THROW(ConfigError, "SIMD tier " << tierName(tier)
                                             << " is unavailable on this "
                                                "host");
    }
    return tableFor(tier);
}

namespace {

// Buffers at or above one huge page get 2 MiB placement so the kernel
// can back them with huge pages (THP is madvise-gated on most
// distros). The gather side of SpMM touches a random 64-byte line per
// edge; 4 KiB pages make every one of those a potential TLB miss, and
// run-to-run page placement then dominates the measured variance.
constexpr uint64_t kHugePage = 2ull << 20;
constexpr uint64_t kPage = 4096;

/** Rounded byte size of a buffer, in the 64 bytes before its data. */
struct alignas(64) Header
{
    uint64_t bytes;
};

Header *
headerOf(float *p)
{
    return reinterpret_cast<Header *>(p) - 1;
}

// A large buffer is its own mapping: one header page, then the 2 MiB-
// aligned data. Mapped, not heap, memory: the heap could place it only
// in a free hole of its size plus 2 MiB, so where it landed (and the
// peak RSS) would depend on what was freed before.
float *
mapLarge(uint64_t bytes)
{
    const uint64_t len = bytes + kHugePage;
    void *base =
        ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED)
        throw std::bad_alloc{};
    const auto lo = reinterpret_cast<uintptr_t>(base);
    const uintptr_t data = (lo + kPage + kHugePage - 1) & ~(kHugePage - 1);
    if (data - kPage > lo)
        ::munmap(base, data - kPage - lo);
    if (lo + len > data + bytes)
        ::munmap(reinterpret_cast<void *>(data + bytes),
                 lo + len - data - bytes);
    auto *p = reinterpret_cast<float *>(data);
#if defined(__linux__)
    ::madvise(p, bytes, MADV_HUGEPAGE);
#endif
    return p;
}

void
unmapLarge(float *p)
{
    ::munmap(reinterpret_cast<char *>(p) - kPage,
             headerOf(p)->bytes + kPage);
}

// The most recently freed large buffer, handed to the next request of
// its size. A GCN pass frees its output and the next pass asks for the
// same size again, so a steady loop reuses one mapping instead of
// faulting in fresh pages every pass.
std::mutex g_spareMutex;
float *g_spare = nullptr; // guarded by g_spareMutex

} // namespace

float *
alignedAlloc(uint64_t n)
{
    if (n == 0)
        return nullptr;
    uint64_t bytes = n * sizeof(float);
    float *p = nullptr;
    if (bytes >= kHugePage) {
        bytes = (bytes + kHugePage - 1) / kHugePage * kHugePage;
        {
            std::lock_guard<std::mutex> lock(g_spareMutex);
            if (g_spare != nullptr && headerOf(g_spare)->bytes == bytes)
                return std::exchange(g_spare, nullptr);
        }
        p = mapLarge(bytes);
    } else {
        bytes = (bytes + sizeof(Header) - 1) / sizeof(Header) *
                sizeof(Header);
        void *base = std::aligned_alloc(sizeof(Header), sizeof(Header) + bytes);
        if (base == nullptr)
            throw std::bad_alloc{};
        p = reinterpret_cast<float *>(static_cast<Header *>(base) + 1);
    }
    headerOf(p)->bytes = bytes;
    return p;
}

void
alignedFree(float *p)
{
    if (p == nullptr)
        return;
    if (headerOf(p)->bytes < kHugePage) {
        std::free(headerOf(p));
        return;
    }
    float *old = nullptr;
    {
        std::lock_guard<std::mutex> lock(g_spareMutex);
        old = std::exchange(g_spare, p);
    }
    if (old != nullptr)
        unmapLarge(old);
}

AlignedBuffer
makeAlignedBuffer(uint64_t n)
{
    return AlignedBuffer(alignedAlloc(n));
}

} // namespace pgcn::kernels::simd
