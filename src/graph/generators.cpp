#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "graph/reorder.hpp"

namespace pgcn::graph {

RmatParams
rmatSkewed()
{
    return RmatParams{0.57, 0.19, 0.19, 0.05, 0.1};
}

RmatParams
rmatUniform()
{
    return RmatParams{0.25, 0.25, 0.25, 0.25, 0.0};
}

Coo
generateRmat(uint32_t scale, EdgeId num_edges, const RmatParams &params,
             uint64_t seed)
{
    PGCN_ASSERT(scale > 0 && scale < 32, "rmat scale out of range: " << scale);
    const double sum = params.a + params.b + params.c + params.d;
    PGCN_ASSERT(std::abs(sum - 1.0) < 1e-9,
                "rmat probabilities sum to " << sum << ", expected 1");

    const VertexId n = VertexId{1} << scale;
    Coo coo(n);
    Rng rng(seed);

    // Each edge walks its levels on its own draws, so kLanes edges can
    // walk together: their draws are taken in edge order first (the
    // serial generator's order), stored lane-minor, and then each level
    // advances all lanes with the serial code's arithmetic, which the
    // compiler vectorises. A short last block runs its idle lanes on
    // stale draws and emits only its own edges.
    constexpr uint32_t kLanes = 8;
    const uint32_t per_level = params.noise > 0.0 ? 5 : 1;
    std::vector<double> draws(static_cast<size_t>(scale) * per_level * kLanes,
                              0.5);
    for (EdgeId first = 0; first < num_edges; first += kLanes) {
        const auto lanes =
            static_cast<uint32_t>(std::min<EdgeId>(kLanes, num_edges - first));
        for (uint32_t e = 0; e < lanes; ++e) {
            for (uint32_t k = 0; k < scale * per_level; ++k)
                draws[k * kLanes + e] = rng.uniform();
        }
        VertexId row[kLanes] = {};
        VertexId col[kLanes] = {};
        double a[kLanes], b[kLanes], c[kLanes], d[kLanes];
        for (uint32_t e = 0; e < kLanes; ++e) {
            a[e] = params.a;
            b[e] = params.b;
            c[e] = params.c;
            d[e] = params.d;
        }
        for (uint32_t level = 0; level < scale; ++level) {
            const VertexId bit = VertexId{1} << (scale - 1 - level);
            const double *u = &draws[level * per_level * kLanes];
            for (uint32_t e = 0; e < kLanes; ++e) {
                // Quadrant a sets no bit, b the column bit, c the row
                // bit, d both.
                const double r = u[e];
                const double ab = a[e] + b[e];
                const bool past_a = !(r < a[e]);
                const bool past_b = !(r < ab);
                const bool past_c = !(r < ab + c[e]);
                row[e] |= past_b ? bit : 0;
                col[e] |= ((past_a && !past_b) || past_c) ? bit : 0;
            }
            if (params.noise > 0.0) {
                // Multiplicative noise, renormalised, as in SNAP's
                // smoothed RMAT to break the staircase artefact.
                for (uint32_t e = 0; e < kLanes; ++e) {
                    const auto jitter = [&](double p, uint32_t k) {
                        return p * (1.0 - params.noise +
                                    2.0 * params.noise * u[k * kLanes + e]);
                    };
                    a[e] = jitter(a[e], 1);
                    b[e] = jitter(b[e], 2);
                    c[e] = jitter(c[e], 3);
                    d[e] = jitter(d[e], 4);
                    const double s = a[e] + b[e] + c[e] + d[e];
                    a[e] /= s;
                    b[e] /= s;
                    c[e] /= s;
                    d[e] /= s;
                }
            }
        }
        for (uint32_t e = 0; e < lanes; ++e)
            coo.addEdge(row[e], col[e]);
    }
    return coo;
}

Coo
generateUniform(VertexId num_vertices, EdgeId num_edges, uint64_t seed)
{
    PGCN_ASSERT(num_vertices > 0, "uniform graph needs vertices");
    Coo coo(num_vertices);
    Rng rng(seed);
    for (EdgeId i = 0; i < num_edges; ++i) {
        const auto src = static_cast<VertexId>(rng.uniformInt(num_vertices));
        const auto dst = static_cast<VertexId>(rng.uniformInt(num_vertices));
        coo.addEdge(src, dst);
    }
    return coo;
}

Coo
shuffleVertexIds(const Coo &coo, uint64_t seed)
{
    return shuffleOrder(coo.numVertices(), seed).applyToCoo(coo);
}

} // namespace pgcn::graph
