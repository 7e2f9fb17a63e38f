#include "graph/normalize.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace pgcn::graph {

Csr
normalizedAdjacency(const Coo &coo)
{
    const VertexId n = coo.numVertices();
    const std::vector<Edge> &edges = coo.edges();

    // 1. Row lengths before dedupe: each non-loop edge in both
    //    directions, plus one slot per row for its self loop. Input
    //    loops and weights are dropped: A~ is structural.
    std::vector<EdgeId> start(static_cast<size_t>(n) + 1, 0);
    for (const Edge &e : edges) {
        if (e.src != e.dst) {
            ++start[e.src + 1];
            ++start[e.dst + 1];
        }
    }
    for (VertexId v = 0; v < n; ++v)
        start[v + 1] += start[v] + 1;

    // 2. Counting-sort the edges into rows.
    std::vector<VertexId> cols(start[n]);
    std::vector<EdgeId> fill(start.begin(), start.end() - 1);
    for (VertexId v = 0; v < n; ++v)
        cols[fill[v]++] = v;
    for (const Edge &e : edges) {
        if (e.src != e.dst) {
            cols[fill[e.src]++] = e.dst;
            cols[fill[e.dst]++] = e.src;
        }
    }

    // 3. Sort and dedupe each row, compacting the rows forward in place.
    std::vector<EdgeId> offsets(static_cast<size_t>(n) + 1, 0);
    for (VertexId v = 0; v < n; ++v) {
        const auto first = cols.begin() + static_cast<ptrdiff_t>(start[v]);
        const auto last = cols.begin() + static_cast<ptrdiff_t>(start[v + 1]);
        std::sort(first, last);
        const auto unique_end = std::unique(first, last);
        const auto dest = cols.begin() + static_cast<ptrdiff_t>(offsets[v]);
        if (dest != first)
            std::copy(first, unique_end, dest);
        offsets[v + 1] =
            offsets[v] + static_cast<EdgeId>(unique_end - first);
    }
    cols.resize(offsets[n]);
    cols.shrink_to_fit();

    // 4. Scale A[u][v] by 1/sqrt(deg u * deg v), in double and rounded
    //    once; every row holds its self loop, so no degree is 0.
    std::vector<double> inv_sqrt_deg(n);
    for (VertexId v = 0; v < n; ++v) {
        inv_sqrt_deg[v] =
            1.0 / std::sqrt(static_cast<double>(offsets[v + 1] - offsets[v]));
    }
    std::vector<Value> vals(cols.size());
    for (VertexId u = 0; u < n; ++u) {
        for (EdgeId e = offsets[u]; e < offsets[u + 1]; ++e)
            vals[e] = static_cast<Value>(inv_sqrt_deg[u] *
                                         inv_sqrt_deg[cols[e]]);
    }
    return Csr(n, std::move(offsets), std::move(cols), std::move(vals));
}

} // namespace pgcn::graph
