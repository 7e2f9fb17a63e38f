/**
 * @file
 * Table I: OGB dataset descriptions — the published |V|/|E| plus the
 * degree statistics of the RMAT proxies this library substitutes for
 * the real downloads, demonstrating that each proxy preserves the
 * average degree and skew class of the graph it stands in for.
 */
#include <iostream>

#include "bench_util.hpp"
#include "graph/graph_stats.hpp"

using namespace pgcn;

namespace {

int
benchMain()
{
    Table published("Table I: OGB dataset descriptions",
                    {"name", "|V|", "|E|", "avg deg", "input dim",
                     "classes", "profile"});
    for (const auto &d : graph::ogbDatasets()) {
        published.row()
            .cell(d.name)
            .cell(static_cast<uint64_t>(d.numVertices))
            .cell(static_cast<uint64_t>(d.numEdges))
            .cell(static_cast<double>(d.numEdges) /
                      static_cast<double>(d.numVertices),
                  1)
            .cell(static_cast<uint64_t>(d.inputDim))
            .cell(static_cast<uint64_t>(d.numClasses))
            .cell(d.profile == graph::DegreeProfile::Skewed ? "skewed"
                                                            : "uniform");
    }
    published.print(std::cout);

    Table proxies("Down-scaled proxies (functional kernels / DES)",
                  {"name", "proxy |V|", "proxy |E|", "scale factor",
                   "avg deg", "degree CV", "gini"});
    for (const auto &d : graph::ogbDatasets()) {
        const auto proxy = graph::buildProxy(d, 1u << 18);
        const auto stats = graph::degreeStats(proxy.adjacency);
        proxies.row()
            .cell(d.name)
            .cell(static_cast<uint64_t>(proxy.adjacency.numVertices()))
            .cell(static_cast<uint64_t>(proxy.adjacency.numEdges()))
            .cell(proxy.scaleFactor, 1)
            .cell(stats.mean, 1)
            .cell(stats.coefficientOfVariation, 2)
            .cell(stats.gini, 3);
    }
    proxies.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runFixedBenchMain(argc, argv, benchMain);
}
