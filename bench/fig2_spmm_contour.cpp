/**
 * @file
 * Fig. 2: the relationship between graph scale |V|, adjacency density
 * and the fraction of CPU execution time a K=256 GCN layer spends in
 * SpMM. The paper derives its contours from RMAT sweeps on the Xeon;
 * we evaluate the calibrated Xeon layer model over the same
 * (scale, density) grid and annotate the OGB datasets' coordinates.
 *
 * Expected shape: the SpMM fraction grows along both axes — with
 * density at fixed scale (non-zeros scale with density while Dense MM
 * is fixed) and with scale at fixed density (|E| = delta |V|^2 grows
 * quadratically, Dense MM linearly).
 *
 * The grid evaluation runs on the shared sweep driver (--jobs N /
 * --checkpoint= / --resume / --sweep-json=). It simulates nothing, so
 * the telemetry, --faults= and --domains flags are errors here.
 */
#include <cmath>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "xeon/timing.hpp"

using namespace pgcn;

namespace {

/** SpMM fraction of one K=256 GCN layer (SpMM + Dense MM). */
double
spmmFraction(const xeon::XeonConfig &cfg, uint64_t v, uint64_t e)
{
    constexpr unsigned kDim = 256;
    constexpr unsigned kThreads = 80;
    const double spmm = xeon::spmmTimeNs(
        cfg, model::SpmmWorkload{v, e, kDim}, kThreads, true);
    const double dense =
        xeon::denseMmTimeNs(cfg, v, kDim, kDim, kThreads);
    return spmm / (spmm + dense);
}

int
benchMain(int argc, char **argv)
{
    const bench::BenchArgs args =
        bench::parseBenchArgs(argc, argv, {}, /*simulates=*/false);
    bench::SweepDriver driver(args);
    const auto cfg = xeon::XeonConfig::platinum8380();

    // Density grid 10^-6 .. 10^-1, scale grid 2^10 .. 2^24.
    std::vector<double> densities;
    for (double d = 1e-6; d <= 1e-1 * 1.001; d *= 10.0)
        densities.push_back(d);

    std::vector<std::string> headers{"|V|"};
    for (double d : densities) {
        std::ostringstream oss;
        oss << "d=" << d;
        headers.push_back(oss.str());
    }

    // Enqueue every in-range grid cell, then the OGB annotations.
    struct Cell
    {
        size_t idx;
        bool inRange;
    };
    std::vector<std::vector<Cell>> cells;
    for (uint32_t s = 10; s <= 24; s += 2) {
        const uint64_t v = uint64_t{1} << s;
        cells.emplace_back();
        for (double d : densities) {
            const double e_real = d * static_cast<double>(v) *
                                  static_cast<double>(v);
            if (e_real < 1.0 || e_real > 1e12) {
                cells.back().push_back(Cell{0, false});
                continue;
            }
            const auto e = static_cast<uint64_t>(e_real);
            std::ostringstream key;
            key << "grid/scale=" << s << "/d=" << d;
            const size_t idx = driver.add(
                key.str(),
                [&cfg, v, e](const parallel::SweepContext &) {
                    return JsonlCheckpoint::Values{
                        {"pct_spmm",
                         100.0 * spmmFraction(cfg, v, e)}};
                });
            cells.back().push_back(Cell{idx, true});
        }
    }

    const auto &ogb = graph::ogbDatasets();
    std::vector<size_t> annot_idx;
    for (const auto &d : ogb) {
        annot_idx.push_back(driver.add(
            "ogb/" + std::string(d.name),
            [&cfg, &d](const parallel::SweepContext &) {
                return JsonlCheckpoint::Values{
                    {"pct_spmm", 100.0 * spmmFraction(cfg, d.numVertices,
                                                      d.numEdges)}};
            }));
    }

    driver.run();

    Table grid("Fig 2: %time in SpMM for a K=256 GCN layer on CPU",
               headers);
    size_t row = 0;
    for (uint32_t s = 10; s <= 24; s += 2, ++row) {
        grid.row().cell("2^" + std::to_string(s));
        for (size_t col = 0; col < densities.size(); ++col) {
            const Cell &cell = cells[row][col];
            const auto *v = cell.inRange ? driver.result(cell.idx)
                                         : nullptr;
            if (!v) {
                grid.cell("-");
                continue;
            }
            grid.cell(v->at("pct_spmm"), 1);
        }
    }
    grid.print(std::cout);

    Table annot("OGB dataset coordinates on the Fig 2 plane",
                {"name", "|V|", "density", "%SpMM (K=256 layer)"});
    for (size_t i = 0; i < ogb.size(); ++i) {
        const auto &d = ogb[i];
        const auto *v = driver.result(annot_idx[i]);
        if (!v)
            continue;
        const double density =
            static_cast<double>(d.numEdges) /
            (static_cast<double>(d.numVertices) *
             static_cast<double>(d.numVertices));
        annot.row()
            .cell(d.name)
            .cell(static_cast<uint64_t>(d.numVertices))
            .cell(density, 9)
            .cell(v->at("pct_spmm"), 1);
    }
    annot.print(std::cout);

    std::cout << "Reading: arxiv/collab sit below the 60% contour; "
                 "proteins/products/ddi sit high — the paper's "
                 "prediction of which workloads benefit from PIUMA.\n";
    driver.finish();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runBenchMain([&] { return benchMain(argc, argv); });
}
