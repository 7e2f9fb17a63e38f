/**
 * @file
 * Simulator inputs several suites share: the determinism goldens'
 * skewed RMAT graph and the two-core PIUMA machine they run on.
 */
#ifndef PGCN_TESTS_TEST_FIXTURES_HPP
#define PGCN_TESTS_TEST_FIXTURES_HPP

#include <cstdint>

#include "graph/generators.hpp"
#include "graph/normalize.hpp"
#include "piuma/config.hpp"

namespace pgcn_test {

/** A normalized skewed RMAT graph; the defaults are the goldens'. */
inline pgcn::graph::Csr
goldenGraph(uint32_t scale = 8, pgcn::graph::EdgeId edges = 2000,
            uint64_t seed = 99)
{
    return pgcn::graph::normalizedAdjacency(pgcn::graph::generateRmat(
        scale, edges, pgcn::graph::rmatSkewed(), seed));
}

/** The goldens' machine: a default PiumaConfig with two cores. */
inline pgcn::piuma::PiumaConfig
twoCores()
{
    pgcn::piuma::PiumaConfig cfg;
    cfg.numCores = 2;
    return cfg;
}

} // namespace pgcn_test

#endif // PGCN_TESTS_TEST_FIXTURES_HPP
