/**
 * @file
 * GCN adjacency normalisation (the Kipf & Welling renormalisation
 * trick): A~ = D^-1/2 (A + I) D^-1/2, where D is the degree matrix of
 * A + I. The paper's SpMM operates on this normalised matrix.
 */
#ifndef PGCN_GRAPH_NORMALIZE_HPP
#define PGCN_GRAPH_NORMALIZE_HPP

#include "graph/csr.hpp"

namespace pgcn::graph {

/**
 * Build the symmetric-normalised adjacency matrix used by GCN layers.
 *
 * A~ keeps the structure of @p coo only: input self loops and weights
 * are dropped, every edge counts in both directions, duplicates
 * collapse, and each vertex gets one unit self loop. Every non-zero
 * (u, v) is then 1/sqrt(deg(u) * deg(v)), computed in double and
 * rounded once. One linear pass (a counting sort into rows, then a
 * sort and dedupe within each row) builds it without copying the COO.
 *
 * @param coo Raw (possibly directed, possibly multi-) edge list.
 * @return CSR of A~ with row sums' spectral radius <= 1.
 */
Csr normalizedAdjacency(const Coo &coo);

} // namespace pgcn::graph

#endif // PGCN_GRAPH_NORMALIZE_HPP
