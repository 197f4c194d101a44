// The (alpha, beta)-greedy fault-tolerant spanner of Popova and Tzalik
// (arXiv:2603.17085).
//
// Guarantee: scan the edges of G by nondecreasing weight and add {u,v} to H
// iff the current H is not robustly spanned under the *budgeted* threshold
// alpha * w(u,v) + beta — the generalization of the paper's multiplicative
// test t * w(u,v) (alpha = 2k-1, beta = 0 recovers the modified greedy).
// Every accepted edge is certified per edge: for all fault sets F with
// |F| <= f, H \ F keeps a u-v path of weight <= alpha * w(u,v) + beta per
// hop budget, so H is an f-fault-tolerant (alpha, beta)-hybrid spanner —
// d_{H\F}(u,v) <= alpha * d_{G\F}(u,v) + beta * |P| over the edges P of a
// shortest path, hence stretch <= alpha + beta whenever all weights are
// >= 1 (and exactly floor(alpha + beta)-hop stretch on unweighted graphs).
//
// Fault-model support: both.  FaultModel::vertex cuts path interiors,
// FaultModel::edge cuts path edges, exactly as in Algorithm 2.
//
// Determinism contract: unweighted inputs delegate to the modified greedy
// with hop budget floor(alpha + beta) (ModifiedGreedyConfig::hop_budget),
// inheriting terminal batching and masked-tree repair — picks are
// bit-identical at any A/B knob setting.  Weighted inputs run a sequential
// scan whose oracle is LbcSolver::decide_weighted (budget-pruned Dijkstra
// sweeps).  With alpha + beta = 2k - 1 on an unweighted
// graph the picks coincide edge-for-edge with modified_greedy_spanner at
// that k (pinned by tests/zoo_test.cpp).

#pragma once

#include "core/modified_greedy.h"
#include "core/options.h"
#include "core/result.h"
#include "graph/graph.h"

namespace ftspan {

/// Knobs for the (alpha, beta)-greedy.
struct AlphaBetaConfig {
  /// Multiplicative part of the per-edge budget alpha * w + beta.
  double alpha = 3.0;
  /// Additive part of the per-edge budget.
  double beta = 0.0;
  /// Oracle-engine knobs (scan order, certificates, batching).
  /// Fully honored on unweighted inputs (the hop-budget delegation); on
  /// weighted inputs only `order` and `record_certificates` apply.
  ModifiedGreedyConfig engine;
};

/// Builds an f-fault-tolerant (alpha, beta)-spanner of g.  params.k is
/// ignored — the (alpha, beta) pair replaces the 2k-1 budget; params.f and
/// params.model are honored.  Requires alpha, beta >= 0 and
/// alpha + beta >= 1 (the unweighted hop budget floor(alpha + beta) must
/// admit at least the edge itself).
[[nodiscard]] SpannerBuild alpha_beta_spanner(const Graph& g,
                                              const SpannerParams& params,
                                              const AlphaBetaConfig& config = {});

}  // namespace ftspan
