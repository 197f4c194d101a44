// Algorithms 3 and 4: the paper's polynomial-time modified greedy.
//
// Scan the edges of G (nondecreasing weight for correctness on weighted
// graphs — Theorem 10; any order on unweighted graphs — Theorem 5) and add
// {u,v} to H iff Algorithm 2 answers YES for LBC(2k-1, f) on the current H.
// Output: an f-fault-tolerant (2k-1)-spanner with O(k f^{1-1/k} n^{1+1/k})
// edges (Theorem 8) in O(m k f^{2-1/k} n^{1+1/k}) time (Theorem 9) — the
// paper's main result (Theorem 2).

#pragma once

#include <cstdint>

#include "core/options.h"
#include "core/result.h"
#include "graph/graph.h"

namespace ftspan {

/// Extra knobs for the modified greedy.
struct ModifiedGreedyConfig {
  /// Edge scan order.  by_weight implements Algorithm 4 and is required for
  /// correctness on weighted graphs; input/random realize Algorithm 3's
  /// "arbitrary order" for unweighted inputs; by_weight_desc exists only for
  /// the E12 ordering ablation and is unsound on weighted graphs.
  EdgeOrder order = EdgeOrder::by_weight;
  /// Seed used when order == EdgeOrder::random.
  std::uint64_t shuffle_seed = 0x5eedULL;
  /// Record the LBC certificate F_e for every accepted edge (Lemma 6
  /// blocking-set analysis; costs memory, not time).
  bool record_certificates = false;
  /// Batch consecutive scan edges that share their first endpoint through a
  /// shared terminal tree (LbcSolver::decide_batch): one lazily-expanded BFS
  /// from the shared endpoint answers every sweep 0 of the run, instead of
  /// one dedicated BFS per edge.  Picks, certificates, and sweep counts are
  /// bit-identical either way (stats.tree_reuse_hits counts the saved BFS
  /// runs); the switch exists for A/B benchmarks and equivalence tests.
  bool batch_terminals = true;
  /// Serve the masked sweeps (>= 1) of batched decisions from the shared
  /// terminal tree, repaired incrementally as each decision's cut grows
  /// (BfsRunner::tree_repair_cut) instead of one dedicated masked BFS per
  /// sweep.  Only takes effect inside terminal batches (batch_terminals).
  /// Decisions, certificates, and sweep counts are bit-identical either way
  /// (stats.masked_reuse_hits counts the eliminated BFS runs); the switch
  /// exists for A/B benchmarks and the differential tests.
  bool masked_tree = true;
  /// Hop budget handed to every LBC(t, f) decision; 0 = the paper's
  /// t = 2k - 1 (params.stretch()).  Set by the (alpha, beta)-greedy front
  /// end (src/spanner/alpha_beta.h), whose unweighted test "exists a path of
  /// <= floor(alpha + beta) hops" is Algorithm 2 under a different budget.
  std::uint32_t hop_budget = 0;
};

/// Runs the modified greedy (Algorithm 4; Algorithm 3 via config.order) as
/// one sequential scan: every decision reads the H that all earlier accepts
/// built, which is what Lemma 6's blocking-set argument needs.
[[nodiscard]] SpannerBuild modified_greedy_spanner(
    const Graph& g, const SpannerParams& params,
    const ModifiedGreedyConfig& config = {});

}  // namespace ftspan
