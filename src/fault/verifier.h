// Fault-tolerant spanner verification oracle.
//
// Checks Definition 1: H is an f-FT t-spanner of G iff for every fault set F
// (|F| <= f) and surviving pair, d_{H\F} <= t * d_{G\F}.  By Lemma 3 it
// suffices to check pairs {u,v} in E(G); we check every surviving G-edge
// against t * d_{G\F}(u,v), which is equivalent.
//
// Two checking paths, with bit-identical reports:
//   - weighted G or H: one budget-pruned Dijkstra in G\F and one in H\F per
//     surviving G-edge;
//   - G and H both unweighted: no G-side search (a surviving G-edge has
//     d_{G\F} = 1), no search for a pair whose H-copy survives (d_{H\F} =
//     1), and one <= t-hop BFS session in H\F per source vertex for the
//     remaining pairs.
//
// Exhaustive verification enumerates all C(n, <= f) fault sets (feasible for
// small instances; it is the ground truth in tests).  Sampled verification
// draws fault sets from a mix of random and adversarial strategies (attack.h)
// and scales to benchmark-sized graphs.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/options.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace ftspan {

/// One observed stretch violation (or the worst observed pair).
struct StretchWitness {
  FaultSet faults;
  VertexId u = kInvalidVertex;
  VertexId v = kInvalidVertex;
  Weight d_g = 0.0;  ///< d_{G\F}(u,v)
  Weight d_h = 0.0;  ///< d_{H\F}(u,v); kUnreachableWeight if disconnected
};

/// Verification outcome.
struct StretchReport {
  /// True iff no checked pair exceeded stretch t (within a 1e-9 tolerance).
  bool ok = true;
  /// Maximum observed d_{H\F}/d_{G\F} over all checked pairs (infinity when
  /// some pair was disconnected in H\F but not in G\F).
  double max_stretch = 0.0;
  /// The pair and fault set realizing max_stretch.
  StretchWitness worst;
  std::uint64_t fault_sets_checked = 0;
  std::uint64_t pairs_checked = 0;
  /// Sampled trials that drew no usable fault set and were skipped instead
  /// of counted: the universe was too small for the requested size (see
  /// attack.h's size contract), or the trial's requested size was 0 (the
  /// empty set is always checked once, up front).  Always 0 for
  /// verify_exhaustive / check_fault_set.
  std::uint64_t trials_skipped = 0;
};

/// Exhaustively verifies that `h` is an f-FT (2k-1)-spanner of `g`
/// (all fault sets of size <= f).  O(C(n, f)) fault sets, each checked as
/// in check_fault_set — exponential in f; use on small instances (it is the
/// ground truth in tests).
/// Requires h.n() == g.n().
[[nodiscard]] StretchReport verify_exhaustive(const Graph& g, const Graph& h,
                                              const SpannerParams& params);

/// Verifies against `trials` sampled fault sets drawn from a mix of random
/// and adversarial strategies.  A failure is a counterexample; success is
/// evidence, not proof.
///
/// Definition 1 quantifies over |F| <= f, and stretch is NOT monotone in F
/// (adding a fault can disconnect or skip the witness pair), so trial i
/// requests size f - (i mod (f+1)): every size in [0, f] is exercised, not
/// just the full budget.  Size-0 requests are skipped (the empty set is
/// always checked once, up front), as are trials whose universe is too
/// small for the requested size (attack.h may return fewer faults than
/// asked); both are tallied in StretchReport::trials_skipped rather than
/// counted as full-strength coverage.
///
/// Trials are independent, so `threads` > 1 (or 0 = one per hardware
/// thread) fans them over the shared worker pool (exec::shared_pool()):
/// fault sets are drawn from `rng` sequentially up front and per-trial
/// reports are folded in trial order, so the report — including the worst
/// witness — is bit-identical at any thread count.  O(trials) fault sets,
/// each checked as in check_fault_set, either way.
[[nodiscard]] StretchReport verify_sampled(const Graph& g, const Graph& h,
                                           const SpannerParams& params,
                                           std::uint32_t trials, Rng& rng,
                                           std::uint32_t threads = 1);

/// The storm core shared by verify_sampled and the scenario layer
/// (fault/scenario.h): checks every fault set in `sets` against all
/// surviving G-edges and folds the per-set reports in order, so the result
/// — including the worst witness — is bit-identical at any `threads` count
/// (0 = one per hardware thread).  When `per_set` is not null it receives
/// each set's individual report (aligned with `sets`), which is how the
/// attack benches compute per-trial stretch percentiles.
/// O(|sets|) fault sets, each checked as in check_fault_set.
[[nodiscard]] StretchReport verify_fault_sets(
    const Graph& g, const Graph& h, const SpannerParams& params,
    std::span<const FaultSet> sets, std::uint32_t threads = 1,
    std::vector<StretchReport>* per_set = nullptr);

/// Checks one specific fault set: max stretch over surviving G-edges
/// (Lemma 3 reduction).  Weighted inputs run one budget-pruned Dijkstra in
/// G\F and one in H\F per pair — O(m * Dijkstra).  Unit-weight inputs
/// settle pairs whose H-copy survives in O(m_G + m_H) and run one <= t-hop
/// BFS in H\F per source for the rest — O(n * t-hop BFS) at worst.  The
/// worst witness is the first max-stretch pair in edge-id order on both
/// paths.  `faults.model` must match sizes of g/h
/// (vertex ids < n, edge ids < m of g -- edge faults are mapped to h via
/// endpoint lookup).
[[nodiscard]] StretchReport check_fault_set(const Graph& g, const Graph& h,
                                            const SpannerParams& params,
                                            const FaultSet& faults);

}  // namespace ftspan
