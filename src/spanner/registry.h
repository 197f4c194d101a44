// Unified dispatch over every spanner construction in the repository.
//
// One table maps a stable name ("modified", "bdpvw", ...) to a build
// function plus the metadata consumers keep re-deriving by hand: which
// fault models the construction supports, whether it is randomized, and a
// one-line guarantee.  ftspan_cli's --algo flag, the E13 shootout, and the
// dispatch tests all enumerate this table, so adding a construction here is
// the single registration point — help text, error messages, and bench axes
// follow automatically instead of drifting.
//
// Determinism contract: build_spanner adds no randomness of its own —
// randomized constructions draw from an Rng seeded with options.seed
// (sequentially, before any parallel work), deterministic ones ignore it.
// Per-algorithm determinism is documented in each construction's header
// (see docs/ALGORITHMS.md for the full zoo).

#pragma once

#include <span>
#include <string>
#include <string_view>

#include "core/modified_greedy.h"
#include "core/options.h"
#include "core/result.h"
#include "graph/graph.h"
#include "spanner/dk11.h"

namespace ftspan {

/// Per-call options shared by every registered construction; each algorithm
/// reads the fields that apply to it and ignores the rest.
struct SpannerAlgoOptions {
  /// Seed for randomized constructions (dk11, baswana_sen).
  std::uint64_t seed = 1;
  /// (alpha, beta)-greedy budget.  Both 0 = derive alpha = 2k-1, beta = 0
  /// from params (the modified-greedy-equivalent budget).
  double alpha = 0.0;
  double beta = 0.0;
  /// Oracle-engine knobs: scan order, certificate recording, terminal
  /// batching, masked-tree repair.  Honored by the oracle-shaped
  /// constructions (modified, alpha_beta, bdpvw); exact reads only
  /// record_certificates.
  ModifiedGreedyConfig engine;
  /// DK11 framework knobs.
  Dk11Config dk11;
};

/// One registered construction.
struct SpannerAlgoInfo {
  /// Dispatch key (also the CLI --algo and bench JSON "algo" value).
  std::string_view name;
  /// Short citation, e.g. "Dinitz-Robelle PODC'20 Alg. 3/4".
  std::string_view paper;
  /// One-line guarantee (stretch, size, fault model) for help text.
  std::string_view guarantee;
  /// False for the classic non-FT spanners (they ignore params.f).
  bool fault_tolerant;
  /// Fault models the construction accepts (non-FT constructions accept
  /// both in the sense that they ignore the parameter).
  bool vertex_model;
  bool edge_model;
  /// True when the construction consumes SpannerAlgoOptions::seed.
  bool randomized;
  SpannerBuild (*build)(const Graph&, const SpannerParams&,
                        const SpannerAlgoOptions&);
};

/// The full registry, in documentation order (the paper's algorithms first).
[[nodiscard]] std::span<const SpannerAlgoInfo> spanner_algos() noexcept;

/// Looks up a construction by name; nullptr when unknown.
[[nodiscard]] const SpannerAlgoInfo* find_spanner_algo(
    std::string_view name) noexcept;

/// All registered names joined by `sep` ("modified|exact|..."), for help
/// text and error messages — generated, never hand-maintained.
[[nodiscard]] std::string spanner_algo_names(char sep = '|');

/// Dispatches to the named construction.  Throws std::invalid_argument
/// naming every registered algorithm when `algo` is unknown, and loudly when
/// params.model is a fault model the construction does not support.
[[nodiscard]] SpannerBuild build_spanner(std::string_view algo, const Graph& g,
                                         const SpannerParams& params,
                                         const SpannerAlgoOptions& options = {});

}  // namespace ftspan
