#include "spanner/bdpvw_vft.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <utility>

#include "core/fault_search.h"
#include "core/lbc.h"
#include "util/check.h"
#include "util/timer.h"

namespace ftspan {

namespace {

/// Same batch cap as the modified greedy (see modified_greedy.cpp): bounds
/// the re-marking cost of re-beginning a hub's batch after an accept.
constexpr std::size_t kMaxTerminalBatch = 512;

}  // namespace

SpannerBuild bdpvw_vft_spanner(const Graph& g, const SpannerParams& params,
                               const BdpvwConfig& config) {
  params.validate();
  FTSPAN_REQUIRE(params.model == FaultModel::vertex,
                 "BDPVW is a vertex-fault-tolerant construction "
                 "(params.model must be FaultModel::vertex)");
  const Timer timer;

  // Nondecreasing weight, ties by id — the exact_greedy_spanner order, so
  // the differential pin (identical picks) is exact.
  std::vector<EdgeId> order(g.m());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
    return g.edge(a).w < g.edge(b).w;
  });

  SpannerBuild build;
  build.spanner = Graph(g.n(), g.weighted());
  FaultSetSearch search(params.model);
  LbcSolver lbc(params.model);

  const std::uint32_t t = params.stretch();
  // A hop-bounded cut certifies nothing about the weighted threshold
  // t * w(e), so the filter applies to unweighted inputs only.
  const bool filtered = config.lbc_filter && !g.weighted();

  const auto exact_witness = [&](EdgeId id) {
    const auto& e = g.edge(id);
    const PathBound bound = g.weighted()
                                ? PathBound::weight(static_cast<Weight>(t) * e.w)
                                : PathBound::hops(t);
    ++build.stats.exact_searches;
    return search.find_blocking_set(build.spanner, e.u, e.v, bound, params.f);
  };

  // Filter-first resolution of one decision: NO rejects outright (Theorem 4
  // leaves no cut of size <= f), a small YES-cut is itself the witness, and
  // only the ambiguous remainder pays for a branch-and-bound search.
  const auto resolve = [&](LbcResult pre, EdgeId id) -> std::optional<FaultSet> {
    if (!pre.yes) return std::nullopt;
    if (pre.cut.ids.size() <= params.f) return std::move(pre.cut);
    return exact_witness(id);
  };

  const auto commit = [&](std::optional<FaultSet> witness, EdgeId id) {
    ++build.stats.oracle_calls;
    if (!witness.has_value()) return false;
    const auto& e = g.edge(id);
    build.spanner.add_edge(e.u, e.v, e.w);
    build.picked.push_back(id);
    if (config.record_certificates)
      build.certificates.push_back(std::move(*witness));
    return true;
  };

  if (!filtered) {
    for (const auto id : order) commit(exact_witness(id), id);
  } else {
    // The prefiltered scan is the modified greedy's batching loop with the
    // hybrid resolution spliced in where the LBC answer used to be final.
    const bool graft_accepts = params.f == 0;
    std::vector<VertexId> targets;
    std::size_t i = 0;
    while (i < order.size()) {
      const VertexId shared_u = g.edge(order[i]).u;
      std::size_t j = i + 1;
      if (config.batch_terminals) {
        const std::size_t cap =
            graft_accepts ? order.size() : i + kMaxTerminalBatch;
        while (j < std::min(order.size(), cap) &&
               g.edge(order[j]).u == shared_u)
          ++j;
      }
      while (j - i > 1) {
        targets.clear();
        for (std::size_t p = i; p < j; ++p)
          targets.push_back(g.edge(order[p]).v);
        lbc.begin_batch(build.spanner, shared_u, targets, t);
        const std::size_t base = i;
        for (; i < j; ++i)
          if (commit(resolve(lbc.decide_batched(i - base, params.f), order[i]),
                     order[i])) {
            if (graft_accepts) {
              // f == 0 is an alpha-0 decision and never reaches the search:
              // graft the accepted edge into the shared tree in place.
              if (i + 1 < j)
                lbc.extend_batch_after_accept(
                    g.edge(order[i]).v,
                    static_cast<EdgeId>(build.spanner.m() - 1));
              continue;
            }
            ++i;
            break;
          }
      }
      if (j - i == 1) {
        const auto& e = g.edge(order[i]);
        commit(resolve(lbc.decide(build.spanner, e.u, e.v, t, params.f),
                       order[i]),
               order[i]);
        ++i;
      }
    }
  }

  build.stats.search_sweeps = lbc.total_sweeps();
  build.stats.batched_sweeps = lbc.batched_sweeps();
  build.stats.tree_reuse_hits = lbc.tree_reuse_hits();
  build.stats.tree_extends = lbc.tree_extends();
  build.stats.arcs_traversed = lbc.arcs_scanned();
  build.stats.arena_bytes = lbc.arena_bytes();
  build.stats.exact_search_nodes = search.nodes_visited();
  build.stats.seconds = timer.seconds();
  return build;
}

}  // namespace ftspan
