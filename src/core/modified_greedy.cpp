#include "core/modified_greedy.h"

#include <algorithm>
#include <numeric>

#include "core/lbc.h"
#include "util/rng.h"
#include "util/timer.h"

namespace ftspan {

namespace {

/// Upper bound on one terminal batch.  Re-beginning a batch after an accept
/// re-marks the remaining targets, so unbounded runs on a huge-degree hub
/// could pay O(degree^2) marking; the cap keeps that amortized O(1) per
/// decision without changing any result (it only splits runs).
constexpr std::size_t kMaxTerminalBatch = 512;

std::vector<EdgeId> scan_order(const Graph& g, EdgeOrder order,
                               std::uint64_t shuffle_seed) {
  std::vector<EdgeId> ids(g.m());
  std::iota(ids.begin(), ids.end(), 0);
  switch (order) {
    case EdgeOrder::input:
      break;
    case EdgeOrder::by_weight:
      std::stable_sort(ids.begin(), ids.end(), [&](EdgeId a, EdgeId b) {
        return g.edge(a).w < g.edge(b).w;
      });
      break;
    case EdgeOrder::by_weight_desc:
      std::stable_sort(ids.begin(), ids.end(), [&](EdgeId a, EdgeId b) {
        return g.edge(a).w > g.edge(b).w;
      });
      break;
    case EdgeOrder::random: {
      Rng rng(shuffle_seed);
      std::shuffle(ids.begin(), ids.end(), rng);
      break;
    }
  }
  return ids;
}

}  // namespace

SpannerBuild modified_greedy_spanner(const Graph& g, const SpannerParams& params,
                                     const ModifiedGreedyConfig& config) {
  params.validate();
  const Timer timer;
  const auto order = scan_order(g, config.order, config.shuffle_seed);

  SpannerBuild build;
  build.spanner = Graph(g.n(), g.weighted());
  LbcSolver lbc(params.model);

  const std::uint32_t t =
      config.hop_budget != 0 ? config.hop_budget : params.stretch();
  // Algorithm 2 runs on the *unweighted* view of H — even for weighted G,
  // the weights only determined the scan order (Theorem 10's key idea).
  const auto commit = [&](LbcResult decision, EdgeId id) {
    ++build.stats.oracle_calls;
    if (!decision.yes) return false;
    const auto& e = g.edge(id);
    build.spanner.add_edge(e.u, e.v, e.w);
    build.picked.push_back(id);
    if (config.record_certificates)
      build.certificates.push_back(std::move(decision.cut));
    return true;
  };

  // With alpha == 0 an accept leaves the shared tree exhausted and the new
  // edge graftable in place (extend_batch_after_accept), so runs never
  // re-begin and the cap would only split trees for nothing: lift it.
  const bool graft_accepts = params.f == 0;
  std::vector<VertexId> targets;
  std::size_t i = 0;
  while (i < order.size()) {
    const VertexId shared_u = g.edge(order[i]).u;
    std::size_t j = i + 1;
    if (config.batch_terminals) {
      // Terminal batch: a maximal run of consecutive candidates out of the
      // same vertex, capped so re-marking after accepts stays cheap even on
      // huge-degree hubs.
      const std::size_t cap = graft_accepts ? order.size()
                                            : i + kMaxTerminalBatch;
      while (j < std::min(order.size(), cap) &&
             g.edge(order[j]).u == shared_u)
        ++j;
    }
    while (j - i > 1) {
      // One shared tree serves the run until a decision accepts; accepting
      // grows H, so the remaining targets re-begin against the new H —
      // exactly the decision a per-edge scan would have made there.
      // With alpha == 0 the re-begin is skipped: the accepted edge is
      // grafted into the tree instead (bit-identical decisions, since an
      // alpha-0 decision consumes only the distance answer).
      targets.clear();
      for (std::size_t p = i; p < j; ++p) targets.push_back(g.edge(order[p]).v);
      lbc.begin_batch(build.spanner, shared_u, targets, t);
      const std::size_t base = i;
      for (; i < j; ++i)
        if (commit(lbc.decide_batched(i - base, params.f), order[i])) {
          if (graft_accepts) {
            if (i + 1 < j)  // nothing left to answer: skip the graft
              lbc.extend_batch_after_accept(
                  g.edge(order[i]).v,
                  static_cast<EdgeId>(build.spanner.m() - 1));
            continue;
          }
          ++i;
          break;
        }
    }
    if (j - i == 1) {  // singleton run or batch remainder: plain decision
      const auto& e = g.edge(order[i]);
      commit(lbc.decide(build.spanner, e.u, e.v, t, params.f), order[i]);
      ++i;
    }
  }
  build.stats.search_sweeps = lbc.total_sweeps();
  build.stats.batched_sweeps = lbc.batched_sweeps();
  build.stats.tree_reuse_hits = lbc.tree_reuse_hits();
  build.stats.tree_extends = lbc.tree_extends();
  build.stats.arcs_traversed = lbc.arcs_scanned();
  build.stats.arena_bytes = lbc.arena_bytes();
  build.stats.dedicated_masked_arcs = lbc.dedicated_masked_arcs();
  build.stats.seconds = timer.seconds();
  return build;
}

}  // namespace ftspan
