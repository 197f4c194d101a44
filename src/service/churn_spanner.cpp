#include "service/churn_spanner.h"

#include <algorithm>
#include <utility>

#include "obs/obs.h"
#include "util/check.h"

namespace ftspan::service {

namespace {

const obs::Counter c_inserts("service.inserts");
const obs::Counter c_removals("service.removals");
const obs::Counter c_spanner_inserts("service.spanner_inserts");
const obs::Counter c_repair_decisions("service.repair.decisions");
const obs::Counter c_repair_promotions("service.repair.promotions");
const obs::Counter c_rebuilds("service.rebuilds");
const obs::Counter c_publishes("service.publishes");

/// Budget slack mirroring the verifier's 1e-9 stretch tolerance, so a
/// detour whose weight is exactly t*w(e) up to rounding still certifies.
constexpr Weight kBudgetEps = 1e-9;

}  // namespace

ChurnSpanner::ChurnSpanner(Graph initial, ChurnConfig config)
    : config_(config),
      bfs_(initial.n()),
      dij_(initial.n()),
      vcut_(initial.n()) {
  config_.params.validate();
  if (config_.publish_every == 0) config_.publish_every = 1;
  obs::ScopedSpan span("service", "churn.init");
  auto build =
      modified_greedy_spanner(initial, config_.params, config_.rebuild);
  adopt_build(std::move(initial), std::move(build));
}

bool ChurnSpanner::decide_spanned(VertexId u, VertexId v, Weight w) {
  // LBC(t, f) against the maintained H (Algorithm 2's sweep loop): find up
  // to f+1 budget-bounded u-v paths, cutting each one's interior vertices
  // (vertex model) / edges (edge model) before the next sweep.  All f+1
  // paths found => they are pairwise disjoint => e is spanned.  Any sweep
  // failing => the accumulated <= f cut separates u from v => not spanned.
  // Weighted meshes sweep with budget-pruned Dijkstra (budget t * w(e))
  // instead of t-hop BFS: churn order is not weight order, so the
  // unweighted-view shortcut of the static greedy (Theorem 10) is unsound
  // here, while the weighted certificate composes unconditionally.
  const std::uint32_t t = config_.params.stretch();
  const std::uint32_t sweeps = config_.params.f + 1;
  const FaultView view{vcut_.bytes(), blocked_};
  bool spanned = true;
  for (std::uint32_t s = 0; s < sweeps; ++s) {
    bool found;
    if (g_.weighted()) {
      found = dij_.shortest_path_arcs(g_, u, v, path_, view,
                                      static_cast<Weight>(t) * w + kBudgetEps);
    } else {
      found = bfs_.shortest_path_arcs(g_, u, v, path_, view, t);
    }
    if (!found) {
      spanned = false;
      break;
    }
    if (s + 1 == sweeps) break;  // enough disjoint paths; no cut needed
    if (config_.params.model == FaultModel::vertex) {
      for (std::size_t i = 1; i + 1 < path_.size(); ++i) {
        vcut_.set(path_[i].to);
      }
      if (path_.size() == 2) {
        // A parallel-free graph has at most one interior-free u-v path: the
        // direct edge.  It must be cut like an interior would be, or every
        // later sweep rediscovers it and the decision overcounts disjoint
        // paths (the static LBC masks it the same way).
        const EdgeId direct = path_[1].edge;
        if (blocked_[direct] == 0) {
          blocked_[direct] = 1;
          ecut_touched_.push_back(direct);
        }
      }
    } else {
      for (std::size_t i = 1; i < path_.size(); ++i) {
        const EdgeId e = path_[i].edge;
        if (blocked_[e] == 0) {
          blocked_[e] = 1;
          ecut_touched_.push_back(e);
        }
      }
    }
  }
  vcut_.reset_touched();
  for (const auto e : ecut_touched_) blocked_[e] = 0;
  ecut_touched_.clear();
  return spanned;
}

UpdateResult ChurnSpanner::insert(VertexId u, VertexId v, Weight w) {
  obs::ScopedSpan span("service", "churn.insert");
  EdgeId id;
  if (const auto existing = g_.find_edge(u, v)) {
    id = *existing;
    FTSPAN_REQUIRE(dead_[id] != 0, "edge already present");
    FTSPAN_REQUIRE(g_.edge(id).w == w,
                   "resurrected edge must keep its original weight");
    dead_[id] = 0;
    // blocked_ stays 1: a resurrected edge re-enters outside H and the
    // decision below may promote it.
  } else {
    id = g_.add_edge(u, v, w);
    dead_.push_back(0);
    blocked_.push_back(1);
    in_h_.push_back(0);
  }
  ++live_m_;
  max_live_w_ = std::max(max_live_w_, w);
  stats_.inserts += 1;
  c_inserts.add();

  if (!decide_spanned(u, v, w)) {
    in_h_[id] = 1;
    blocked_[id] = 0;
    ++spanner_m_;
    stats_.spanner_inserts += 1;
    c_spanner_inserts.add();
  }
  UpdateResult result{id, in_h_[id] != 0, 0, 0};
  note_update();
  result.epoch = snapshot()->epoch;
  return result;
}

UpdateResult ChurnSpanner::remove(VertexId u, VertexId v) {
  obs::ScopedSpan span("service", "churn.remove");
  const auto found = g_.find_edge(u, v);
  FTSPAN_REQUIRE(found.has_value(), "no such edge");
  const EdgeId id = *found;
  FTSPAN_REQUIRE(dead_[id] == 0, "edge already removed");
  const Weight w = g_.edge(id).w;

  dead_[id] = 1;
  --live_m_;
  stats_.removals += 1;
  c_removals.add();

  UpdateResult result{id, false, 0, 0};
  if (in_h_[id] != 0) {
    in_h_[id] = 0;
    blocked_[id] = 1;
    --spanner_m_;
    stats_.spanner_removals += 1;
    result.repicked = repair_after_spanner_removal(u, v, w);
  }
  // A removed non-spanner edge needs no repair: it is already blocked_
  // (blocked = dead OR not-in-H), H is untouched, and no other edge's
  // certificate references it — certificates live entirely inside H.
  note_update();
  result.epoch = snapshot()->epoch;
  return result;
}

std::size_t ChurnSpanner::repair_after_spanner_removal(VertexId u, VertexId v,
                                                       Weight w) {
  obs::ScopedSpan span("service", "churn.repair");
  const std::uint32_t t = config_.params.stretch();
  const FaultView h_view{{}, blocked_};

  // Distance waves from the removed edge's endpoints in the post-removal
  // spanner H'.  Any live non-H edge {x,y} whose certificate routed a path
  // through the removed edge satisfies (up to u/v symmetry)
  //   dist_{H'}(x,u) + w(e) + dist_{H'}(v,y) <= budget(x,y),
  // because the path's segments around e avoid e and hence survive in H' —
  // the wave distances lower-bound them.  Everything failing the test
  // provably kept all f+1 disjoint detours and is never re-examined.
  candidates_.clear();
  std::size_t ball = 0;
  if (g_.weighted()) {
    const Weight budget = static_cast<Weight>(t) * max_live_w_ + kBudgetEps;
    dij_.all_distances(g_, u, du_w_, h_view, budget);
    dij_.all_distances(g_, v, dv_w_, h_view, budget);
    const auto seg = [&](VertexId x, VertexId y) {
      return std::min(du_w_[x] + dv_w_[y], du_w_[y] + dv_w_[x]);
    };
    for (VertexId x = 0; x < g_.n(); ++x) {
      if (du_w_[x] == kUnreachableWeight && dv_w_[x] == kUnreachableWeight) {
        continue;
      }
      ++ball;
      if (du_w_[x] == kUnreachableWeight) continue;
      for (const auto& arc : g_.neighbors(x)) {
        const EdgeId e = arc.edge;
        if (dead_[e] != 0 || in_h_[e] != 0 || eseen_.test(e)) continue;
        if (seg(x, arc.to) + w <=
            static_cast<Weight>(t) * arc.w + kBudgetEps) {
          eseen_.set(e);
          candidates_.push_back(e);
        }
      }
    }
  } else {
    // Hop budget for edge {x,y} is t, so segments reach at most t-1 hops.
    const std::uint32_t reach = t > 0 ? t - 1 : 0;
    bfs_.all_hops(g_, u, du_hops_, h_view, reach);
    bfs_.all_hops(g_, v, dv_hops_, h_view, reach);
    const auto seg = [&](VertexId x, VertexId y) {
      const auto a = du_hops_[x] == kUnreachableHops || dv_hops_[y] == kUnreachableHops
                         ? kUnreachableHops
                         : du_hops_[x] + dv_hops_[y];
      const auto b = du_hops_[y] == kUnreachableHops || dv_hops_[x] == kUnreachableHops
                         ? kUnreachableHops
                         : du_hops_[y] + dv_hops_[x];
      return std::min(a, b);
    };
    for (VertexId x = 0; x < g_.n(); ++x) {
      if (du_hops_[x] == kUnreachableHops && dv_hops_[x] == kUnreachableHops) {
        continue;
      }
      ++ball;
      if (du_hops_[x] == kUnreachableHops) continue;
      for (const auto& arc : g_.neighbors(x)) {
        const EdgeId e = arc.edge;
        if (dead_[e] != 0 || in_h_[e] != 0 || eseen_.test(e)) continue;
        if (seg(x, arc.to) != kUnreachableHops && seg(x, arc.to) + 1 <= t) {
          eseen_.set(e);
          candidates_.push_back(e);
        }
      }
    }
  }
  eseen_.reset_touched();
  stats_.repair_ball_vertices += ball;

  // Re-pick every candidate's decision against the current H.  Promotions
  // only grow H, which can never break an already-confirmed certificate
  // (the f+1 disjoint paths are still there), so any re-pick order is sound.
  std::size_t promoted = 0;
  for (const auto e : candidates_) {
    const Edge& edge = g_.edge(e);
    stats_.repair_decisions += 1;
    c_repair_decisions.add();
    if (!decide_spanned(edge.u, edge.v, edge.w)) {
      in_h_[e] = 1;
      blocked_[e] = 0;
      ++spanner_m_;
      ++promoted;
      stats_.repair_promotions += 1;
      c_repair_promotions.add();
    }
  }
  return promoted;
}

void ChurnSpanner::rebuild() {
  obs::ScopedSpan span("service", "churn.rebuild");
  Graph live = live_graph();
  auto build = modified_greedy_spanner(live, config_.params, config_.rebuild);
  adopt_build(std::move(live), std::move(build));
}

void ChurnSpanner::adopt_build(Graph live, SpannerBuild build) {
  g_ = std::move(live);
  dead_.assign(g_.m(), 0);
  in_h_.assign(g_.m(), 0);
  blocked_.assign(g_.m(), 1);
  for (const auto id : build.picked) {
    in_h_[id] = 1;
    blocked_[id] = 0;
  }
  live_m_ = g_.m();
  spanner_m_ = build.picked.size();
  max_live_w_ = 1.0;
  for (const auto& e : g_.edges()) max_live_w_ = std::max(max_live_w_, e.w);
  vcut_.ensure_universe(g_.n());
  eseen_.ensure_universe(g_.m());
  stats_.rebuilds += 1;
  c_rebuilds.add();
  updates_since_rebuild_ = 0;
  publish_locked();
}

std::uint64_t ChurnSpanner::flush() {
  publish_locked();
  return epoch_;
}

void ChurnSpanner::note_update() {
  ++updates_since_rebuild_;
  ++unpublished_;
  eseen_.ensure_universe(g_.m());
  if (config_.rebuild_budget != 0 &&
      updates_since_rebuild_ >= config_.rebuild_budget) {
    rebuild();  // publishes
    return;
  }
  if (unpublished_ >= config_.publish_every) publish_locked();
}

void ChurnSpanner::publish_locked() {
  ++epoch_;
  stats_.publishes += 1;
  c_publishes.add();
  auto snap = std::make_shared<ChurnSnapshot>();
  snap->epoch = epoch_;
  snap->graph = g_;
  snap->dead = dead_;
  snap->blocked = blocked_;
  snap->params = config_.params;
  snap->live_m = live_m_;
  snap->spanner_m = spanner_m_;
  snap->stats = stats_;
  snap_.store(std::move(snap), std::memory_order_release);
  unpublished_ = 0;
}

Graph ChurnSpanner::live_graph() const {
  std::vector<Edge> edges;
  edges.reserve(live_m_);
  for (EdgeId e = 0; e < g_.m(); ++e) {
    if (dead_[e] == 0) edges.push_back(g_.edge(e));
  }
  return Graph::from_edges(g_.n(), edges, g_.weighted());
}

Graph ChurnSpanner::spanner_graph() const {
  std::vector<Edge> edges;
  edges.reserve(spanner_m_);
  for (EdgeId e = 0; e < g_.m(); ++e) {
    if (in_h_[e] != 0) edges.push_back(g_.edge(e));
  }
  return Graph::from_edges(g_.n(), edges, g_.weighted());
}

OracleReport ChurnSpanner::oracle_check(std::uint32_t trials, Rng& rng,
                                        std::uint32_t threads,
                                        bool compare_oracle) {
  obs::ScopedSpan span("service", "churn.oracle_check");
  OracleReport out;
  Graph live = live_graph();
  const Graph h = spanner_graph();
  out.report = verify_sampled(live, h, config_.params, trials, rng, threads);
  out.maintained_m = spanner_m_;
  if (compare_oracle) {
    auto build =
        modified_greedy_spanner(live, config_.params, config_.rebuild);
    out.oracle_m = build.picked.size();
    if (config_.size_slack > 0.0 &&
        static_cast<double>(out.maintained_m) >
            config_.size_slack * static_cast<double>(out.oracle_m)) {
      adopt_build(std::move(live), std::move(build));
      out.rebuilt = true;
    }
  }
  return out;
}

Weight snapshot_distance(const ChurnSnapshot& snap, DijkstraRunner& runner,
                         VertexId u, VertexId v, const FaultView& view) {
  FTSPAN_REQUIRE(u < snap.graph.n() && v < snap.graph.n(),
                 "vertex out of range");
  return runner.distance(snap.graph, u, v, view);
}

}  // namespace ftspan::service
