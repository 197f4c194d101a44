#include "core/lbc.h"

#include "obs/obs.h"
#include "util/check.h"

namespace ftspan {

namespace {

const obs::Counter c_sweep_tree("sweep.tree_served");
const obs::Counter c_sweep_masked("sweep.masked_repair_served");
const obs::Counter c_sweep_dedicated("sweep.dedicated");
const obs::Counter c_tree_sessions("tree.sessions");
const obs::Counter c_tree_grafts("tree.grafts");
const obs::Counter c_tree_repairs("tree.repairs");
const obs::Counter c_tree_rollbacks("tree.rollbacks");
const obs::Gauge g_repair_wave("repair.wave.max");
const obs::Gauge g_graft_wave("graft.wave.max");

}  // namespace

LbcResult LbcSolver::decide(const Graph& g, VertexId u, VertexId v,
                            std::uint32_t t, std::uint32_t alpha) {
  batch_g_ = nullptr;  // a direct decision ends any open batch
  return run_decision(g, u, v, t, alpha, /*sweep0_from_tree=*/false);
}

LbcResult LbcSolver::decide_weighted(const Graph& g, VertexId u, VertexId v,
                                     Weight budget, std::uint32_t alpha) {
  batch_g_ = nullptr;  // a direct decision ends any open batch
  FTSPAN_REQUIRE(u < g.n() && v < g.n(), "LBC terminal out of range");
  FTSPAN_REQUIRE(u != v, "LBC terminals must be distinct");
  FTSPAN_REQUIRE(budget > 0, "weighted LBC requires a positive budget");

  vertex_cut_.ensure_universe(g.n());
  edge_cut_.ensure_universe(g.m());

  LbcResult result;
  result.cut.model = model_;

  FaultView cut_view;
  if (model_ == FaultModel::vertex)
    cut_view.failed_vertices = vertex_cut_.bytes();
  else
    cut_view.failed_edges = edge_cut_.bytes();

  for (std::uint32_t i = 0; i <= alpha; ++i) {
    ++result.sweeps;
    ++total_sweeps_;
    const obs::ScopedSpan span("sweep", "weighted", "target", v, "sweep", i);
    c_sweep_dedicated.add();
    // Sweep 0 runs before anything is cut: the empty view keeps the runner
    // on its no-mask path, mirroring the hop engine's dispatch.
    const FaultView faults = i == 0 ? FaultView{} : cut_view;
    const bool found =
        dijkstra_.shortest_path_arcs(g, u, v, path_, faults, budget);
    if (!found) {
      result.yes = true;
      break;
    }
    if (model_ == FaultModel::vertex) {
      // Interior vertices only; u and v may never be cut.
      for (std::size_t j = 1; j + 1 < path_.size(); ++j)
        vertex_cut_.set(path_[j].to);
    } else {
      for (std::size_t j = 1; j < path_.size(); ++j)
        edge_cut_.set(path_[j].edge);
    }
  }

  const auto& touched = model_ == FaultModel::vertex ? vertex_cut_.touched()
                                                     : edge_cut_.touched();
  result.cut.ids.assign(touched.begin(), touched.end());
  vertex_cut_.reset_touched();
  edge_cut_.reset_touched();
  return result;
}

void LbcSolver::begin_batch(const Graph& g, VertexId u,
                            std::span<const VertexId> targets,
                            std::uint32_t t) {
  FTSPAN_REQUIRE(u < g.n(), "LBC terminal out of range");
  FTSPAN_REQUIRE(t >= 1, "LBC requires t >= 1");
  FTSPAN_REQUIRE(!targets.empty(), "LBC batch must have at least one target");
  batch_g_ = &g;
  batch_u_ = u;
  batch_t_ = t;
  batch_m_ = g.m();
  batch_targets_.assign(targets.begin(), targets.end());
  const obs::ScopedSpan span("tree", "begin", "source", u, "targets",
                             targets.size());
  tree_bfs_.tree_begin(g, u, batch_targets_, FaultView{}, t);
  ++trees_built_;
  c_tree_sessions.add();
}

LbcResult LbcSolver::decide_batched(std::size_t index, std::uint32_t alpha) {
  FTSPAN_REQUIRE(batch_g_ != nullptr, "no open LBC batch");
  FTSPAN_REQUIRE(index < batch_targets_.size(), "LBC batch index out of range");
  FTSPAN_REQUIRE(batch_g_->m() == batch_m_,
                 "graph mutated during an LBC batch (re-begin_batch first)");
  return run_decision(*batch_g_, batch_u_, batch_targets_[index], batch_t_,
                      alpha, /*sweep0_from_tree=*/true);
}

void LbcSolver::extend_batch_after_accept(VertexId v, EdgeId via_edge) {
  FTSPAN_REQUIRE(batch_g_ != nullptr, "no open LBC batch");
  FTSPAN_REQUIRE(batch_g_->m() == batch_m_ + 1,
                 "extend_batch_after_accept expects exactly one appended edge");
  batch_m_ = batch_g_->m();
  obs::ScopedSpan span("graft", "insert_source_arc", "target", v);
  const std::size_t wave = tree_bfs_.tree_insert_source_arc(v, via_edge);
  span.end_args("wave", wave);
  ++tree_extends_;
  c_tree_grafts.add();
  g_graft_wave.update(wave);
}

void LbcSolver::decide_batch(const Graph& g, VertexId u,
                             std::span<const VertexId> targets, std::uint32_t t,
                             std::uint32_t alpha,
                             std::span<LbcResult> results) {
  FTSPAN_REQUIRE(results.size() == targets.size(),
                 "LBC batch results must be sized like targets");
  begin_batch(g, u, targets, t);
  for (std::size_t j = 0; j < targets.size(); ++j)
    results[j] = decide_batched(j, alpha);
}

LbcResult LbcSolver::run_decision(const Graph& g, VertexId u, VertexId v,
                                  std::uint32_t t, std::uint32_t alpha,
                                  bool sweep0_from_tree) {
  FTSPAN_REQUIRE(u < g.n() && v < g.n(), "LBC terminal out of range");
  FTSPAN_REQUIRE(u != v, "LBC terminals must be distinct");
  FTSPAN_REQUIRE(t >= 1, "LBC requires t >= 1");

  vertex_cut_.ensure_universe(g.n());
  edge_cut_.ensure_universe(g.m());

  LbcResult result;
  result.cut.model = model_;

  FaultView cut_view;
  if (model_ == FaultModel::vertex)
    cut_view.failed_vertices = vertex_cut_.bytes();
  else
    cut_view.failed_edges = edge_cut_.bytes();

  // Masked-tree mode: sweeps >= 1 read the shared terminal tree, repaired
  // in place after each sweep's cut growth and rolled back at decision end.
  const bool masked_tree = sweep0_from_tree && masked_tree_;
  bool repaired = false;

  for (std::uint32_t i = 0; i <= alpha; ++i) {
    ++result.sweeps;
    ++total_sweeps_;
    bool found;
    if (i == 0 && sweep0_from_tree) {
      // Sweep 0 of a batched decision: resume the shared terminal tree just
      // far enough to settle v.
      const obs::ScopedSpan span("sweep", "tree_served", "target", v);
      ++batched_sweeps_;
      c_sweep_tree.add();
      found = tree_bfs_.tree_next(v) <= t;
      if (found) tree_bfs_.path_arcs_to(v, path_);
    } else if (masked_tree && i > 0) {
      // Masked sweep served from the repaired tree: distance and lex-min
      // path are bit-identical to the dedicated BFS below.
      const obs::ScopedSpan span("sweep", "masked_repair_served", "target", v,
                                 "sweep", i);
      ++masked_sweeps_;
      c_sweep_masked.add();
      found = tree_bfs_.tree_masked_dist(v) <= t;
      if (found) tree_bfs_.tree_masked_path_arcs(v, path_);
    } else {
      // Sweep 0 runs before anything is cut; handing the BFS an empty view
      // lets it dispatch to the no-mask specialization (≈70% of all sweeps).
      const obs::ScopedSpan span("sweep", "dedicated", "target", v, "sweep",
                                 i);
      c_sweep_dedicated.add();
      const FaultView faults = i == 0 ? FaultView{} : cut_view;
      const ArcIndex before = bfs_.arcs_scanned();
      found = bfs_.shortest_path_arcs(g, u, v, path_, faults, t);
      if (i > 0) {
        // A dedicated run under a non-empty cut is exactly the sweep the
        // masked-tree repair path would have served: meter its arc cost so
        // the repair-vs-dedicated ratio can be formed across A/B runs.
        ++dedicated_masked_sweeps_;
        dedicated_masked_arcs_ += bfs_.arcs_scanned() - before;
      }
    }
    if (!found) {
      result.yes = true;
      break;
    }
    if (model_ == FaultModel::vertex) {
      // Interior vertices only; u and v may never be cut.
      const std::size_t before = vertex_cut_.touched().size();
      for (std::size_t j = 1; j + 1 < path_.size(); ++j)
        vertex_cut_.set(path_[j].to);
      if (masked_tree && i < alpha) {  // the last sweep's cut is never read
        obs::ScopedSpan span("repair", "cut", "sweep", i);
        const std::size_t wave =
            tree_bfs_.tree_repair_cut(vertex_cut_.touched().subspan(before),
                                      std::span<const EdgeId>{}, cut_view);
        span.end_args("wave", wave);
        c_tree_repairs.add();
        g_repair_wave.update(wave);
        repaired = true;
      }
    } else {
      // Every step after the source carries the edge it arrived over.
      const std::size_t before = edge_cut_.touched().size();
      for (std::size_t j = 1; j < path_.size(); ++j) edge_cut_.set(path_[j].edge);
      if (masked_tree && i < alpha) {
        obs::ScopedSpan span("repair", "cut", "sweep", i);
        const std::size_t wave = tree_bfs_.tree_repair_cut(
            std::span<const VertexId>{}, edge_cut_.touched().subspan(before),
            cut_view);
        span.end_args("wave", wave);
        c_tree_repairs.add();
        g_repair_wave.update(wave);
        repaired = true;
      }
    }
  }
  if (repaired) {
    obs::instant("repair", "rollback");
    c_tree_rollbacks.add();
    tree_bfs_.tree_rollback();
  }

  const auto& touched = model_ == FaultModel::vertex ? vertex_cut_.touched()
                                                     : edge_cut_.touched();
  result.cut.ids.assign(touched.begin(), touched.end());
  vertex_cut_.reset_touched();
  edge_cut_.reset_touched();
  return result;
}

LbcResult lbc_decide(const Graph& g, VertexId u, VertexId v, std::uint32_t t,
                     std::uint32_t alpha, FaultModel model) {
  LbcSolver solver(model);
  return solver.decide(g, u, v, t, alpha);
}

}  // namespace ftspan
