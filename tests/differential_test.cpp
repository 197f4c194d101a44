// Cross-variant differential fuzz harness: the modified greedy with
// terminal batching on and off must produce bit-identical picks,
// certificates, oracle-call and sweep counts on seeded random inputs across
// both fault models.  A second tier pins the batched LBC oracle itself
// (decide_batched) against the dedicated per-pair oracle down to cuts and
// sweep counts, a third pins the verifier's reports across thread
// counts, and a fourth pins the verifier's unit-weight path against its
// Dijkstra path on the same graphs rebuilt as weighted.  Every assertion
// names the
// failing seed so a red run is reproducible from the log alone.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/lbc.h"
#include "core/modified_greedy.h"
#include "fault/scenario.h"
#include "fault/verifier.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/subgraph.h"
#include "obs/obs.h"
#include "spanner/baswana_sen.h"
#include "util/rng.h"

namespace ftspan {
namespace {

// ----------------------------------------------------- engine-level harness

/// Runs the batched engine against the unbatched reference and asserts
/// bit-identity of everything a downstream consumer can see.
void expect_engines_agree(const Graph& g, const SpannerParams& params,
                          EdgeOrder order, std::uint64_t seed) {
  const std::string ctx = "seed=" + std::to_string(seed) +
                          " n=" + std::to_string(g.n()) +
                          " m=" + std::to_string(g.m()) +
                          " k=" + std::to_string(params.k) +
                          " f=" + std::to_string(params.f) + " model=" +
                          to_string(params.model);

  ModifiedGreedyConfig ref_config;
  ref_config.order = order;
  ref_config.record_certificates = true;
  ref_config.batch_terminals = false;
  const auto ref = modified_greedy_spanner(g, params, ref_config);

  ModifiedGreedyConfig config;
  config.order = order;
  config.record_certificates = true;
  const auto build = modified_greedy_spanner(g, params, config);

  ASSERT_EQ(build.picked, ref.picked) << ctx;
  EXPECT_EQ(build.stats.oracle_calls, ref.stats.oracle_calls) << ctx;
  EXPECT_EQ(build.stats.search_sweeps, ref.stats.search_sweeps) << ctx;
  ASSERT_EQ(build.certificates.size(), ref.certificates.size()) << ctx;
  for (std::size_t i = 0; i < ref.certificates.size(); ++i)
    ASSERT_EQ(build.certificates[i].ids, ref.certificates[i].ids)
        << ctx << " certificate=" << i;
}

TEST(Differential, EnginesAgreeOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(0xd1ffu * seed + seed);
    const auto n = 24 + 8 * static_cast<std::size_t>(rng.next_below(5));
    const Graph g = gnp(n, 0.10 + 0.04 * static_cast<double>(rng.next_below(4)),
                        rng);
    const auto k = static_cast<std::uint32_t>(1 + rng.next_below(3));
    const auto f = static_cast<std::uint32_t>(rng.next_below(4));
    for (const FaultModel model : {FaultModel::vertex, FaultModel::edge})
      expect_engines_agree(g, SpannerParams{.k = k, .f = f, .model = model},
                           EdgeOrder::input, seed);
  }
}

TEST(Differential, EnginesAgreeOnWeightedGraphs) {
  for (std::uint64_t seed = 21; seed <= 23; ++seed) {
    Rng rng(0xd1ffu * seed);
    const Graph g0 = random_geometric(30, 0.35, rng);
    const Graph g = with_uniform_weights(g0, 0.5, 2.0, rng);
    for (const FaultModel model : {FaultModel::vertex, FaultModel::edge})
      expect_engines_agree(g,
                           SpannerParams{.k = 2, .f = 2, .model = model},
                           EdgeOrder::by_weight, seed);
  }
}

TEST(Differential, EnginesAgreeOnSparseDisconnectedGraphs) {
  // Very sparse G(n, p) is routinely disconnected, so unreachable targets
  // and empty terminal trees get real coverage.
  for (std::uint64_t seed = 31; seed <= 34; ++seed) {
    Rng rng(0xd15cu * seed);
    const Graph g = gnp(40, 0.04, rng);
    for (const FaultModel model : {FaultModel::vertex, FaultModel::edge})
      expect_engines_agree(g, SpannerParams{.k = 2, .f = 2, .model = model},
                           EdgeOrder::input, seed);
  }
}

// ----------------------------------------------------- oracle-level harness

/// Pins batched decide_batched against the dedicated per-pair oracle:
/// decisions, certificates, and sweep counts must be bit-identical.
void expect_batched_oracle_matches(const Graph& g, FaultModel model,
                                   std::uint32_t t, std::uint32_t alpha,
                                   VertexId u,
                                   const std::vector<VertexId>& targets,
                                   std::uint64_t seed,
                                   bool expect_masked_sweeps = false) {
  const std::string ctx = "seed=" + std::to_string(seed) + " u=" +
                          std::to_string(u) + " t=" + std::to_string(t) +
                          " alpha=" + std::to_string(alpha) + " model=" +
                          to_string(model);

  LbcSolver batched(model);
  LbcSolver reference(model);
  std::vector<LbcResult> results(targets.size());
  batched.decide_batch(g, u, targets, t, alpha, results);

  for (std::size_t j = 0; j < targets.size(); ++j) {
    const LbcResult ref = reference.decide(g, u, targets[j], t, alpha);
    ASSERT_EQ(results[j].yes, ref.yes) << ctx << " target=" << targets[j];
    ASSERT_EQ(results[j].sweeps, ref.sweeps) << ctx << " target=" << targets[j];
    ASSERT_EQ(results[j].cut.ids, ref.cut.ids) << ctx << " target=" << targets[j];
  }
  EXPECT_EQ(batched.total_sweeps(), reference.total_sweeps()) << ctx;
  if (expect_masked_sweeps) {  // guard against the harness passing vacuously
    EXPECT_GT(batched.total_sweeps(), batched.batched_sweeps()) << ctx;
  }
}

TEST(Differential, BatchedOracleMatchesDedicatedBfs) {
  for (std::uint64_t seed = 41; seed <= 52; ++seed) {
    Rng rng(0x0bacULL * seed + 17);
    const auto n = 16 + 8 * static_cast<std::size_t>(rng.next_below(6));
    const Graph g =
        gnp(n, 0.08 + 0.05 * static_cast<double>(rng.next_below(5)), rng);
    const auto u = static_cast<VertexId>(rng.next_below(g.n()));
    std::vector<VertexId> targets;
    for (VertexId v = 0; v < g.n(); ++v)
      if (v != u) targets.push_back(v);
    std::shuffle(targets.begin(), targets.end(), rng);
    const auto t = static_cast<std::uint32_t>(1 + rng.next_below(5));
    const auto alpha = static_cast<std::uint32_t>(rng.next_below(5));
    for (const FaultModel model : {FaultModel::vertex, FaultModel::edge})
      expect_batched_oracle_matches(g, model, t, alpha, u, targets, seed);
  }
}

// ------------------------------------------------- tracing bit-identity

/// The obs layer's second CI contract: tracing observes, never steers.
/// Every consumer-visible output — picks, certificates, sweep counts, and
/// the verifier's report at threads {1, 2, 8} — must be bit-identical with
/// tracing on vs off.
TEST(Differential, TracingOnNeverPerturbsResults) {
  obs::reset_for_testing();
  Rng rng(0x0b5eULL);
  const Graph g = gnp(48, 0.14, rng);
  const SpannerParams params{.k = 2, .f = 2};
  ModifiedGreedyConfig config;
  config.record_certificates = true;
  for (const std::uint32_t threads : {1u, 2u, 8u}) {
    const std::string ctx = "threads=" + std::to_string(threads);
    const auto off = modified_greedy_spanner(g, params, config);
    Rng verify_off_rng(99);
    const auto report_off =
        verify_sampled(g, off.spanner, params, 8, verify_off_rng, threads);

    obs::trace_start(obs::TraceOptions{std::size_t{1} << 12});
    const auto on = modified_greedy_spanner(g, params, config);
    Rng verify_on_rng(99);
    const auto report_on =
        verify_sampled(g, on.spanner, params, 8, verify_on_rng, threads);
    obs::trace_stop();
    obs::metrics_stop();

    ASSERT_EQ(on.picked, off.picked) << ctx;
    EXPECT_EQ(on.stats.oracle_calls, off.stats.oracle_calls) << ctx;
    EXPECT_EQ(on.stats.search_sweeps, off.stats.search_sweeps) << ctx;
    ASSERT_EQ(on.certificates.size(), off.certificates.size()) << ctx;
    for (std::size_t i = 0; i < off.certificates.size(); ++i)
      ASSERT_EQ(on.certificates[i].ids, off.certificates[i].ids)
          << ctx << " certificate=" << i;
    EXPECT_EQ(report_on.ok, report_off.ok) << ctx;
    EXPECT_EQ(report_on.max_stretch, report_off.max_stretch) << ctx;
    EXPECT_EQ(report_on.pairs_checked, report_off.pairs_checked) << ctx;
    EXPECT_EQ(report_on.worst.faults.ids, report_off.worst.faults.ids) << ctx;
  }
  obs::reset_for_testing();
}

/// Asserts two verifier reports equal field by field, witness included.
void expect_reports_identical(const StretchReport& report,
                              const StretchReport& ref,
                              const std::string& ctx) {
  ASSERT_EQ(report.ok, ref.ok) << ctx;
  ASSERT_EQ(report.max_stretch, ref.max_stretch) << ctx;
  ASSERT_EQ(report.fault_sets_checked, ref.fault_sets_checked) << ctx;
  ASSERT_EQ(report.pairs_checked, ref.pairs_checked) << ctx;
  ASSERT_EQ(report.trials_skipped, ref.trials_skipped) << ctx;
  ASSERT_EQ(report.worst.faults.model, ref.worst.faults.model) << ctx;
  ASSERT_EQ(report.worst.faults.ids, ref.worst.faults.ids) << ctx;
  ASSERT_EQ(report.worst.u, ref.worst.u) << ctx;
  ASSERT_EQ(report.worst.v, ref.worst.v) << ctx;
  ASSERT_EQ(report.worst.d_g, ref.worst.d_g) << ctx;
  ASSERT_EQ(report.worst.d_h, ref.worst.d_h) << ctx;
}

// ------------------------------------------------- scenario bit-identity

/// Scenario storms share verify_sampled's execution contract: draws are
/// consumed sequentially up front and per-trial reports fold in trial order,
/// so the whole report — including the worst witness — must be bit-identical
/// at threads {1, 2, 8}.  A baswana_sen (non-FT) spanner keeps the witness
/// interesting: violations and infinities must reproduce too.
TEST(Differential, ScenarioStormsBitIdenticalAcrossThreads) {
  for (const std::uint64_t seed : {71u, 72u, 73u}) {
    Rng gen_rng(0x5ce2ULL * seed + 1);
    std::vector<Point> coords;
    const Graph g = random_geometric(36, 0.3, gen_rng, &coords);
    Rng bs_rng(seed);
    const Graph h = baswana_sen_spanner(g, 2, bs_rng);
    for (const FaultModel model : {FaultModel::vertex, FaultModel::edge}) {
      const SpannerParams params{.k = 2, .f = 2, .model = model};
      for (const ScenarioKind kind : kAllScenarioKinds) {
        ScenarioSpec spec;
        spec.kind = kind;
        spec.ball_radius = 0.3;
        spec.restarts = 2;
        spec.coords = coords;
        const std::uint32_t trials =
            kind == ScenarioKind::adaptive ? 4 : 10;
        const std::uint64_t storm_seed = seed * 131 + 7;

        Rng ref_rng(storm_seed);
        const StretchReport ref =
            verify_scenario(g, h, params, spec, trials, ref_rng);
        for (const std::uint32_t threads : {2u, 8u}) {
          const std::string ctx = "seed=" + std::to_string(seed) +
                                  " scenario=" + to_string(kind) +
                                  " model=" + to_string(params.model) +
                                  " threads=" + std::to_string(threads);
          Rng rng(storm_seed);
          ASSERT_NO_FATAL_FAILURE(expect_reports_identical(
              verify_scenario(g, h, params, spec, trials, rng, threads), ref,
              ctx));
        }
      }
    }
  }
}

TEST(Differential, BatchedOracleMatchesOnDenseGraphs) {
  // Dense rows give most decisions several masked sweeps, so the cut
  // accumulation past the shared sweep 0 gets real coverage.
  for (std::uint64_t seed = 61; seed <= 64; ++seed) {
    Rng rng(0xd05eULL * seed + 3);
    const Graph g = gnp(28, 0.45, rng);
    const auto u = static_cast<VertexId>(rng.next_below(g.n()));
    std::vector<VertexId> targets;
    for (VertexId v = 0; v < g.n(); ++v)
      if (v != u) targets.push_back(v);
    for (const FaultModel model : {FaultModel::vertex, FaultModel::edge})
      expect_batched_oracle_matches(g, model, 3, 4, u, targets, seed,
                                    /*expect_masked_sweeps=*/true);
  }
}

// ------------------------------------------- unit-weight verifier vs Dijkstra

/// The same graph with weighted() == true and every weight 1.0: same edge
/// ids and arc order, but the verifier takes its Dijkstra path.
Graph as_weighted(const Graph& g) {
  return Graph::from_edges(g.n(), g.edges(), /*weighted=*/true);
}

/// Verifies unit-weight (g, h) exhaustively and sampled at threads
/// {1, 2, 8}, each against the same run on the weighted rebuilds.  Returns
/// the exhaustive report so callers can assert what the instance exercises.
StretchReport expect_unit_path_matches_dijkstra(const Graph& g, const Graph& h,
                                                const SpannerParams& params,
                                                const std::string& name) {
  const Graph gw = as_weighted(g);
  const Graph hw = as_weighted(h);
  const std::string ctx =
      name + " n=" + std::to_string(g.n()) + " m=" + std::to_string(g.m()) +
      " |H|=" + std::to_string(h.m()) + " f=" + std::to_string(params.f) +
      " model=" + to_string(params.model);

  const StretchReport exhaustive = verify_exhaustive(g, h, params);
  expect_reports_identical(exhaustive, verify_exhaustive(gw, hw, params),
                           ctx + " exhaustive");
  for (const std::uint32_t threads : {1u, 2u, 8u}) {
    Rng rng(0x5a3d + threads);
    Rng ref_rng(0x5a3d + threads);
    expect_reports_identical(
        verify_sampled(g, h, params, 24, rng, threads),
        verify_sampled(gw, hw, params, 24, ref_rng, threads),
        ctx + " sampled threads=" + std::to_string(threads));
  }
  return exhaustive;
}

TEST(Differential, UnitVerifierMatchesDijkstraOnGreedySpanners) {
  for (std::uint64_t seed = 81; seed <= 83; ++seed) {
    Rng rng(0x0b17ULL * seed);
    const Graph g = gnp(16, 0.35, rng);
    for (const FaultModel model : {FaultModel::vertex, FaultModel::edge}) {
      const SpannerParams params{.k = 2, .f = 2, .model = model};
      const Graph h = modified_greedy_spanner(g, params).spanner;
      const auto report = expect_unit_path_matches_dijkstra(
          g, h, params, "greedy seed=" + std::to_string(seed));
      EXPECT_TRUE(report.ok) << "greedy seed=" << seed;
      EXPECT_GT(report.max_stretch, 1.0) << "greedy seed=" << seed;
    }
  }
}

TEST(Differential, UnitVerifierMatchesDijkstraOnBrokenSpanners) {
  for (std::uint64_t seed = 91; seed <= 93; ++seed) {
    Rng rng(0x0b18ULL * seed);
    const Graph g = gnp(15, 0.4, rng);
    // A BFS spanning forest, and a random half of the edges: both must fail
    // somewhere with an infinite-stretch witness.
    std::vector<EdgeId> tree;
    std::vector<EdgeId> half;
    std::vector<std::uint8_t> seen(g.n(), 0);
    for (VertexId root = 0; root < g.n(); ++root) {
      if (seen[root] != 0) continue;
      seen[root] = 1;
      std::vector<VertexId> queue{root};
      for (std::size_t head = 0; head < queue.size(); ++head)
        for (const Arc& arc : g.neighbors(queue[head]))
          if (seen[arc.to] == 0) {
            seen[arc.to] = 1;
            tree.push_back(arc.edge);
            queue.push_back(arc.to);
          }
    }
    for (EdgeId id = 0; id < g.m(); ++id)
      if (rng.next_below(2) == 0) half.push_back(id);
    for (const FaultModel model : {FaultModel::vertex, FaultModel::edge}) {
      const SpannerParams params{.k = 2, .f = 2, .model = model};
      for (const auto& [name, ids] :
           {std::pair{"tree", &tree}, std::pair{"half", &half}}) {
        const std::string ctx = std::string(name) + " seed=" +
                                std::to_string(seed);
        const auto report = expect_unit_path_matches_dijkstra(
            g, edge_subgraph(g, *ids), params, ctx);
        EXPECT_FALSE(report.ok) << ctx;
        EXPECT_TRUE(std::isinf(report.max_stretch)) << ctx;
        EXPECT_TRUE(std::isinf(report.worst.d_h)) << ctx;
      }
    }
  }
}

TEST(Differential, UnitVerifierMatchesDijkstraOnDisconnectedG) {
  // Two dense blocks and a few isolated vertices: no pair crosses a
  // component, and sources with no G-arcs open no session.  Edges are
  // stored in both orientations, so the witness must keep the stored one.
  Graph g(20);
  Rng rng(0x0b19);
  for (VertexId base : {0u, 8u})
    for (VertexId u = base; u < base + 7; ++u)
      for (VertexId v = u + 1; v < base + 7; ++v)
        if (rng.next_below(3) != 0) {
          if (rng.next_below(2) == 0)
            g.add_edge(u, v);
          else
            g.add_edge(v, u);
        }
  for (const FaultModel model : {FaultModel::vertex, FaultModel::edge}) {
    const SpannerParams params{.k = 2, .f = 2, .model = model};
    const Graph h = modified_greedy_spanner(g, params).spanner;
    EXPECT_TRUE(expect_unit_path_matches_dijkstra(g, h, params, "disconnected")
                    .ok);
  }
}

TEST(Differential, UnitVerifierMatchesDijkstraWithExtraHEdges) {
  // H holds edges G does not: they shorten H-paths (and can be the H-side
  // of a pair's two-hop detour) but are never checked as pairs themselves.
  for (std::uint64_t seed = 101; seed <= 102; ++seed) {
    Rng rng(0x0b1aULL * seed);
    const Graph g = gnp(15, 0.3, rng);
    for (const FaultModel model : {FaultModel::vertex, FaultModel::edge}) {
      const SpannerParams params{.k = 2, .f = 1, .model = model};
      Graph h = modified_greedy_spanner(g, params).spanner;
      std::size_t extra = 0;
      for (VertexId u = 0; u < g.n() && extra < 6; ++u)
        for (VertexId v = u + 2; v < g.n() && extra < 6; v += 3)
          if (!g.has_edge(u, v) && !h.has_edge(u, v)) {
            h.add_edge(u, v);
            ++extra;
          }
      ASSERT_EQ(extra, 6u);
      EXPECT_TRUE(expect_unit_path_matches_dijkstra(
                      g, h, params, "extra seed=" + std::to_string(seed))
                      .ok);
      // Thin H to every third G-edge plus the extras: violations whose
      // detours run over non-G edges must match too.
      std::vector<EdgeId> keep;
      for (EdgeId id = 0; id < h.m(); ++id)
        if (id % 3 == 0 || id + extra >= h.m()) keep.push_back(id);
      const Graph thin = edge_subgraph(h, keep);
      (void)expect_unit_path_matches_dijkstra(
          g, thin, params, "thin seed=" + std::to_string(seed));
    }
  }
}

}  // namespace
}  // namespace ftspan
