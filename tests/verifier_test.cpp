// Tests for fault/verifier.h and fault/attack.h.

#include <gtest/gtest.h>

#include <cmath>

#include "fault/attack.h"
#include "fault/verifier.h"
#include "graph/generators.h"
#include "test_util.h"
#include "util/rng.h"

namespace ftspan {
namespace {

TEST(Verifier, GraphIsAlwaysItsOwnSpanner) {
  const Graph g = petersen_graph();
  const SpannerParams params{.k = 2, .f = 2};
  const auto report = verify_exhaustive(g, g, params);
  EXPECT_TRUE(report.ok);
  EXPECT_LE(report.max_stretch, 1.0 + 1e-9);
}

TEST(Verifier, SpanningTreeOfCycleFailsUnderOneFault) {
  const Graph g = cycle_graph(6);
  Graph h(6);  // the path 0-1-2-3-4-5: drop edge {5,0}
  for (VertexId v = 0; v + 1 < 6; ++v) h.add_edge(v, v + 1);
  const SpannerParams params{.k = 2, .f = 1};
  // Without faults the stretch for edge {5,0} is 5 > 3 already.
  const auto report = verify_exhaustive(g, h, params);
  EXPECT_FALSE(report.ok);
  EXPECT_GE(report.max_stretch, 5.0);
}

TEST(Verifier, DetectsFaultOnlyViolations) {
  // K4 minus nothing vs spanner = triangle fan: g = K4, h = star at 0.
  const Graph g = complete_graph(4);
  const Graph h = star_graph(4);
  const SpannerParams params{.k = 2, .f = 1};
  // With F = {} the star has stretch 2 <= 3: fine.  With F = {0} the
  // remaining vertices are isolated in H but adjacent in G: violation.
  const auto empty_report =
      check_fault_set(g, h, params, FaultSet{FaultModel::vertex, {}});
  EXPECT_TRUE(empty_report.ok);
  const auto report = verify_exhaustive(g, h, params);
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.worst.faults.ids.size(), 1u);
  EXPECT_EQ(report.worst.faults.ids[0], 0u);
  EXPECT_TRUE(std::isinf(report.max_stretch));
}

TEST(Verifier, EdgeFaultModel) {
  const Graph g = cycle_graph(4);
  Graph h(4);
  h.add_edge(0, 1);
  h.add_edge(1, 2);
  h.add_edge(2, 3);  // h = path, missing {3,0}
  const SpannerParams params{.k = 2, .f = 1, .model = FaultModel::edge};
  const auto report = verify_exhaustive(g, h, params);
  EXPECT_FALSE(report.ok);  // already the empty set: d_h(3,0)=3 <= 3 ok...
  // precisely: F={} gives stretch 3 (ok); F={edge(0,1)} kills H's detour.
}

TEST(Verifier, ExhaustiveCountsAreRight) {
  const Graph g = complete_graph(5);
  const SpannerParams params{.k = 2, .f = 2};
  const auto report = verify_exhaustive(g, g, params);
  // C(5,0)+C(5,1)+C(5,2) = 1+5+10 = 16 fault sets.
  EXPECT_EQ(report.fault_sets_checked, 16u);
  EXPECT_GT(report.pairs_checked, 0u);
}

TEST(Verifier, SampledAgreesWithExhaustiveOnBadSpanner) {
  const Graph g = complete_graph(6);
  const Graph h = star_graph(6);
  const SpannerParams params{.k = 2, .f = 1};
  Rng rng(90);
  const auto report = verify_sampled(g, h, params, 100, rng);
  EXPECT_FALSE(report.ok);  // the attack mix must find the hub failure
}

TEST(Verifier, SampledFindsWitnessesSmallerThanF) {
  // Non-monotonicity gadget: G = K3, H = the path 0-1-2, k=2 (t=3), f=2,
  // vertex faults.  The only violation is F={1} (|F| = 1 < f): it leaves the
  // surviving G-edge {0,2} with d_H = infinity.  Every |F| = 2 set faults an
  // endpoint of every edge, so a sampler that only draws exact-size-f sets
  // can never see the violation and wrongly passes this spanner.  The size
  // mix (trial i requests f - (i mod (f+1))) must find it.
  const Graph g = complete_graph(3);
  Graph h(3);
  h.add_edge(0, 1);
  h.add_edge(1, 2);
  const SpannerParams params{.k = 2, .f = 2};

  const auto oracle = verify_exhaustive(g, h, params);
  ASSERT_FALSE(oracle.ok);
  ASSERT_EQ(oracle.worst.faults.ids.size(), 1u);  // the gadget's point

  Rng rng(7);
  const auto report = verify_sampled(g, h, params, 12, rng);
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(std::isinf(report.max_stretch));
  EXPECT_EQ(report.worst.faults.ids, std::vector<std::uint32_t>{1u});
  // Size-0 requests (every trial with i mod 3 == 2) are skipped, not
  // counted: the empty set is checked exactly once, up front.
  EXPECT_GT(report.trials_skipped, 0u);
  EXPECT_EQ(report.fault_sets_checked,
            1u + 12u - report.trials_skipped);
}

TEST(Verifier, CheckFaultSetRejectsModelMismatch) {
  const Graph g = cycle_graph(4);
  const SpannerParams params{.k = 2, .f = 1, .model = FaultModel::vertex};
  EXPECT_THROW(
      (void)check_fault_set(g, g, params, FaultSet{FaultModel::edge, {0}}),
      std::invalid_argument);
}

TEST(Verifier, WeightedStretchIsMeasured) {
  Graph g(3, true);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 2, 2.0);
  Graph h(3, true);
  h.add_edge(0, 1, 1.0);
  h.add_edge(1, 2, 1.0);
  const SpannerParams params{.k = 1, .f = 0};
  // d_h(0,2) = 2 = d_g(0,2): stretch 1 (the edge {0,2} has weight 2 but the
  // shortest path in G is also 2, so t=1 still holds).
  const auto report = verify_exhaustive(g, h, params);
  EXPECT_TRUE(report.ok);
}

TEST(Verifier, ThreadedSampledVerificationIsBitIdentical) {
  // verify_sampled fans trials over the shared pool; the report — counts,
  // max stretch, and the worst witness — must match the sequential run
  // exactly at any thread count.
  Rng graph_rng(92);
  const Graph g = gnp(40, 0.25, graph_rng);
  Graph h(g.n());  // a deliberately bad "spanner": star on vertex 0's edges
  for (EdgeId id = 0; id < g.m(); ++id) {
    const auto& e = g.edge(id);
    if (e.u == 0 || e.v == 0) h.add_edge(e.u, e.v, e.w);
  }
  const SpannerParams params{.k = 2, .f = 2};

  Rng seq_rng(93);
  const auto sequential = verify_sampled(g, h, params, 60, seq_rng);
  for (const std::uint32_t threads : {2u, 4u, 8u}) {
    Rng par_rng(93);
    const auto parallel = verify_sampled(g, h, params, 60, par_rng, threads);
    EXPECT_EQ(parallel.ok, sequential.ok) << "threads=" << threads;
    EXPECT_EQ(parallel.fault_sets_checked, sequential.fault_sets_checked);
    EXPECT_EQ(parallel.pairs_checked, sequential.pairs_checked);
    EXPECT_DOUBLE_EQ(parallel.max_stretch, sequential.max_stretch);
    EXPECT_EQ(parallel.worst.u, sequential.worst.u);
    EXPECT_EQ(parallel.worst.v, sequential.worst.v);
    EXPECT_DOUBLE_EQ(parallel.worst.d_g, sequential.worst.d_g);
    EXPECT_DOUBLE_EQ(parallel.worst.d_h, sequential.worst.d_h);
    EXPECT_EQ(parallel.worst.faults.ids, sequential.worst.faults.ids);
  }
}

TEST(Verifier, StretchWitnessIsReproducible) {
  const Graph g = cycle_graph(8);
  Graph h(8);
  for (VertexId v = 0; v + 1 < 8; ++v) h.add_edge(v, v + 1);
  const SpannerParams params{.k = 2, .f = 0};
  const auto report = verify_exhaustive(g, h, params);
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.worst.u, 7u);
  EXPECT_EQ(report.worst.v, 0u);
  EXPECT_DOUBLE_EQ(report.worst.d_g, 1.0);
}

// ----------------------------------------------------------------- attack

TEST(Attack, GeneratesRequestedSize) {
  const Graph g = complete_graph(10);
  Rng rng(91);
  for (const auto strategy :
       {AttackStrategy::uniform, AttackStrategy::high_degree,
        AttackStrategy::neighborhood, AttackStrategy::detour_hitting}) {
    const auto faults =
        generate_attack(g, g, FaultModel::vertex, 3, strategy, rng);
    EXPECT_EQ(faults.ids.size(), 3u);
    EXPECT_EQ(faults.model, FaultModel::vertex);
    // Distinctness.
    auto sorted = faults.ids;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
    for (const auto id : faults.ids) EXPECT_LT(id, g.n());
  }
}

TEST(Attack, EdgeModelIdsAreInRange) {
  const Graph g = complete_graph(8);
  Rng rng(92);
  for (std::uint32_t trial = 0; trial < 12; ++trial) {
    const auto faults =
        generate_mixed_attack(g, g, FaultModel::edge, 4, trial, rng);
    EXPECT_LE(faults.ids.size(), 4u);
    for (const auto id : faults.ids) EXPECT_LT(id, g.m());
  }
}

TEST(Attack, HighDegreeTargetsHubs) {
  const Graph h = star_graph(12);
  Rng rng(93);
  const auto faults =
      generate_attack(h, h, FaultModel::vertex, 1, AttackStrategy::high_degree,
                      rng);
  ASSERT_EQ(faults.ids.size(), 1u);
  EXPECT_EQ(faults.ids[0], 0u);  // the center has degree 11
}

TEST(Attack, UniverseSmallerThanCountIsHandled) {
  const Graph g = path_graph(3);
  Rng rng(94);
  const auto faults =
      generate_attack(g, g, FaultModel::vertex, 10, AttackStrategy::uniform, rng);
  EXPECT_LE(faults.ids.size(), 3u);
}

}  // namespace
}  // namespace ftspan
