// Cross-variant differential fuzz harness: every variant of the modified
// greedy — terminal-batched on/off, masked-tree repair on/off — must produce
// bit-identical picks, certificates, oracle-call and sweep counts on seeded
// random inputs across both fault models.  A second tier pins the
// masked-tree LBC oracle itself (decide_batched with repair) against the
// dedicated per-pair oracle down to cuts and sweep counts, and a third pins
// the verifier's reports across thread counts.  Every assertion names the
// failing seed so a red run is reproducible from the log alone.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/lbc.h"
#include "core/modified_greedy.h"
#include "fault/scenario.h"
#include "fault/verifier.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "obs/obs.h"
#include "spanner/baswana_sen.h"
#include "util/rng.h"

namespace ftspan {
namespace {

// ----------------------------------------------------- engine-level harness

struct EngineVariant {
  const char* name;
  bool batch;
  bool masked;
};

constexpr EngineVariant kVariants[] = {
    {"batched", true, false},
    {"masked-tree", true, true},
    {"masked-no-batch", false, true},  // masked repair is inert alone
};

/// Runs every variant against the unbatched-unmasked reference and asserts
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
  ref_config.masked_tree = false;
  const auto ref = modified_greedy_spanner(g, params, ref_config);

  for (const auto& variant : kVariants) {
    ModifiedGreedyConfig config;
    config.order = order;
    config.record_certificates = true;
    config.batch_terminals = variant.batch;
    config.masked_tree = variant.masked;
    const auto build = modified_greedy_spanner(g, params, config);

    ASSERT_EQ(build.picked, ref.picked) << ctx << " variant=" << variant.name;
    EXPECT_EQ(build.stats.oracle_calls, ref.stats.oracle_calls)
        << ctx << " variant=" << variant.name;
    EXPECT_EQ(build.stats.search_sweeps, ref.stats.search_sweeps)
        << ctx << " variant=" << variant.name;
    ASSERT_EQ(build.certificates.size(), ref.certificates.size())
        << ctx << " variant=" << variant.name;
    for (std::size_t i = 0; i < ref.certificates.size(); ++i)
      ASSERT_EQ(build.certificates[i].ids, ref.certificates[i].ids)
          << ctx << " variant=" << variant.name << " certificate=" << i;
    if (!variant.batch) {
      EXPECT_EQ(build.stats.masked_reuse_hits, 0u)
          << ctx << " variant=" << variant.name;
    }
  }
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

/// Pins masked-tree decide_batched against the dedicated per-pair oracle:
/// decisions, certificates, and sweep counts must be bit-identical.
void expect_masked_oracle_matches(const Graph& g, FaultModel model,
                                  std::uint32_t t, std::uint32_t alpha,
                                  VertexId u,
                                  const std::vector<VertexId>& targets,
                                  std::uint64_t seed,
                                  bool expect_masked_hits = false) {
  const std::string ctx = "seed=" + std::to_string(seed) + " u=" +
                          std::to_string(u) + " t=" + std::to_string(t) +
                          " alpha=" + std::to_string(alpha) + " model=" +
                          to_string(model);

  LbcSolver masked(model);
  masked.set_masked_tree(true);
  LbcSolver reference(model);
  std::vector<LbcResult> results(targets.size());
  masked.decide_batch(g, u, targets, t, alpha, results);

  for (std::size_t j = 0; j < targets.size(); ++j) {
    const LbcResult ref = reference.decide(g, u, targets[j], t, alpha);
    ASSERT_EQ(results[j].yes, ref.yes) << ctx << " target=" << targets[j];
    ASSERT_EQ(results[j].sweeps, ref.sweeps) << ctx << " target=" << targets[j];
    ASSERT_EQ(results[j].cut.ids, ref.cut.ids) << ctx << " target=" << targets[j];
  }
  EXPECT_EQ(masked.total_sweeps(), reference.total_sweeps()) << ctx;
  // Every sweep past the first of a multi-sweep decision was served from
  // the repaired tree, never a dedicated masked BFS.
  EXPECT_EQ(masked.masked_reuse_hits(),
            masked.total_sweeps() - masked.batched_sweeps())
      << ctx;
  if (expect_masked_hits) {  // guard against the harness passing vacuously
    EXPECT_GT(masked.masked_reuse_hits(), 0u) << ctx;
  }
}

TEST(Differential, MaskedTreeOracleMatchesDedicatedBfs) {
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
      expect_masked_oracle_matches(g, model, t, alpha, u, targets, seed);
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
          const StretchReport report =
              verify_scenario(g, h, params, spec, trials, rng, threads);
          ASSERT_EQ(report.ok, ref.ok) << ctx;
          ASSERT_EQ(report.max_stretch, ref.max_stretch) << ctx;
          ASSERT_EQ(report.fault_sets_checked, ref.fault_sets_checked) << ctx;
          ASSERT_EQ(report.pairs_checked, ref.pairs_checked) << ctx;
          ASSERT_EQ(report.trials_skipped, ref.trials_skipped) << ctx;
          ASSERT_EQ(report.worst.faults.ids, ref.worst.faults.ids) << ctx;
          ASSERT_EQ(report.worst.u, ref.worst.u) << ctx;
          ASSERT_EQ(report.worst.v, ref.worst.v) << ctx;
          ASSERT_EQ(report.worst.d_g, ref.worst.d_g) << ctx;
          ASSERT_EQ(report.worst.d_h, ref.worst.d_h) << ctx;
        }
      }
    }
  }
}

TEST(Differential, MaskedTreeOracleMatchesOnDenseGraphs) {
  // Dense rows mean deep subtrees hang off few root children, so one cut
  // vertex orphans a large region — the stress case for re-attachment.
  for (std::uint64_t seed = 61; seed <= 64; ++seed) {
    Rng rng(0xd05eULL * seed + 3);
    const Graph g = gnp(28, 0.45, rng);
    const auto u = static_cast<VertexId>(rng.next_below(g.n()));
    std::vector<VertexId> targets;
    for (VertexId v = 0; v < g.n(); ++v)
      if (v != u) targets.push_back(v);
    for (const FaultModel model : {FaultModel::vertex, FaultModel::edge})
      expect_masked_oracle_matches(g, model, 3, 4, u, targets, seed,
                                   /*expect_masked_hits=*/true);
  }
}

}  // namespace
}  // namespace ftspan
