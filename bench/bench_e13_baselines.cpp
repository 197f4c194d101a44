// E13 — the algorithm-zoo shootout: every construction registered in the
// dispatch table (spanner/registry.h), measured on the same seeded workloads
// across both fault models and the full PR 8 scenario axis.
//
// The landscape (Section 1 of the paper, extended by the related work):
//   * ADD+93 greedy / Baswana-Sen: optimal/fast non-FT baselines — collapse
//     under faults,
//   * DK11: pre-[BDPW18] FT state of the art, O(f^{2-1/k} n^{1+1/k} log n),
//   * modified greedy (this paper): near-optimal O(k f^{1-1/k} n^{1+1/k})
//     in polynomial time,
//   * BDPVW (1710.03164): optimal O(f^{1-1/k} n^{1+1/k}) size via the
//     NP-hard test — run here as the LBC-prefiltered hybrid,
//   * (alpha,beta)-greedy (2603.17085): the budgeted test alpha*w + beta —
//     denser than the multiplicative greedy on weighted graphs but with a
//     per-edge additive guarantee.
// "exact" is deliberately absent: bdpvw picks the identical edge set
// (pinned by tests/zoo_test.cpp) at a fraction of the search cost.
//
// Two workloads share one geometric topology: unit weights ("geom"), where
// alpha_beta with alpha+beta = 2k-1 coincides with modified by design, and
// uniform weights in [1,4] ("geomw"), where the constructions genuinely
// part — the size-vs-stretch tradeoff the docs discuss.  Each construction
// is built per fault model it supports (registry metadata decides; skips
// are logged) and verified by verify_fault_sets over a seeded storm per
// scenario: uniform + srlg/ball/adaptive/cascade (fault/scenario.h).
//
// Writes BENCH_e13_shootout.json (one row per algorithm x model x scenario
// x workload); tools/check_perf_floor.py --e13 gates the CI perf lane by
// pinning max_stretch / disconnected_trials / spanner_m per seeded config
// (bench/ci_perf_floor.json, "e13" entries).  Wall-clock columns are
// informational only — the gate pins results.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fault/attack.h"
#include "fault/scenario.h"
#include "fault/verifier.h"
#include "spanner/registry.h"

namespace {

using namespace ftspan;

struct CellResult {
  std::string algo;
  std::string model;
  std::string scenario;
  std::string graph;  // workload name: geom | geomw
  bool weighted = false;
  bool has_ab = false;  // alpha/beta apply (alpha_beta rows only)
  double alpha = 0.0;
  double beta = 0.0;
  std::size_t n = 0;
  std::size_t m = 0;
  std::uint32_t f = 0;
  std::uint32_t k = 0;
  std::uint32_t trials = 0;
  std::size_t spanner_m = 0;
  double build_seconds = 0.0;
  std::uint64_t arcs_traversed = 0;
  std::uint64_t exact_searches = 0;
  double p50_stretch = 0.0;  // inf -> null in JSON
  double max_stretch = 0.0;  // inf -> null in JSON
  std::uint64_t disconnected_trials = 0;
  bool ok = false;
  double seconds = 0.0;  // verification time
};

/// Draws the storm for one cell ("uniform" = the attack.h baseline mix;
/// otherwise a FaultScenario stream) and verifies it, keeping per-trial
/// reports for the percentile columns.  Same protocol as E17.
CellResult run_cell(const Graph& g, const Graph& h, const SpannerParams& params,
                    const std::string& scenario, const ScenarioSpec& spec,
                    std::uint32_t trials, std::uint64_t seed) {
  CellResult out;
  out.scenario = scenario;
  out.model = to_string(params.model);
  out.n = g.n();
  out.m = g.m();
  out.f = params.f;
  out.k = params.k;
  out.trials = trials;
  out.spanner_m = h.m();

  Rng rng(seed);
  std::vector<FaultSet> sets;
  sets.reserve(std::size_t{trials} + 1);
  sets.push_back(FaultSet{params.model, {}});
  const Timer timer;
  if (scenario == "uniform") {
    for (std::uint32_t trial = 0; trial < trials; ++trial)
      sets.push_back(generate_attack(g, h, params.model, params.f,
                                     AttackStrategy::uniform, rng));
  } else {
    FaultScenario stream(g, h, params, spec);
    for (std::uint32_t trial = 0; trial < trials; ++trial)
      sets.push_back(stream.draw(trial, rng));
  }
  std::vector<StretchReport> per_set;
  const StretchReport report =
      verify_fault_sets(g, h, params, sets, /*threads=*/1, &per_set);
  out.seconds = timer.seconds();
  out.ok = report.ok;
  out.max_stretch = report.max_stretch;

  // Percentile over the storm trials (index 0 is the empty set).
  std::vector<double> stretches;
  stretches.reserve(trials);
  for (std::size_t i = 1; i < per_set.size(); ++i) {
    stretches.push_back(per_set[i].max_stretch);
    if (std::isinf(per_set[i].max_stretch)) ++out.disconnected_trials;
  }
  if (!stretches.empty()) {
    std::sort(stretches.begin(), stretches.end());
    out.p50_stretch = stretches[stretches.size() / 2];
  }
  return out;
}

/// inf has no JSON literal: emit null and let disconnected_trials carry the
/// signal (the gate pins both).
std::string json_number(double value) {
  if (std::isinf(value) || std::isnan(value)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << value;
  return os.str();
}

bool write_json(const std::string& path, const std::vector<CellResult>& cells) {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    out << "  {\"algo\": \"" << c.algo << "\", \"model\": \"" << c.model
        << "\", \"scenario\": \"" << c.scenario << "\", \"graph\": \""
        << c.graph << "\", \"weighted\": " << (c.weighted ? "true" : "false")
        << ", \"alpha\": " << (c.has_ab ? json_number(c.alpha) : "null")
        << ", \"beta\": " << (c.has_ab ? json_number(c.beta) : "null")
        << ", \"n\": " << c.n << ", \"m\": " << c.m << ", \"f\": " << c.f
        << ", \"k\": " << c.k << ", \"trials\": " << c.trials
        << ", \"spanner_m\": " << c.spanner_m
        << ", \"build_seconds\": " << c.build_seconds
        << ", \"arcs_traversed\": " << c.arcs_traversed
        << ", \"exact_searches\": " << c.exact_searches
        << ", \"p50_stretch\": " << json_number(c.p50_stretch)
        << ", \"max_stretch\": " << json_number(c.max_stretch)
        << ", \"disconnected_trials\": " << c.disconnected_trials
        << ", \"ok\": " << (c.ok ? "true" : "false")
        << ", \"seconds\": " << c.seconds << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "]\n";
  return out.flush().good();
}

std::string stretch_cell(double value) {
  return std::isinf(value) ? "disc" : Table::num(value, 2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ftspan;
  const Cli cli(argc, argv);
  const auto seed = static_cast<std::uint64_t>(cli.get_uint("seed", 13));
  const auto n = static_cast<std::size_t>(cli.get_uint("n", 120));
  const auto trials = static_cast<std::uint32_t>(cli.get_uint("trials", 12));
  const auto k = static_cast<std::uint32_t>(cli.get_uint("k", 2));
  const auto f = static_cast<std::uint32_t>(cli.get_uint("f", 2));
  const double alpha = cli.get_double("alpha", 2.0);
  const double beta = cli.get_double("beta", 1.0);
  const double radius = cli.get_double("radius", 0.25);
  const std::string json_path = cli.get("out", "BENCH_e13_shootout.json");
  const bench::ObsFlags obs = bench::obs_flags(cli);

  bench::banner("E13 shootout",
                "the full algorithm zoo (spanner/registry.h) x fault models "
                "x structured scenarios: FT size/stretch tradeoffs on one "
                "seeded workload pair",
                seed);
  obs.start();

  // One geometric topology; the coordinates make the geographic scenarios
  // meaningful and are shared by both workloads and every construction.
  Rng gen_rng(seed);
  std::vector<Point> coords;
  const Graph geom = random_geometric(n, 0.18, gen_rng, &coords);
  const Graph geomw = with_uniform_weights(geom, 1.0, 4.0, gen_rng);

  struct Workload {
    std::string name;
    const Graph* g;
  };
  const Workload workloads[] = {{"geom", &geom}, {"geomw", &geomw}};
  const std::string scenario_names[] = {"uniform", "srlg", "ball", "adaptive",
                                        "cascade"};

  std::vector<CellResult> cells;
  for (const auto& workload : workloads) {
    const Graph& g = *workload.g;
    std::cout << "workload " << workload.name << ": " << g.summary()
              << (g.weighted() ? " (uniform weights in [1,4])"
                               : " (unit weights)")
              << "\n";
    for (const auto model : {FaultModel::vertex, FaultModel::edge}) {
      const SpannerParams params{.k = k, .f = f, .model = model};
      Table table({"construction", "m(H)", "build s", "searches", "scenario",
                   "p50 stretch", "max stretch", "disc", "ok"});
      for (const auto& info : spanner_algos()) {
        if (info.name == "exact") continue;  // == bdpvw picks, slower
        const bool supported = model == FaultModel::vertex ? info.vertex_model
                                                           : info.edge_model;
        if (!supported) {
          std::cout << "  (skipping " << info.name << " under the "
                    << to_string(model) << " model — unsupported)\n";
          continue;
        }
        SpannerAlgoOptions options;
        options.seed = seed + 2;  // randomized algos draw their own Rng
        options.alpha = alpha;
        options.beta = beta;
        const SpannerBuild build = build_spanner(info.name, g, params, options);
        for (const auto& name : scenario_names) {
          ScenarioSpec spec;
          if (const auto kind = parse_scenario_kind(name)) spec.kind = *kind;
          spec.ball_radius = radius;
          spec.coords = coords;
          CellResult cell =
              run_cell(g, build.spanner, params, name, spec, trials,
                       seed + 100 * (model == FaultModel::edge) +
                           1000 * (workload.name == "geomw"));
          cell.algo = info.name;
          cell.graph = workload.name;
          cell.weighted = g.weighted();
          if (info.name == "alpha_beta") {
            cell.has_ab = true;
            cell.alpha = alpha;
            cell.beta = beta;
          }
          cell.build_seconds = build.stats.seconds;
          cell.arcs_traversed = build.stats.arcs_traversed;
          cell.exact_searches = build.stats.exact_searches;
          table.add_row(
              {cell.algo, Table::num(cell.spanner_m),
               Table::num(cell.build_seconds, 3),
               Table::num(static_cast<long long>(cell.exact_searches)),
               cell.scenario, stretch_cell(cell.p50_stretch),
               stretch_cell(cell.max_stretch),
               Table::num(static_cast<long long>(cell.disconnected_trials)),
               cell.ok ? "yes" : "no"});
          cells.push_back(std::move(cell));
        }
      }
      std::cout << "graph=" << workload.name << " model=" << to_string(model)
                << " k=" << k << " f=" << f << " alpha=" << alpha
                << " beta=" << beta << " trials=" << trials << "\n";
      table.print(std::cout);
      std::cout << '\n';
    }
  }

  std::cout
      << "expected shape: FT constructions stay within their bound on every "
         "scenario (alpha_beta within alpha+beta given weights >= 1); "
         "non-FT baselines disconnect; bdpvw is the smallest FT spanner "
         "(optimal size, few exact searches thanks to the LBC prefilter); "
         "on the unit-weight workload alpha_beta coincides with modified by "
         "design (alpha+beta = 2k-1).\n";

  if (!write_json(json_path, cells)) {
    std::cerr << "error: cannot write " << json_path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << json_path << "\n";
  return obs.finish() ? 0 : 1;
}
