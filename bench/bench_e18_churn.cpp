// E18 — spanner maintenance under edge churn: the ftspand service engine
// (src/service/churn_spanner.h) against a mixed read/write workload.
//
// One updater thread streams random edge inserts/removals through a
// ChurnSpanner in pure incremental mode (rebuild_budget = 0) while reader
// threads answer spanner distance queries off the published epoch
// snapshots, wait-free.  The bench reports:
//   * sustained update throughput (updates/s over the apply time alone),
//   * query latency p50/p99 in microseconds, measured per query on the
//     reader threads while the updater runs,
//   * speedup_vs_rebuild: how many times cheaper an incremental update is
//     than the from-scratch greedy rebuild it replaces (rebuild_seconds *
//     updates / update_seconds) — the number that justifies the service
//     existing at all, gated >= 10x in CI,
//   * checkpoints_ok: at every staleness checkpoint the maintained spanner
//     must pass verify_sampled against the live mesh — a throughput row
//     from a spanner that stopped being one is worthless.
//
// Wall-clock floors are deliberately absent: the CI gate
// (tools/check_perf_floor.py --e18) checks the machine-independent
// invariants (checkpoints_ok, speedup ratio, workload minimums) only.
//
// Writes BENCH_e18_churn.json (schema in bench/README.md).
//
//   ./bench_e18_churn [--n 16384] [--degree 8] [--f 1] [--k 2]
//                     [--model vertex|edge] [--updates 10000]
//                     [--queries 100000] [--readers 4] [--checkpoints 4]
//                     [--seed 42] [--out BENCH_e18_churn.json]

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/modified_greedy.h"
#include "fault/verifier.h"
#include "graph/search.h"
#include "service/churn_spanner.h"
#include "util/timer.h"

namespace {

using namespace ftspan;
using service::ChurnConfig;
using service::ChurnSpanner;

struct Update {
  bool insert = false;
  VertexId u = 0;
  VertexId v = 0;
};

std::uint64_t pair_key(VertexId u, VertexId v) {
  const auto a = std::min(u, v), b = std::max(u, v);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

/// Pre-generates the whole update stream against a mirror of the live edge
/// set, so the measured loop is the engine alone.  ~55% inserts keeps the
/// mesh near its starting density for the entire run.
std::vector<Update> make_stream(const Graph& g, std::size_t updates,
                                Rng& rng) {
  std::unordered_set<std::uint64_t> live;
  std::vector<std::pair<VertexId, VertexId>> live_vec;
  live.reserve(g.m() * 2);
  live_vec.reserve(g.m() + updates);
  for (const auto& e : g.edges()) {
    live.insert(pair_key(e.u, e.v));
    live_vec.push_back({e.u, e.v});
  }
  const auto n = static_cast<VertexId>(g.n());
  std::vector<Update> stream;
  stream.reserve(updates);
  while (stream.size() < updates) {
    if (live_vec.empty() || rng.next_bool(0.55)) {
      // Sparse mesh: a uniform pair is almost always absent.
      VertexId u = 0, v = 0;
      do {
        u = static_cast<VertexId>(rng.next_below(n));
        v = static_cast<VertexId>(rng.next_below(n));
      } while (u == v || live.count(pair_key(u, v)) != 0);
      live.insert(pair_key(u, v));
      live_vec.push_back({u, v});
      stream.push_back({true, u, v});
    } else {
      const auto idx = rng.next_below(live_vec.size());
      const auto [u, v] = live_vec[idx];
      live_vec[idx] = live_vec.back();
      live_vec.pop_back();
      live.erase(pair_key(u, v));
      stream.push_back({false, u, v});
    }
  }
  return stream;
}

FaultModel parse_model(const std::string& name) {
  if (name == "vertex") return FaultModel::vertex;
  if (name == "edge") return FaultModel::edge;
  throw std::invalid_argument("--model must be vertex or edge");
}

double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1));
  std::nth_element(values.begin(), values.begin() + static_cast<long>(idx),
                   values.end());
  return values[idx];
}

struct RunResult {
  std::string family = "gnp";
  std::size_t n = 0, m0 = 0;
  std::uint32_t f = 0, k = 0;
  std::string model;
  std::size_t updates = 0, inserts = 0, removals = 0;
  std::size_t queries = 0;
  std::uint32_t readers = 0, checkpoints = 0;
  bool checkpoints_ok = false;
  std::uint32_t publish_every = 0;
  double p50_query_us = 0.0, p99_query_us = 0.0;
  double update_seconds = 0.0, updates_per_s = 0.0;
  double reader_seconds = 0.0, queries_per_s = 0.0;
  double build_seconds = 0.0, rebuild_seconds = 0.0;
  double speedup_vs_rebuild = 0.0;
  std::size_t spanner_m_final = 0, live_m_final = 0;
  std::uint64_t epochs = 0, repair_decisions = 0, repair_promotions = 0;
  double peak_rss_mb = 0.0;
};

bool write_json(const std::string& path, const RunResult& r) {
  std::ofstream out(path);
  out << "[\n  {\"family\": \"" << r.family << "\", \"n\": " << r.n
      << ", \"m0\": " << r.m0 << ", \"f\": " << r.f << ", \"k\": " << r.k
      << ", \"model\": \"" << r.model << "\", \"updates\": " << r.updates
      << ", \"inserts\": " << r.inserts << ", \"removals\": " << r.removals
      << ", \"queries\": " << r.queries << ", \"readers\": " << r.readers
      << ", \"checkpoints\": " << r.checkpoints
      << ", \"checkpoints_ok\": " << (r.checkpoints_ok ? "true" : "false")
      << ", \"publish_every\": " << r.publish_every
      << ", \"p50_query_us\": " << r.p50_query_us
      << ", \"p99_query_us\": " << r.p99_query_us
      << ", \"update_seconds\": " << r.update_seconds
      << ", \"updates_per_s\": " << r.updates_per_s
      << ", \"reader_seconds\": " << r.reader_seconds
      << ", \"queries_per_s\": " << r.queries_per_s
      << ", \"build_seconds\": " << r.build_seconds
      << ", \"rebuild_seconds\": " << r.rebuild_seconds
      << ", \"speedup_vs_rebuild\": " << r.speedup_vs_rebuild
      << ", \"spanner_m_final\": " << r.spanner_m_final
      << ", \"live_m_final\": " << r.live_m_final
      << ", \"epochs\": " << r.epochs
      << ", \"repair_decisions\": " << r.repair_decisions
      << ", \"repair_promotions\": " << r.repair_promotions
      << ", \"peak_rss_mb\": " << r.peak_rss_mb << "}\n]\n";
  return out.flush().good();
}

int bench_main(int argc, char** argv) {
  const Cli cli(argc, argv);
  cli.require_known({"n", "degree", "f", "k", "model", "updates", "queries",
                     "readers", "checkpoints", "seed", "out", "trace",
                     "trace-ring", "metrics"});
  const auto n = static_cast<std::size_t>(cli.get_uint("n", 16384));
  const double degree = cli.get_double("degree", 8.0);
  const auto f = static_cast<std::uint32_t>(cli.get_uint("f", 1));
  const auto k = static_cast<std::uint32_t>(cli.get_uint("k", 2));
  const FaultModel model = parse_model(cli.get("model", "vertex"));
  const auto updates = static_cast<std::size_t>(cli.get_uint("updates", 10000));
  const auto queries = static_cast<std::size_t>(
      cli.get_uint("queries", 100000));
  const auto readers = static_cast<std::uint32_t>(cli.get_uint("readers", 4));
  const auto checkpoints =
      static_cast<std::uint32_t>(cli.get_uint("checkpoints", 4));
  const auto seed = static_cast<std::uint64_t>(cli.get_uint("seed", 42));
  const auto json_path = cli.get("out", "BENCH_e18_churn.json");
  const bench::ObsFlags obs = bench::obs_flags(cli);
  if (readers == 0 || readers > 4096)
    throw std::invalid_argument("--readers must be in [1, 4096]");
  if (checkpoints == 0)
    throw std::invalid_argument("--checkpoints must be >= 1");

  bench::banner("E18 churn",
                "incremental maintenance keeps the f-FT spanner valid under "
                "edge churn at a per-update cost orders of magnitude below a "
                "from-scratch rebuild, with wait-free snapshot reads",
                seed);
  obs.start();

  RunResult r;
  r.n = n;
  r.f = f;
  r.k = k;
  r.model = model == FaultModel::vertex ? "vertex" : "edge";
  r.updates = updates;
  r.queries = queries;
  r.readers = readers;
  r.checkpoints = checkpoints;

  Rng rng(seed);
  Graph mesh = bench::gnp_with_degree(n, degree, rng);
  r.m0 = mesh.m();
  const auto stream = make_stream(mesh, updates, rng);
  for (const auto& u : stream) (u.insert ? r.inserts : r.removals) += 1;
  std::cout << "mesh: " << mesh.summary() << ", stream: " << r.inserts
            << " inserts + " << r.removals << " removals\n";

  ChurnConfig config;
  config.params = SpannerParams{.k = k, .f = f, .model = model};
  config.rebuild_budget = 0;  // pure incremental: this is the thing measured
  r.publish_every = config.publish_every;
  const Timer build_timer;
  ChurnSpanner engine(std::move(mesh), config);
  r.build_seconds = build_timer.seconds();
  std::cout << "initial spanner: " << engine.spanner_m() << " / "
            << engine.live_m() << " edges in " << r.build_seconds << "s\n";

  // Readers: wait-free snapshot distance queries on the maintained spanner
  // (hop BFS — the mesh is unweighted), each timed individually.
  std::atomic<std::size_t> quota{queries};
  std::vector<std::vector<double>> latencies(readers);
  std::vector<std::thread> pool;
  const Timer reader_timer;
  for (std::uint32_t t = 0; t < readers; ++t) {
    pool.emplace_back([&, t] {
      Rng qrng(seed + 1000 + t);
      BfsRunner bfs(n);
      std::vector<PathStep> path;
      auto& lat = latencies[t];
      lat.reserve(queries / readers + 64);
      while (true) {
        const auto prev = quota.fetch_sub(1, std::memory_order_relaxed);
        if (prev == 0 || prev > queries) break;  // wrapped past zero
        const auto u = static_cast<VertexId>(qrng.next_below(n));
        auto v = static_cast<VertexId>(qrng.next_below(n));
        if (v == u) v = (v + 1) % static_cast<VertexId>(n);
        const Timer q;
        const auto snap = engine.snapshot();
        (void)bfs.shortest_path_arcs(snap->graph, u, v, path,
                                     snap->spanner_view(),
                                     kUnreachableHops);
        lat.push_back(q.seconds() * 1e6);
      }
    });
  }

  // Updater: apply the stream in `checkpoints` segments; verification
  // between segments is excluded from the measured apply time.
  r.checkpoints_ok = true;
  double apply_seconds = 0.0;
  const std::size_t per_segment = (updates + checkpoints - 1) / checkpoints;
  std::size_t applied = 0;
  for (std::uint32_t cp = 0; cp < checkpoints; ++cp) {
    const std::size_t end = std::min(updates, applied + per_segment);
    const Timer seg;
    for (; applied < end; ++applied) {
      const auto& u = stream[applied];
      if (u.insert) {
        engine.insert(u.u, u.v);
      } else {
        engine.remove(u.u, u.v);
      }
    }
    apply_seconds += seg.seconds();
    engine.flush();
    Rng verify_rng(seed + 500 + cp);
    const auto report = verify_sampled(engine.live_graph(),
                                       engine.spanner_graph(), config.params,
                                       32, verify_rng);
    if (!report.ok) {
      r.checkpoints_ok = false;
      std::cerr << "VIOLATION: checkpoint " << cp << " after " << applied
                << " updates: stretch " << report.max_stretch << " > "
                << config.params.stretch() << "\n";
    }
    std::cout << "checkpoint " << cp + 1 << "/" << checkpoints << ": "
              << applied << " updates, spanner " << engine.spanner_m()
              << " edges, verify " << (report.ok ? "ok" : "FAILED") << "\n";
  }
  r.update_seconds = apply_seconds;
  r.updates_per_s =
      apply_seconds > 0 ? static_cast<double>(updates) / apply_seconds : 0.0;

  for (auto& t : pool) t.join();
  r.reader_seconds = reader_timer.seconds();

  std::vector<double> all;
  std::size_t measured = 0;
  for (const auto& lat : latencies) measured += lat.size();
  all.reserve(measured);
  for (const auto& lat : latencies) all.insert(all.end(), lat.begin(), lat.end());
  r.queries = all.size();
  r.p50_query_us = percentile(all, 0.50);
  r.p99_query_us = percentile(all, 0.99);
  r.queries_per_s = r.reader_seconds > 0
                        ? static_cast<double>(r.queries) / r.reader_seconds
                        : 0.0;

  // The alternative this engine replaces: a full greedy rebuild per update.
  const Timer rebuild_timer;
  const auto oracle = modified_greedy_spanner(engine.live_graph(),
                                              config.params, config.rebuild);
  r.rebuild_seconds = rebuild_timer.seconds();
  r.speedup_vs_rebuild =
      apply_seconds > 0
          ? r.rebuild_seconds * static_cast<double>(updates) / apply_seconds
          : 0.0;
  r.spanner_m_final = engine.spanner_m();
  r.live_m_final = engine.live_m();
  r.epochs = engine.snapshot()->epoch;
  r.repair_decisions = engine.stats().repair_decisions;
  r.repair_promotions = engine.stats().repair_promotions;
  r.peak_rss_mb = bench::peak_rss_mb();

  Table table({"n", "f", "k", "model", "updates", "upd/s", "queries", "qry/s",
               "p50-us", "p99-us", "rebuild-s", "speedup", "m(H)", "m(oracle)",
               "verify"});
  table.add_row(
      {Table::num(r.n), Table::num(static_cast<long long>(r.f)),
       Table::num(static_cast<long long>(r.k)), r.model,
       Table::num(r.updates), Table::num(r.updates_per_s, 0),
       Table::num(r.queries), Table::num(r.queries_per_s, 0),
       Table::num(r.p50_query_us, 1), Table::num(r.p99_query_us, 1),
       Table::num(r.rebuild_seconds, 2), Table::num(r.speedup_vs_rebuild, 0),
       Table::num(r.spanner_m_final), Table::num(oracle.spanner.m()),
       r.checkpoints_ok ? "ok" : "FAILED"});
  table.print(std::cout);

  if (!write_json(json_path, r)) {
    std::cerr << "error: cannot write " << json_path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << json_path << "\n";
  const bool obs_ok = obs.finish();
  return (r.checkpoints_ok && obs_ok) ? 0 : 1;
}

}  // namespace

// Bad flags and unusable inputs throw; report them and exit 1 instead of
// letting the exception reach std::terminate.
int main(int argc, char** argv) {
  try {
    return bench_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
