#include "fault/verifier.h"

#include <algorithm>
#include <memory>

#include "exec/thread_pool.h"
#include "fault/attack.h"
#include "graph/fault_mask.h"
#include "graph/search.h"
#include "obs/obs.h"
#include "util/check.h"

namespace ftspan {

namespace {

constexpr double kTolerance = 1e-9;

const obs::Counter c_verify_trials("verify.trials");

/// Shared machinery: evaluates one fault set against all surviving G-edges,
/// folding results into `report`.
class PairChecker {
 public:
  PairChecker(const Graph& g, const Graph& h, const SpannerParams& params)
      : g_(g), h_(h), t_(params.stretch()), model_(params.model) {
    FTSPAN_REQUIRE(h.n() == g.n(), "spanner must share G's vertex set");
  }

  void check(const FaultSet& faults, StretchReport& report) {
    FTSPAN_REQUIRE(faults.model == model_, "fault model mismatch");
    obs::ScopedSpan span("verify", "trial", "faults", faults.ids.size());
    c_verify_trials.add();
    ++report.fault_sets_checked;

    // Build masks.  Edge faults carry g-edge ids; h's copy of the same edge
    // (if any) is looked up by endpoints.
    g_vertex_mask_.reset_touched();
    g_edge_mask_.reset_touched();
    h_edge_mask_.reset_touched();
    g_vertex_mask_.ensure_universe(g_.n());
    g_edge_mask_.ensure_universe(g_.m());
    h_edge_mask_.ensure_universe(h_.m());
    if (model_ == FaultModel::vertex) {
      for (const auto id : faults.ids) {
        FTSPAN_REQUIRE(id < g_.n(), "vertex fault out of range");
        g_vertex_mask_.set(id);
      }
    } else {
      for (const auto id : faults.ids) {
        FTSPAN_REQUIRE(id < g_.m(), "edge fault out of range");
        g_edge_mask_.set(id);
        const auto& e = g_.edge(id);
        if (const auto in_h = h_.find_edge(e.u, e.v)) h_edge_mask_.set(*in_h);
      }
    }
    const FaultView g_view{g_vertex_mask_.bytes(), g_edge_mask_.bytes()};
    const FaultView h_view{g_vertex_mask_.bytes(), h_edge_mask_.bytes()};

    for (EdgeId id = 0; id < g_.m(); ++id) {
      if (model_ == FaultModel::edge && g_edge_mask_.test(id)) continue;
      const auto& e = g_.edge(id);
      if (model_ == FaultModel::vertex &&
          (g_vertex_mask_.test(e.u) || g_vertex_mask_.test(e.v)))
        continue;
      ++report.pairs_checked;

      // d_{G\F}(u,v) <= w(u,v) because the edge survives.
      const Weight d_g = dijkstra_.distance(g_, e.u, e.v, g_view, e.w);
      FTSPAN_ASSERT(d_g <= e.w + kTolerance, "edge survives, so d_G <= w");
      const Weight budget = static_cast<Weight>(t_) * d_g;
      const Weight d_h = dijkstra_.distance(h_, e.u, e.v, h_view, budget);

      const double stretch =
          d_h == kUnreachableWeight
              ? std::numeric_limits<double>::infinity()
              : (d_g == 0.0 ? 1.0 : static_cast<double>(d_h / d_g));
      if (stretch > report.max_stretch) {
        report.max_stretch = stretch;
        report.worst = StretchWitness{faults, e.u, e.v, d_g, d_h};
      }
      if (d_h == kUnreachableWeight ||
          d_h > budget + kTolerance * std::max(1.0, budget))
        report.ok = false;
    }
  }

 private:
  const Graph& g_;
  const Graph& h_;
  std::uint32_t t_;
  FaultModel model_;
  DijkstraRunner dijkstra_;
  ScratchMask g_vertex_mask_;
  ScratchMask g_edge_mask_;
  ScratchMask h_edge_mask_;
};

/// Enumerates all subsets of {0..universe-1} of size exactly `size` and
/// invokes fn(span) on each.
template <typename Fn>
void for_each_subset(std::uint32_t universe, std::uint32_t size, Fn&& fn) {
  if (size > universe) return;
  std::vector<std::uint32_t> pick(size);
  for (std::uint32_t i = 0; i < size; ++i) pick[i] = i;
  while (true) {
    fn(pick);
    // Advance to the next combination.
    std::uint32_t i = size;
    while (i > 0 && pick[i - 1] == universe - (size - (i - 1))) --i;
    if (i == 0) break;
    ++pick[i - 1];
    for (std::uint32_t j = i; j < size; ++j) pick[j] = pick[j - 1] + 1;
  }
}

}  // namespace

StretchReport check_fault_set(const Graph& g, const Graph& h,
                              const SpannerParams& params,
                              const FaultSet& faults) {
  params.validate();
  StretchReport report;
  PairChecker checker(g, h, params);
  checker.check(faults, report);
  return report;
}

StretchReport verify_exhaustive(const Graph& g, const Graph& h,
                                const SpannerParams& params) {
  params.validate();
  StretchReport report;
  PairChecker checker(g, h, params);
  const auto universe = static_cast<std::uint32_t>(
      params.model == FaultModel::vertex ? g.n() : g.m());
  for (std::uint32_t size = 0; size <= params.f && size <= universe; ++size) {
    for_each_subset(universe, size, [&](const std::vector<std::uint32_t>& pick) {
      FaultSet faults;
      faults.model = params.model;
      faults.ids = pick;
      checker.check(faults, report);
    });
  }
  return report;
}

StretchReport verify_fault_sets(const Graph& g, const Graph& h,
                                const SpannerParams& params,
                                std::span<const FaultSet> sets,
                                std::uint32_t threads,
                                std::vector<StretchReport>* per_set) {
  params.validate();
  threads = exec::resolve_threads(threads);
  std::vector<StretchReport> local;
  std::vector<StretchReport>& partial = per_set != nullptr ? *per_set : local;
  partial.assign(sets.size(), StretchReport{});

  if (threads <= 1 || sets.size() <= 1) {
    PairChecker checker(g, h, params);
    for (std::size_t i = 0; i < sets.size(); ++i)
      checker.check(sets[i], partial[i]);
  } else {
    std::vector<std::unique_ptr<PairChecker>> checkers(threads);
    for (auto& checker : checkers)
      checker = std::make_unique<PairChecker>(g, h, params);
    exec::ThreadPool& pool = exec::shared_pool();
    pool.ensure_workers(threads);
    pool.run(
        sets.size(),
        [&](unsigned worker, std::size_t i) {
          checkers[worker]->check(sets[i], partial[i]);
        },
        threads);
  }

  // Fold in set order: the max-stretch tie-breaking — first set, first pair
  // — is identical at every thread count.
  StretchReport report;
  for (const auto& p : partial) {
    report.fault_sets_checked += p.fault_sets_checked;
    report.pairs_checked += p.pairs_checked;
    report.ok = report.ok && p.ok;
    if (p.max_stretch > report.max_stretch) {
      report.max_stretch = p.max_stretch;
      report.worst = p.worst;
    }
  }
  return report;
}

StretchReport verify_sampled(const Graph& g, const Graph& h,
                             const SpannerParams& params, std::uint32_t trials,
                             Rng& rng, std::uint32_t threads) {
  params.validate();
  // Draw every fault set up front (sequential rng consumption is the
  // bit-identity contract).  Trial i requests size f - (i mod (f+1)), so
  // every size in [0, f] is exercised — Definition 1 quantifies over
  // |F| <= f and stretch is not monotone in F.  Size-0 requests and draws
  // the universe could not fill (see attack.h's size contract) are skipped,
  // not silently counted as full-strength trials.
  std::vector<FaultSet> sets;
  sets.reserve(std::size_t{trials} + 1);
  // Always include the empty fault set: H must at least be a plain spanner.
  sets.push_back(FaultSet{params.model, {}});
  std::uint64_t skipped = 0;
  for (std::uint32_t trial = 0; trial < trials; ++trial) {
    const std::uint32_t want =
        params.f == 0 ? 0 : params.f - (trial % (params.f + 1));
    if (want == 0) {
      ++skipped;
      continue;
    }
    FaultSet faults =
        generate_mixed_attack(g, h, params.model, want, trial, rng);
    if (faults.ids.size() < want) {
      ++skipped;
      continue;
    }
    sets.push_back(std::move(faults));
  }

  StretchReport report = verify_fault_sets(g, h, params, sets, threads);
  report.trials_skipped = skipped;
  return report;
}

}  // namespace ftspan
