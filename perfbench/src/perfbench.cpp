// ftspan_perfbench: the load generator behind perfbench/run.py.
//
// One process on one CPU, one load-generating thread.  Every workload runs
// the same round of the end-to-end pipeline on its own graph family, weighted
// so that most of its time lands in one layer:
//
//   setup   generate the instances and the churn streams, construct one
//           ftspand daemon per churn mesh (its constructor runs the initial
//           greedy build)
//   build   modified_greedy_spanner on this round's share of the instances
//   churn   a closed-loop client on one UNIX-socket connection per daemon
//           replays its stream; each update is followed by a dist and a route
//   verify  this round's share of the verify_sampled storms
//
// Rounds repeat until --seconds is used, and each sample of a phase repeats
// identical work, so every timing metric is built from the fastest of its
// samples (see fastest).  Every phase runs at one thread: single shots and
// concurrent readers are what make a benchmark on a small shared host noisy.
//
// With --trace 1 the program instead runs a short slice of every phase four
// times (warm-up, untraced for the per-layer numbers, traced with ftobs spans
// around each layer call, untraced again), and writes the Chrome trace plus
// the metrics snapshot for perfbench/summarize.py.
//
//   ftspan_perfbench --workload kron_build|geo_verify|gnp_churn --seed N
//                    --seconds S --trace 0|1 --out-dir DIR

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <numbers>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/modified_greedy.h"
#include "fault/verifier.h"
#include "graph/generators.h"
#include "graph/search.h"
#include "obs/obs.h"
#include "service/churn_spanner.h"
#include "service/ftspand.h"
#include "util/cli.h"
#include "util/rng.h"

#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
#define PERFBENCH_UNFIT_BUILD 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_UNFIT_BUILD 1
#endif
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace ftspan;
using service::ChurnConfig;
using service::ChurnSpanner;
using service::Ftspand;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------ workloads

enum class Family { kron, geo, gnp };

struct Spec {
  std::string_view name;
  Family family;
  std::size_t size;    ///< Kronecker scale, or vertex count
  double degree;       ///< Kronecker edgefactor, or average degree
  std::uint32_t f;
  std::uint32_t k;
  std::size_t instances;         ///< graphs generated per round
  std::size_t builds_per_round;  ///< instances built per round, rotating
  /// Verify storms: storm j runs verify_sampled on instance j mod instances
  /// (or on the churn-maintained spanner) with rng lane j.
  std::size_t verify_storms;
  std::size_t verifies_per_round;  ///< storms run per round, rotating
  std::uint32_t verify_trials;     ///< verify_sampled trials per storm
  std::size_t churn_meshes;        ///< instances served by a daemon each
  std::size_t churn_updates;       ///< stream length per mesh
  /// The workload's user ends up with the churn-maintained spanner (it is
  /// what spanner_edges counts and verify checks) rather than the built one.
  bool final_is_maintained;
  std::size_t trace_instances;  ///< traced slice: instances built
  std::size_t trace_updates;    ///< traced slice: stream prefix replayed
};

constexpr std::size_t kMinRounds = 3;
constexpr std::size_t kMicroPairs = 2000;
constexpr std::size_t kCheckSets = 5;
constexpr std::size_t kPings = 300;

constexpr Spec kSpecs[] = {
    {"kron_build", Family::kron, 8, 16, 2, 2, 120, 30, 12, 6, 1, 8, 250, false,
     12, 250},
    {"geo_verify", Family::geo, 1000, 30, 2, 2, 1, 3, 4, 4, 3, 1, 2000, false,
     1, 300},
    {"gnp_churn", Family::gnp, 1024, 16, 1, 2, 1, 3, 1, 1, 1, 1, 2000, true, 1,
     1000},
};

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Independent stream `lane` of the workload seed.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t lane) {
  return splitmix(splitmix(seed) ^ (lane * 0xd1342543de82ef95ULL + 1));
}

Graph make_instance(const Spec& s, std::uint64_t seed, std::size_t i) {
  Rng rng(sub_seed(seed, i));
  switch (s.family) {
    case Family::kron:
      return kronecker(s.size, static_cast<std::size_t>(s.degree), rng);
    case Family::geo:
      return random_geometric(
          s.size,
          std::sqrt(s.degree / (std::numbers::pi * static_cast<double>(s.size))),
          rng);
    case Family::gnp:
      return gnp(s.size, s.degree / static_cast<double>(s.size - 1), rng);
  }
  throw std::logic_error("unknown family");
}

/// One churn step: an update, then a dist and a route query.
struct Step {
  bool insert = false;
  VertexId u = 0, v = 0;
  VertexId qa = 0, qb = 0;
};

std::uint64_t pair_key(VertexId u, VertexId v) {
  return (static_cast<std::uint64_t>(std::min(u, v)) << 32) | std::max(u, v);
}

/// Pre-generates the stream against a mirror of the live edge set: ~55%
/// inserts of absent pairs, the rest removals of live edges (the E18 mix).
/// Query endpoints are endpoints of random initial edges, so queries follow
/// the degree distribution (hub-heavy on Kronecker meshes).
std::vector<Step> make_stream(const Graph& g, std::size_t updates, Rng& rng) {
  std::unordered_set<std::uint64_t> live;
  std::vector<std::pair<VertexId, VertexId>> live_vec;
  for (const auto& e : g.edges()) {
    live.insert(pair_key(e.u, e.v));
    live_vec.push_back({e.u, e.v});
  }
  const auto n = static_cast<VertexId>(g.n());
  const auto endpoint = [&] {
    const auto& e = g.edge(static_cast<EdgeId>(rng.next_below(g.m())));
    return rng.next_bool(0.5) ? e.u : e.v;
  };
  std::vector<Step> stream;
  stream.reserve(updates);
  while (stream.size() < updates) {
    Step s;
    if (live_vec.empty() || rng.next_bool(0.55)) {
      do {
        s.u = static_cast<VertexId>(rng.next_below(n));
        s.v = static_cast<VertexId>(rng.next_below(n));
      } while (s.u == s.v || live.count(pair_key(s.u, s.v)) != 0);
      s.insert = true;
      live.insert(pair_key(s.u, s.v));
      live_vec.push_back({s.u, s.v});
    } else {
      const auto idx = rng.next_below(live_vec.size());
      std::tie(s.u, s.v) = live_vec[idx];
      live_vec[idx] = live_vec.back();
      live_vec.pop_back();
      live.erase(pair_key(s.u, s.v));
    }
    s.qa = endpoint();
    s.qb = endpoint();
    stream.push_back(s);
  }
  return stream;
}

// ------------------------------------------------------------ statistics

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Nearest-rank percentile (p in (0, 1]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// The run's estimate of a repeated phase: the fastest of its samples.  Every
/// sample repeats identical, deterministic work, so a sample can only be slow
/// for outside reasons.  On a shared host, neighbours slow this CPU in bursts
/// of seconds (by up to 1.8x on a 4-vCPU KVM Xeon, CPU time included), so the
/// share of disturbed samples swings from run to run and moves a median with
/// it; the fastest sample tracks the undisturbed cost as long as one of them
/// is undisturbed.  Over five gnp_churn runs on that host, the run-to-run
/// spread (IQR / median) of the timing metrics was 0.13-0.25 for the fastest
/// sample, 0.18-0.33 for the 10th percentile and 0.21-0.38 for the median.
double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Confines the process to the CPU it started on; threads created later
/// inherit the mask.  The load generator, the daemon's threads and the engine
/// then share one CPU, so a request hand-off is a local context switch instead
/// of a cross-CPU wakeup, whose latency follows the host's load.
void pin_to_one_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

// ------------------------------------------------------------ accounting

/// Operations attempted and failed; a failed operation keeps its reason.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;

  void record(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (reasons.size() < 20) reasons.push_back(what);
  }
};

/// Flat JSON object writer (string keys, numeric / string / bool values).
class JsonObject {
 public:
  JsonObject& num(std::string_view key, double value) {
    std::ostringstream os;
    os << std::setprecision(17) << (std::isfinite(value) ? value : -1.0);
    return raw(key, os.str());
  }
  JsonObject& count(std::string_view key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& str(std::string_view key, std::string_view value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (c == '\n' || c == '\t') ? ' ' : c;
    }
    return raw(key, quoted + "\"");
  }
  JsonObject& boolean(std::string_view key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  JsonObject& raw(std::string_view key, const std::string& json) {
    body_ += body_.empty() ? "{" : ", ";
    body_ += "\"" + std::string(key) + "\": " + json;
    return *this;
  }
  [[nodiscard]] std::string text() const {
    return body_.empty() ? "{}" : body_ + "}";
  }

 private:
  std::string body_;
};

// ------------------------------------------------------------ build layer

std::uint64_t fnv(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Builds instances [0, count) once; returns the pass time.
double build_pass(const std::vector<Graph>& graphs, std::size_t count,
                  const SpannerParams& params, std::vector<SpannerBuild>& out) {
  out.clear();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    const obs::ScopedSpan span("core", "modified_greedy_spanner", "instance",
                               i);
    out.push_back(modified_greedy_spanner(graphs[i], params));
  }
  return seconds_since(t0);
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t build_digest(const SpannerBuild& b) {
  std::uint64_t h = kFnvBasis;
  for (const EdgeId e : b.picked) h = fnv(h, e);
  return h;
}

std::uint64_t builds_digest(const std::vector<SpannerBuild>& builds) {
  std::uint64_t h = kFnvBasis;
  for (const auto& b : builds) h = fnv(h, build_digest(b));
  return h;
}

// ------------------------------------------------------------ fault layer

struct VerifyTarget {
  const Graph* g;
  const Graph* h;
};

bool same_report(const StretchReport& a, const StretchReport& b) {
  return a.ok == b.ok && a.max_stretch == b.max_stretch &&
         a.pairs_checked == b.pairs_checked &&
         a.fault_sets_checked == b.fault_sets_checked &&
         a.trials_skipped == b.trials_skipped && a.worst.u == b.worst.u &&
         a.worst.v == b.worst.v && a.worst.faults.ids == b.worst.faults.ids;
}

/// One verify pass: verify_sampled over every target with a fixed rng seed,
/// so every pass checks the identical fault sets.
double verify_pass(const std::vector<VerifyTarget>& targets,
                   const SpannerParams& params, std::uint32_t trials,
                   std::uint64_t seed, std::vector<StretchReport>& out) {
  out.clear();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < targets.size(); ++i) {
    Rng rng(sub_seed(seed, 2000 + i));
    const obs::ScopedSpan span("fault", "verify_sampled", "instance", i);
    out.push_back(verify_sampled(*targets[i].g, *targets[i].h, params, trials,
                                 rng));
  }
  return seconds_since(t0);
}

// ------------------------------------------------------------ service layer

/// One client connection to an in-process daemon whose accept loop runs on
/// its own thread; the destructor stops the daemon and joins that thread.
class DaemonSession {
 public:
  DaemonSession(Ftspand& daemon, const std::string& uds_path)
      : daemon_(daemon), server_([this] { daemon_.run(); }) {
    try {
      fd_ = service::connect_uds(uds_path);
    } catch (...) {
      daemon_.stop();
      server_.join();
      throw;
    }
  }
  ~DaemonSession() {
    if (fd_ >= 0) ::close(fd_);
    daemon_.stop();
    server_.join();
  }
  DaemonSession(const DaemonSession&) = delete;
  DaemonSession& operator=(const DaemonSession&) = delete;

  std::string request(const std::string& payload) {
    service::write_frame(fd_, payload);
    std::string reply;
    if (!service::read_frame(fd_, reply))
      throw std::runtime_error("daemon closed the connection");
    return reply;
  }

 private:
  Ftspand& daemon_;
  std::thread server_;
  int fd_ = -1;
};

bool starts_ok(const std::string& reply) { return reply.rfind("ok", 0) == 0; }

/// Value of `key=` in a reply, or NaN when absent ("inf" parses as inf).
double reply_field(const std::string& reply, std::string_view key) {
  std::string needle(" ");
  needle.append(key).push_back('=');
  const auto at = reply.find(needle);
  if (at == std::string::npos) return std::nan("");
  return std::strtod(reply.c_str() + at + needle.size(), nullptr);
}

struct ChurnRecord {
  std::vector<double> update_us, query_us;  ///< per request, stream order
  std::vector<double> request_us;           ///< update, dist, route, ...
  std::vector<double> ping_us;              ///< pings sent before the steps
  std::size_t final_spanner_m = 0;
};

std::string update_request(const Step& s) {
  return (s.insert ? "insert " : "remove ") + std::to_string(s.u) + " " +
         std::to_string(s.v);
}

std::string pair_args(const Step& s) {
  return " " + std::to_string(s.qa) + " " + std::to_string(s.qb);
}

/// Closed loop over one connection: each request is sent only after the
/// previous reply arrived.  Sends `pings` pings, replays steps [0, steps),
/// then flush + stats + shutdown.
ChurnRecord run_churn(Ftspand& daemon, const std::string& uds_path,
                      const std::vector<Step>& stream, std::size_t steps,
                      std::uint32_t stretch, Tally& tally,
                      std::size_t pings = 0) {
  ChurnRecord rec;
  DaemonSession session(daemon, uds_path);
  for (std::size_t i = 0; i < pings; ++i) {
    const auto t0 = Clock::now();
    const auto reply = session.request("ping");
    rec.ping_us.push_back(seconds_since(t0) * 1e6);
    tally.record(reply == "ok pong", "ping: " + reply);
  }
  const auto timed = [&](std::size_t idx, const char* name,
                         const std::string& req, std::vector<double>& lat) {
    const obs::ScopedSpan span("ftspand", name, "req", idx);
    const auto t0 = Clock::now();
    std::string reply = session.request(req);
    const double us = seconds_since(t0) * 1e6;
    lat.push_back(us);
    rec.request_us.push_back(us);
    return reply;
  };
  for (std::size_t i = 0; i < steps; ++i) {
    const Step& s = stream[i];
    const auto up = timed(i, "update", update_request(s), rec.update_us);
    tally.record(starts_ok(up), "update " + std::to_string(i) + ": " + up);
    const auto dist = timed(i, "dist", "dist" + pair_args(s), rec.query_us);
    const double st = reply_field(dist, "stretch");
    tally.record(starts_ok(dist) && st <= stretch + 1e-9,
                 "dist " + std::to_string(i) + ": " + dist);
    const auto route = timed(i, "route", "route" + pair_args(s), rec.query_us);
    tally.record(starts_ok(route), "route " + std::to_string(i) + ": " + route);
  }
  const auto flush = session.request("flush");
  const auto stats = session.request("stats");
  tally.record(starts_ok(flush) && starts_ok(stats), "stats: " + stats);
  const double final_m = reply_field(stats, "spanner_m");
  rec.final_spanner_m =
      std::isfinite(final_m) ? static_cast<std::size_t>(final_m) : 0;
  (void)session.request("shutdown");
  return rec;
}

ChurnConfig churn_config(const SpannerParams& params) {
  ChurnConfig config;
  config.params = params;
  config.rebuild_budget = 0;  // pure incremental maintenance is what is served
  return config;
}

// ------------------------------------------------------------ inputs

struct Inputs {
  std::vector<Graph> graphs;
  std::vector<std::vector<Step>> streams;  ///< one per churn mesh
};

Inputs make_inputs(const Spec& s, std::uint64_t seed, std::size_t instances) {
  Inputs in;
  for (std::size_t i = 0; i < instances; ++i)
    in.graphs.push_back(make_instance(s, seed, i));
  for (std::size_t i = 0; i < std::min(s.churn_meshes, instances); ++i) {
    Rng rng(sub_seed(seed, 1000 + i));
    in.streams.push_back(make_stream(in.graphs[i], s.churn_updates, rng));
  }
  return in;
}

std::unique_ptr<Ftspand> make_daemon(const Graph& mesh,
                                     const SpannerParams& params,
                                     const std::string& uds_path) {
  service::ServeOptions options;
  options.uds_path = uds_path;
  return std::make_unique<Ftspand>(Graph(mesh), churn_config(params), options);
}

// ------------------------------------------------------------ provenance

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string provenance(const Spec& s, std::uint64_t seed, double seconds,
                       bool trace) {
  return JsonObject()
      .str("workload", s.name)
      .count("seed", seed)
      .num("seconds", seconds)
      .boolean("trace", trace)
      .count("nproc", std::thread::hardware_concurrency())
      .str("cpu", cpu_model())
      .str("compiler", __VERSION__)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .boolean("ndebug", true)
      .count("threads", 1)
      .text();
}

// ------------------------------------------------------------ end to end

/// Samples of the timed phases, gathered round by round.  Builds are keyed by
/// instance and verify storms by storm index, because a round runs only its
/// share of each; every round replays the same churn requests, so their
/// latencies are keyed by request index (one sample per round).
struct PhaseSamples {
  std::vector<double> setup_s;
  std::vector<std::vector<double>> build_s, verify_s, update_us, query_us;
};

/// Appends one sample per key: keyed[k] gets values[k].
void add_samples(std::vector<std::vector<double>>& keyed,
                 const std::vector<double>& values) {
  if (keyed.empty()) keyed.resize(values.size());
  if (keyed.size() != values.size())
    throw std::runtime_error("churn session changed its request count");
  for (std::size_t k = 0; k < values.size(); ++k)
    keyed[k].push_back(values[k]);
}

/// Per-key fastest samples: each instance's build, storm's run or request's
/// latency with the host's bursts filtered out.
std::vector<double> fastest_per_key(
    const std::vector<std::vector<double>>& keyed) {
  std::vector<double> out;
  for (const auto& samples : keyed) out.push_back(fastest(samples));
  return out;
}

/// First-seen outputs; every later round must reproduce them exactly.
struct Reference {
  std::vector<SpannerBuild> builds;  ///< per instance (empty until built)
  std::vector<std::uint64_t> digests;
  std::vector<StretchReport> reports;  ///< per storm
  std::vector<bool> reported;
  std::size_t churn_final_m = 0;
};

/// One round: set-up (fresh inputs and daemons), this round's share of the
/// builds, one churn session per mesh, this round's share of the verify
/// storms.  Round r builds instances r*B .. r*B+B-1 and runs storms
/// r*V .. r*V+V-1 (both mod their counts), so every instance and storm is
/// sampled throughout the run.
void run_round(const Spec& s, std::size_t r, std::uint64_t seed,
               const SpannerParams& params, const std::string& out_dir,
               PhaseSamples& ps, Reference& ref, Tally& tally) {
  const auto t0 = Clock::now();
  const Inputs in = make_inputs(s, seed, s.instances);
  std::vector<std::string> socks;
  std::vector<std::unique_ptr<Ftspand>> daemons;
  for (std::size_t i = 0; i < in.streams.size(); ++i) {
    socks.push_back(out_dir + "/ftspand-" + std::to_string(i) + ".sock");
    daemons.push_back(make_daemon(in.graphs[i], params, socks.back()));
  }
  ps.setup_s.push_back(seconds_since(t0));

  for (std::size_t b = 0; b < s.builds_per_round; ++b) {
    const std::size_t i = (r * s.builds_per_round + b) % s.instances;
    const auto tb = Clock::now();
    SpannerBuild built = modified_greedy_spanner(in.graphs[i], params);
    ps.build_s[i].push_back(seconds_since(tb));
    tally.record(built.spanner.m() == built.picked.size() &&
                     built.spanner.m() <= in.graphs[i].m(),
                 "build " + std::to_string(i) + ": malformed spanner");
    const std::uint64_t digest = build_digest(built);
    if (ref.builds[i].picked.empty()) {
      ref.digests[i] = digest;
      ref.builds[i] = std::move(built);
    } else {
      tally.record(digest == ref.digests[i],
                   "instance " + std::to_string(i) +
                       ": rebuild picked different edges");
    }
  }

  // Several meshes per round keep the update tail from hinging on the shape
  // of one graph; their requests are pooled.
  ChurnRecord churn;
  for (std::size_t i = 0; i < daemons.size(); ++i) {
    const ChurnRecord c = run_churn(*daemons[i], socks[i], in.streams[i],
                                    in.streams[i].size(), params.stretch(),
                                    tally);
    const auto append = [](std::vector<double>& dst,
                           const std::vector<double>& src) {
      dst.insert(dst.end(), src.begin(), src.end());
    };
    append(churn.update_us, c.update_us);
    append(churn.query_us, c.query_us);
    churn.final_spanner_m += c.final_spanner_m;
  }
  add_samples(ps.update_us, churn.update_us);
  add_samples(ps.query_us, churn.query_us);
  if (r == 0) ref.churn_final_m = churn.final_spanner_m;
  tally.record(churn.final_spanner_m == ref.churn_final_m,
               "round " + std::to_string(r) + ": churn ended at |H|=" +
                   std::to_string(churn.final_spanner_m));

  Graph live, maintained;
  if (s.final_is_maintained) {
    live = daemons[0]->engine().live_graph();
    maintained = daemons[0]->engine().spanner_graph();
  }
  for (std::size_t v = 0; v < s.verifies_per_round; ++v) {
    const std::size_t j = (r * s.verifies_per_round + v) % s.verify_storms;
    const std::size_t i = j % s.instances;
    const VerifyTarget target =
        s.final_is_maintained ? VerifyTarget{&live, &maintained}
                              : VerifyTarget{&in.graphs[i],
                                             &ref.builds[i].spanner};
    Rng rng(sub_seed(seed, 2000 + j));
    const auto tv = Clock::now();
    const StretchReport rep =
        verify_sampled(*target.g, *target.h, params, s.verify_trials, rng);
    ps.verify_s[j].push_back(seconds_since(tv));
    tally.record(rep.ok && rep.max_stretch <= params.stretch() + 1e-9,
                 "verify storm " + std::to_string(j) +
                     ": max_stretch=" + std::to_string(rep.max_stretch));
    if (!ref.reported[j]) {
      ref.reports[j] = rep;
      ref.reported[j] = true;
    } else {
      tally.record(same_report(rep, ref.reports[j]),
                   "verify storm " + std::to_string(j) +
                       ": rerun reported differently");
    }
  }
}

double sum(const std::vector<double>& v) {
  double total = 0;
  for (const double x : v) total += x;
  return total;
}

double sum_of_fastest(const std::vector<std::vector<double>>& keyed) {
  return sum(fastest_per_key(keyed));
}

/// Untraced run: rounds repeat until the next one would overrun `seconds`
/// (at least kMinRounds, and enough to build every instance and run every
/// storm once).  Every timing metric is built from fastest samples: setup_s
/// from the per-round samples; build_s and verify_s sum the per-instance and
/// per-storm ones, so they time one pass over every instance and one run of
/// every storm; the request metrics use each request's fastest latency, as
/// percentiles across requests and, for the one closed-loop client, as
/// requests over their summed latency.
std::string run_end_to_end(const Spec& s, std::uint64_t seed, double seconds,
                           const std::string& out_dir, Tally& tally,
                           JsonObject& checks, JsonObject& samples) {
  const SpannerParams params{.k = s.k, .f = s.f, .model = FaultModel::vertex};
  if (!s.final_is_maintained &&
      std::min(s.verify_storms, s.instances) > s.builds_per_round)
    throw std::logic_error("a verify storm would precede its build");
  PhaseSamples ps;
  ps.build_s.resize(s.instances);
  ps.verify_s.resize(s.verify_storms);
  Reference ref;
  ref.builds.resize(s.instances);
  ref.digests.resize(s.instances);
  ref.reports.resize(s.verify_storms);
  ref.reported.resize(s.verify_storms, false);
  const auto ceil_div = [](std::size_t a, std::size_t b) {
    return (a + b - 1) / b;
  };
  const std::size_t min_rounds =
      std::max({kMinRounds, ceil_div(s.instances, s.builds_per_round),
                ceil_div(s.verify_storms, s.verifies_per_round)});
  std::size_t rounds = 0;
  const auto t0 = Clock::now();
  while (rounds < min_rounds ||
         seconds_since(t0) * static_cast<double>(rounds + 1) /
                 static_cast<double>(rounds) <=
             seconds) {
    run_round(s, rounds, seed, params, out_dir, ps, ref, tally);
    ++rounds;
  }
  const std::vector<double> update_us = fastest_per_key(ps.update_us);
  const std::vector<double> query_us = fastest_per_key(ps.query_us);
  const double churn_s = (sum(update_us) + sum(query_us)) * 1e-6;
  std::cerr << "rounds " << rounds << ": setup " << fastest(ps.setup_s)
            << " s, build " << sum_of_fastest(ps.build_s) << " s, churn "
            << churn_s << " s, verify " << sum_of_fastest(ps.verify_s)
            << " s\n";

  std::size_t built_edges = 0;
  for (const auto& b : ref.builds) built_edges += b.spanner.m();
  const std::size_t spanner_edges =
      s.final_is_maintained ? ref.churn_final_m : built_edges;
  std::uint64_t pairs = 0, sets = 0, skipped = 0;
  double max_stretch = 0;
  for (const auto& rep : ref.reports) {
    pairs += rep.pairs_checked;
    sets += rep.fault_sets_checked;
    skipped += rep.trials_skipped;
    max_stretch = std::max(max_stretch, rep.max_stretch);
  }
  const StretchReport& v0 = ref.reports.front();
  std::ostringstream witness;
  witness << v0.worst.u << "-" << v0.worst.v << "/";
  for (const auto id : v0.worst.faults.ids) witness << id << ".";
  std::ostringstream hex;
  hex << std::hex << builds_digest(ref.builds);
  checks.count("spanner_edges", spanner_edges)
      .count("built_spanner_edges", built_edges)
      .str("picked_digest", hex.str())
      .count("churn_final_spanner_edges", ref.churn_final_m)
      .num("max_stretch", max_stretch)
      .count("pairs_checked", pairs)
      .count("fault_sets_checked", sets)
      .count("trials_skipped", skipped)
      .str("worst_witness", witness.str());
  const auto fewest = [](const std::vector<std::vector<double>>& keyed) {
    std::size_t n = SIZE_MAX;
    for (const auto& samples : keyed) n = std::min(n, samples.size());
    return n;
  };
  samples.count("rounds", rounds)
      .count("setup_samples", ps.setup_s.size())
      .count("build_instances", s.instances)
      .count("min_builds_per_instance", fewest(ps.build_s))
      .count("verify_storms", s.verify_storms)
      .count("min_runs_per_storm", fewest(ps.verify_s))
      .count("updates_per_round", update_us.size())
      .count("queries_per_round", query_us.size());

  return JsonObject()
      .num("setup_s", fastest(ps.setup_s))
      .num("build_s", sum_of_fastest(ps.build_s))
      .num("verify_s", sum_of_fastest(ps.verify_s))
      .count("spanner_edges", spanner_edges)
      .num("peak_rss_mb", bench::peak_rss_mb())
      .num("requests_per_s",
           static_cast<double>(update_us.size() + query_us.size()) / churn_s)
      .num("update_p50_us", percentile(update_us, 0.50))
      .num("update_p99_us", percentile(update_us, 0.99))
      .num("query_p50_us", percentile(query_us, 0.50))
      .num("query_p99_us", percentile(query_us, 0.99))
      .text();
}

// ------------------------------------------------------------ traced slice

/// Seeded t-hop BFS on H and budgeted Dijkstra on G between the same pairs:
/// wall time per scanned arc of the two CSR search kernels.
struct MicroRecord {
  double bfs_ns_per_arc = 0, dijkstra_ns_per_arc = 0;
};

MicroRecord run_graph_micro(const Graph& g, const Graph& h,
                            const std::vector<Step>& stream,
                            std::uint32_t stretch) {
  MicroRecord rec;
  const std::size_t pairs = std::min(kMicroPairs, stream.size());
  {
    BfsRunner bfs(g.n());
    const obs::ScopedSpan span("graph", "bfs_hop_distance", "pairs", pairs);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < pairs; ++i)
      (void)bfs.hop_distance(h, stream[i].qa, stream[i].qb, {}, stretch);
    rec.bfs_ns_per_arc = ratio(seconds_since(t0) * 1e9,
                               static_cast<double>(bfs.arcs_scanned()));
  }
  {
    DijkstraRunner dij(g.n());
    const obs::ScopedSpan span("graph", "dijkstra_distance", "pairs", pairs);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < pairs; ++i)
      (void)dij.distance(g, stream[i].qa, stream[i].qb, {},
                         static_cast<Weight>(stretch));
    rec.dijkstra_ns_per_arc = ratio(seconds_since(t0) * 1e9,
                                    static_cast<double>(dij.arcs_scanned()));
  }
  return rec;
}

/// check_fault_set over kCheckSets random vertex fault sets, plus the two
/// Dijkstra halves of the pair check timed one by one under the first set.
struct FaultMicro {
  std::vector<double> set_ms;
  std::uint64_t pairs = 0, h_pairs = 0;
  std::vector<double> g_us, h_us;
};

FaultMicro run_fault_micro(const VerifyTarget& t, const SpannerParams& params,
                           std::uint64_t seed, Tally& tally) {
  FaultMicro rec;
  const Graph& g = *t.g;
  const Graph& h = *t.h;
  Rng rng(sub_seed(seed, 3000));
  std::vector<FaultSet> sets;
  for (std::size_t i = 0; i < kCheckSets; ++i) {
    FaultSet fs;
    fs.model = FaultModel::vertex;
    while (fs.ids.size() < params.f) {
      const auto v = static_cast<std::uint32_t>(rng.next_below(g.n()));
      if (std::find(fs.ids.begin(), fs.ids.end(), v) == fs.ids.end())
        fs.ids.push_back(v);
    }
    sets.push_back(std::move(fs));
  }
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const obs::ScopedSpan span("fault", "check_fault_set", "set", i);
    const auto t0 = Clock::now();
    const auto report = check_fault_set(g, h, params, sets[i]);
    rec.set_ms.push_back(seconds_since(t0) * 1e3);
    tally.record(report.ok, "check_fault_set " + std::to_string(i));
    std::vector<std::uint8_t> failed(g.n(), 0);
    for (const auto v : sets[i].ids) failed[v] = 1;
    for (const auto& e : g.edges()) {
      if (failed[e.u] != 0 || failed[e.v] != 0) continue;
      ++rec.pairs;
      if (h.has_edge(e.u, e.v)) ++rec.h_pairs;
    }
  }
  std::vector<std::uint8_t> failed(g.n(), 0);
  for (const auto v : sets.front().ids) failed[v] = 1;
  const FaultView view{failed, {}};
  DijkstraRunner dij(g.n());
  const obs::ScopedSpan span("fault", "pair_halves");
  for (std::size_t i = 0; i < g.m() && rec.g_us.size() < kMicroPairs;
       i += std::max<std::size_t>(1, g.m() / kMicroPairs)) {
    const auto& e = g.edge(static_cast<EdgeId>(i));
    if (failed[e.u] != 0 || failed[e.v] != 0) continue;
    auto t0 = Clock::now();
    const Weight dg = dij.distance(g, e.u, e.v, view, e.w);
    rec.g_us.push_back(seconds_since(t0) * 1e6);
    t0 = Clock::now();
    (void)dij.distance(h, e.u, e.v, view, params.stretch() * dg);
    rec.h_us.push_back(seconds_since(t0) * 1e6);
  }
  return rec;
}

/// The daemon's work for the same steps, called in-process (no socket, no
/// parsing): ChurnSpanner updates plus snapshot distance and route queries.
struct ReplayRecord {
  std::vector<double> insert_us, remove_us, distance_us, request_us;
  service::ChurnStats stats;
};

ReplayRecord run_replay(ChurnSpanner& engine, const std::vector<Step>& stream,
                        std::size_t steps) {
  ReplayRecord rec;
  DijkstraRunner dij(engine.n());
  BfsRunner bfs(engine.n());
  std::vector<PathStep> path;
  for (std::size_t i = 0; i < steps; ++i) {
    const Step& s = stream[i];
    const obs::ScopedSpan span("service", "step", "req", i);
    auto t0 = Clock::now();
    if (s.insert) {
      (void)engine.insert(s.u, s.v);
    } else {
      (void)engine.remove(s.u, s.v);
    }
    double us = seconds_since(t0) * 1e6;
    (s.insert ? rec.insert_us : rec.remove_us).push_back(us);
    rec.request_us.push_back(us);

    t0 = Clock::now();
    const auto snap = engine.snapshot();
    const auto d0 = Clock::now();
    (void)service::snapshot_distance(*snap, dij, s.qa, s.qb, snap->mesh_view());
    rec.distance_us.push_back(seconds_since(d0) * 1e6);
    const auto d1 = Clock::now();
    (void)service::snapshot_distance(*snap, dij, s.qa, s.qb,
                                     snap->spanner_view());
    rec.distance_us.push_back(seconds_since(d1) * 1e6);
    rec.request_us.push_back(seconds_since(t0) * 1e6);

    t0 = Clock::now();
    const auto route_snap = engine.snapshot();
    (void)bfs.shortest_path_arcs(route_snap->graph, s.qa, s.qb, path,
                                 route_snap->spanner_view());
    rec.request_us.push_back(seconds_since(t0) * 1e6);
  }
  rec.stats = engine.stats();
  return rec;
}

/// Everything the traced slice measures once.
struct SliceRecord {
  double seconds = 0;  ///< wall time of the slice's phases
  std::vector<SpannerBuild> builds;
  double build_s = 0;
  ChurnRecord churn;
  std::vector<StretchReport> reports;
  double verify_s = 0;
  MicroRecord micro;
  FaultMicro fault;
  ReplayRecord replay;
};

/// One pass of every phase, on the first trace_instances instances and the
/// first trace_updates stream steps.  The daemon and the replay engine are
/// constructed by the caller, outside the timed slice.
SliceRecord run_slice(const Spec& s, const Inputs& in,
                      const SpannerParams& params, std::uint64_t seed,
                      Ftspand& daemon, const std::string& sock,
                      ChurnSpanner& engine, Tally& tally,
                      std::size_t pings = 0) {
  SliceRecord rec;
  const std::vector<Step>& stream = in.streams[0];
  const std::size_t steps = std::min(s.trace_updates, stream.size());
  const auto t0 = Clock::now();
  rec.build_s = build_pass(in.graphs, s.trace_instances, params, rec.builds);
  rec.churn = run_churn(daemon, sock, stream, steps, params.stretch(), tally,
                        pings);
  Graph live, maintained;
  VerifyTarget target{&in.graphs[0], &rec.builds[0].spanner};
  if (s.final_is_maintained) {
    live = daemon.engine().live_graph();
    maintained = daemon.engine().spanner_graph();
    target = {&live, &maintained};
  }
  rec.verify_s = verify_pass({target}, params, s.verify_trials, seed,
                             rec.reports);
  for (const auto& r : rec.reports)
    tally.record(r.ok, "slice verify: max_stretch " +
                           std::to_string(r.max_stretch));
  rec.micro = run_graph_micro(in.graphs[0], rec.builds[0].spanner, stream,
                              params.stretch());
  rec.fault = run_fault_micro(target, params, seed, tally);
  rec.replay = run_replay(engine, stream, steps);
  tally.record(engine.spanner_m() == rec.churn.final_spanner_m,
               "in-process replay and daemon disagree on the final |H|");
  rec.seconds = seconds_since(t0);
  return rec;
}

std::string layer_values(const SliceRecord& u, double traced_ratio,
                         const Inputs& in,
                         const std::vector<double>& ping_us) {
  SpannerBuildStats sum;
  std::size_t picked = 0;
  std::uint64_t arena = 0;
  double csr_bytes = 0;
  for (std::size_t i = 0; i < u.builds.size(); ++i) {
    const auto& st = u.builds[i].stats;
    sum.oracle_calls += st.oracle_calls;
    sum.search_sweeps += st.search_sweeps;
    sum.arcs_traversed += st.arcs_traversed;
    sum.tree_reuse_hits += st.tree_reuse_hits;
    sum.masked_reuse_hits += st.masked_reuse_hits;
    sum.repair_cost_arcs += st.repair_cost_arcs;
    sum.dedicated_masked_arcs += st.dedicated_masked_arcs;
    arena = std::max<std::uint64_t>(arena, st.arena_bytes);
    picked += u.builds[i].picked.size();
    csr_bytes += static_cast<double>(in.graphs[i].memory_bytes() +
                                     u.builds[i].spanner.memory_bytes());
  }
  std::uint64_t pairs = 0;
  for (const auto& r : u.reports) pairs += r.pairs_checked;
  const auto& rs = u.replay.stats;
  const double mib = 1024.0 * 1024.0;
  return JsonObject()
      .num("graph.bfs_ns_per_arc", u.micro.bfs_ns_per_arc)
      .num("graph.dijkstra_ns_per_arc", u.micro.dijkstra_ns_per_arc)
      .num("graph.csr_mb", csr_bytes / mib)
      .count("core.oracle_calls", sum.oracle_calls)
      .num("core.sweeps_per_decision",
           ratio(static_cast<double>(sum.search_sweeps),
                 static_cast<double>(sum.oracle_calls)))
      .num("core.accept_ratio", ratio(static_cast<double>(picked),
                                      static_cast<double>(sum.oracle_calls)))
      .count("core.arcs_traversed", sum.arcs_traversed)
      .num("core.build_ns_per_arc",
           ratio(u.build_s * 1e9, static_cast<double>(sum.arcs_traversed)))
      .count("core.tree_reuse_hits", sum.tree_reuse_hits)
      .count("core.masked_reuse_hits", sum.masked_reuse_hits)
      .count("core.repair_cost_arcs", sum.repair_cost_arcs)
      .count("core.dedicated_masked_arcs", sum.dedicated_masked_arcs)
      .num("core.arena_mb", static_cast<double>(arena) / mib)
      .num("fault.check_set_ms_p50", median(u.fault.set_ms))
      .num("fault.check_set_ms_max",
           *std::max_element(u.fault.set_ms.begin(), u.fault.set_ms.end()))
      .count("fault.pairs_checked", pairs)
      .num("fault.ns_per_pair",
           ratio(u.verify_s * 1e9, static_cast<double>(pairs)))
      .num("fault.h_edge_share", ratio(static_cast<double>(u.fault.h_pairs),
                                       static_cast<double>(u.fault.pairs)))
      .num("fault.g_side_us_p50", median(u.fault.g_us))
      .num("fault.h_side_us_p50", median(u.fault.h_us))
      .num("service.insert_us_p50", percentile(u.replay.insert_us, 0.50))
      .num("service.insert_us_p99", percentile(u.replay.insert_us, 0.99))
      .num("service.remove_us_p50", percentile(u.replay.remove_us, 0.50))
      .num("service.remove_us_p99", percentile(u.replay.remove_us, 0.99))
      .num("service.insert_accept_ratio",
           ratio(static_cast<double>(rs.spanner_inserts),
                 static_cast<double>(rs.inserts)))
      .count("service.repair_decisions", rs.repair_decisions)
      .count("service.repair_promotions", rs.repair_promotions)
      .num("service.repair_yield",
           ratio(static_cast<double>(rs.repair_promotions),
                 static_cast<double>(rs.repair_decisions)))
      .count("service.repair_ball_vertices", rs.repair_ball_vertices)
      .count("service.publishes", rs.publishes)
      .num("service.snapshot_distance_us_p50", median(u.replay.distance_us))
      .num("ftspand.ping_us_p50", median(ping_us))
      .num("ftspand.wire_overhead_us",
           mean(u.churn.request_us) - mean(u.replay.request_us))
      .num("obs.trace_overhead_pct", (traced_ratio - 1.0) * 100.0)
      .text();
}

std::string run_traced(const Spec& s, std::uint64_t seed,
                       const std::string& out_dir, Tally& tally,
                       JsonObject& checks, JsonObject& samples) {
  const SpannerParams params{.k = s.k, .f = s.f, .model = FaultModel::vertex};
  const Inputs in = make_inputs(s, seed, s.trace_instances);
  // A warm-up slice (which also carries the pings) fills caches and the
  // allocator first.  The traced slice then runs between two untraced ones,
  // and the trace overhead compares it with their mean, so a steady drift of
  // the host cancels.  Every slice gets a fresh daemon and replay engine,
  // built before any slice starts, so construction stays out of the timings
  // and the trace.
  constexpr std::size_t kSlices = 4;  // warm-up, untraced, traced, untraced
  std::vector<std::string> socks;
  std::vector<std::unique_ptr<Ftspand>> daemons;
  std::vector<std::unique_ptr<ChurnSpanner>> engines;
  for (std::size_t i = 0; i < kSlices; ++i) {
    socks.push_back(out_dir + "/ftspand-" + std::to_string(i) + ".sock");
    daemons.push_back(make_daemon(in.graphs[0], params, socks.back()));
    engines.push_back(std::make_unique<ChurnSpanner>(Graph(in.graphs[0]),
                                                     churn_config(params)));
  }
  const SliceRecord warm = run_slice(s, in, params, seed, *daemons[0],
                                     socks[0], *engines[0], tally, kPings);
  const std::vector<double>& ping_us = warm.churn.ping_us;
  const SliceRecord untraced = run_slice(s, in, params, seed, *daemons[1],
                                         socks[1], *engines[1], tally);
  obs::trace_start(obs::TraceOptions{std::size_t{1} << 20});
  obs::label_thread("perfbench", 0);
  const SliceRecord traced = run_slice(s, in, params, seed, *daemons[2],
                                       socks[2], *engines[2], tally);
  obs::trace_stop();
  obs::metrics_stop();  // trace_start turned counters on too
  const SliceRecord after = run_slice(s, in, params, seed, *daemons[3],
                                      socks[3], *engines[3], tally);
  std::cerr << "slices: untraced " << untraced.seconds << " s, traced "
            << traced.seconds << " s, untraced " << after.seconds << " s\n";

  // Every slice must compute exactly what the first untraced one did.
  for (const SliceRecord* other : {&warm, &traced, &after})
    tally.record(builds_digest(untraced.builds) ==
                         builds_digest(other->builds) &&
                     untraced.churn.final_spanner_m ==
                         other->churn.final_spanner_m &&
                     same_report(untraced.reports[0], other->reports[0]),
                 "slices (tracing on or off) computed different outputs");
  std::size_t edges = 0;
  for (const auto& b : untraced.builds) edges += b.spanner.m();
  checks.count("slice_spanner_edges", edges)
      .count("slice_churn_final_spanner_edges", untraced.churn.final_spanner_m)
      .count("slice_pairs_checked", untraced.reports[0].pairs_checked);

  if (!obs::write_chrome_trace(out_dir + "/trace.json"))
    throw std::runtime_error("cannot write " + out_dir + "/trace.json");
  std::ofstream metrics(out_dir + "/obs_metrics.json");
  obs::write_metrics_json(metrics);
  if (!metrics.flush())
    throw std::runtime_error("cannot write " + out_dir + "/obs_metrics.json");
  samples.count("slice_instances", untraced.builds.size())
      .count("slice_updates", untraced.churn.update_us.size())
      .count("slice_queries", untraced.churn.query_us.size())
      .count("check_sets", untraced.fault.set_ms.size())
      .count("pair_half_samples", untraced.fault.g_us.size())
      .count("pings", ping_us.size());
  const double untraced_s = 0.5 * (untraced.seconds + after.seconds);
  return layer_values(untraced, traced.seconds / untraced_s, in, ping_us);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    pin_to_one_cpu();
    const Cli cli(argc, argv);
    const std::string workload = cli.get("workload", "");
    const std::uint64_t seed = cli.get_uint("seed", 1);
    const double seconds = cli.get_double("seconds", 20.0);
    const bool trace = cli.get_uint("trace", 0) != 0;
    const std::string out_dir = cli.get("out-dir", ".");
#ifdef PERFBENCH_UNFIT_BUILD
    std::cerr << "error: ftspan_perfbench was built without NDEBUG or with a "
                 "sanitizer; its timings would not be comparable.  Configure "
                 "with -DCMAKE_BUILD_TYPE=Release.\n";
    return 3;
#endif
    const Spec* spec = nullptr;
    for (const auto& s : kSpecs)
      if (s.name == workload) spec = &s;
    if (spec == nullptr) {
      std::cerr << "error: unknown --workload '" << workload
                << "' (kron_build, geo_verify, gnp_churn)\n";
      return 2;
    }
    if (!(seconds > 0.0) || seconds > 600.0) {
      std::cerr << "error: --seconds must be in (0, 600]\n";
      return 2;
    }

    Tally tally;
    JsonObject checks, samples;
    const std::string metrics =
        trace ? run_traced(*spec, seed, out_dir, tally, checks, samples)
              : run_end_to_end(*spec, seed, seconds, out_dir, tally, checks,
                               samples);
    JsonObject reasons;
    for (std::size_t i = 0; i < tally.reasons.size(); ++i)
      reasons.str(std::to_string(i), tally.reasons[i]);
    std::cout << JsonObject()
                     .boolean("correct", tally.failed == 0)
                     .count("attempted", tally.attempted)
                     .count("failed", tally.failed)
                     .raw("metrics", metrics)
                     .raw("checks", checks.text())
                     .raw("samples", samples.text())
                     .raw("failures", reasons.text())
                     .raw("provenance",
                          provenance(*spec, seed, seconds, trace))
                     .text()
              << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
