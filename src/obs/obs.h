// ftobs: process-wide metrics + tracing with a zero-overhead-when-off
// contract.
//
// The library's hot loop issues Θ(m·f) oracle decisions; any always-on
// instrumentation with per-event cost would show up directly in the E4/E16
// floor gates.  This layer is therefore built around one invariant: when
// nothing was enabled, every instrumentation point is a single relaxed
// atomic load and a predicted-not-taken branch — no allocation, no stores,
// no locks, no syscalls.  CI asserts the contract twice over: the perf
// floor lanes run with the layer linked in and disabled, and the E16 bench's
// binary-local operator-new counter (alloc_calls) is gated so a disabled
// obs layer that allocated would trip the floor checker.
//
// Three pieces:
//
//  * Counters / gauges — named monotonic counters and high-water gauges.
//    Handles are registered once (usually at static init:
//    `static const obs::Counter c("tree.sessions");`) and resolve to a
//    fixed slot index.  Increments land in per-thread shards (plain relaxed
//    atomics the owning thread writes), merged across threads at snapshot
//    time, so concurrent workers never contend on a shared cache line.
//
//  * Spans — per-thread single-producer ring buffers of begin/end/instant
//    events with a category, a name, and up to two integer args.  The
//    recording thread is the only writer; rings are drop-oldest on wrap
//    (the kept window is the most recent events) with a per-thread drop
//    counter.  All category/name/arg-key strings MUST be string literals
//    (static storage): events store the pointers only.
//
//  * Exporters — Chrome trace-event JSON (loads in Perfetto and
//    chrome://tracing; per-thread tracks named via label_thread) and a flat
//    metrics JSON object for merging into bench schemas.  Exporters must run
//    at quiescence (no thread concurrently recording); the engines' fork-join
//    rounds give the caller that happens-before edge for free.
//
// Tracing and metrics NEVER feed back into algorithm state: enabling them
// cannot perturb picks, certificates, or sweep counts.  The differential
// suite pins this bit-identically at threads {1,2,8}.

#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace ftspan::obs {

namespace detail {

inline constexpr std::uint32_t kMetricsBit = 1u;
inline constexpr std::uint32_t kTraceBit = 2u;

/// The global enable word.  Relaxed loads on the hot path; transitions
/// happen at quiescence (start/stop are not meant to race the engines).
extern std::atomic<std::uint32_t> g_flags;

void counter_add(std::uint32_t slot, std::uint64_t delta) noexcept;
void gauge_max(std::uint32_t slot, std::uint64_t value) noexcept;
[[nodiscard]] std::uint32_t register_counter(const char* name);
[[nodiscard]] std::uint32_t register_gauge(const char* name);
void span_event(char phase, const char* cat, const char* name, const char* k0,
                std::uint64_t v0, const char* k1, std::uint64_t v1) noexcept;

}  // namespace detail

/// True when counter/gauge recording is enabled (one relaxed load).
[[nodiscard]] inline bool metrics_on() noexcept {
  return (detail::g_flags.load(std::memory_order_relaxed) &
          detail::kMetricsBit) != 0;
}

/// True when span recording is enabled (one relaxed load).
[[nodiscard]] inline bool tracing_on() noexcept {
  return (detail::g_flags.load(std::memory_order_relaxed) &
          detail::kTraceBit) != 0;
}

// ------------------------------------------------------------ counters

/// Handle to a named monotonic counter.  Construction registers the name
/// (idempotent: same name → same slot); add() is the hot-path entry.
/// `name` must be a string literal.
class Counter {
 public:
  explicit Counter(const char* name) : slot_(detail::register_counter(name)) {}
  void add(std::uint64_t delta = 1) const noexcept {
    if (!metrics_on()) return;
    detail::counter_add(slot_, delta);
  }

 private:
  std::uint32_t slot_;
};

/// Handle to a named high-water gauge: update(v) keeps the max ever seen.
class Gauge {
 public:
  explicit Gauge(const char* name) : slot_(detail::register_gauge(name)) {}
  void update(std::uint64_t value) const noexcept {
    if (!metrics_on()) return;
    detail::gauge_max(slot_, value);
  }

 private:
  std::uint32_t slot_;
};

// --------------------------------------------------------------- spans

/// Opens a duration span on the calling thread's track.  Every string must
/// be a literal; args are optional (pass nullptr keys to omit).
inline void span_begin(const char* cat, const char* name,
                       const char* k0 = nullptr, std::uint64_t v0 = 0,
                       const char* k1 = nullptr,
                       std::uint64_t v1 = 0) noexcept {
  if (!tracing_on()) return;
  detail::span_event('B', cat, name, k0, v0, k1, v1);
}

/// Closes the innermost open span.  End args are merged into the span by
/// the viewer — use them for values only known when the work is done
/// (wave sizes, commit counts).
inline void span_end(const char* k0 = nullptr, std::uint64_t v0 = 0,
                     const char* k1 = nullptr, std::uint64_t v1 = 0) noexcept {
  if (!tracing_on()) return;
  detail::span_event('E', nullptr, nullptr, k0, v0, k1, v1);
}

/// Zero-duration marker on the calling thread's track.
inline void instant(const char* cat, const char* name,
                    const char* k0 = nullptr, std::uint64_t v0 = 0,
                    const char* k1 = nullptr, std::uint64_t v1 = 0) noexcept {
  if (!tracing_on()) return;
  detail::span_event('i', cat, name, k0, v0, k1, v1);
}

/// RAII span.  The enable flag is sampled once at construction, so a span
/// whose scope races a trace_stop() still closes what it opened.
class ScopedSpan {
 public:
  ScopedSpan(const char* cat, const char* name, const char* k0 = nullptr,
             std::uint64_t v0 = 0, const char* k1 = nullptr,
             std::uint64_t v1 = 0) noexcept
      : on_(tracing_on()) {
    if (on_) detail::span_event('B', cat, name, k0, v0, k1, v1);
  }
  ~ScopedSpan() {
    if (on_) detail::span_event('E', nullptr, nullptr, ek0_, ev0_, ek1_, ev1_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches args to the closing event (values known only at scope exit).
  void end_args(const char* k0, std::uint64_t v0, const char* k1 = nullptr,
                std::uint64_t v1 = 0) noexcept {
    ek0_ = k0;
    ev0_ = v0;
    ek1_ = k1;
    ev1_ = v1;
  }

  /// True when this span is actually recording (sampled at construction).
  [[nodiscard]] bool active() const noexcept { return on_; }

 private:
  bool on_;
  const char* ek0_ = nullptr;
  std::uint64_t ev0_ = 0;
  const char* ek1_ = nullptr;
  std::uint64_t ev1_ = 0;
};

/// Names the calling thread's track, e.g. label_thread("worker", 3) →
/// "worker 3".  Allocation-free and callable whether or not anything is
/// enabled (the label is stashed in TLS and adopted when the thread records
/// its first event); `role` must be a string literal.
void label_thread(const char* role, unsigned index) noexcept;

// ------------------------------------------------------------ lifecycle

struct TraceOptions {
  /// Per-thread ring capacity in events, rounded up to a power of two.
  /// Threads adopt the capacity current when they record their FIRST event;
  /// existing rings are not resized.
  std::size_t ring_capacity = std::size_t{1} << 15;
};

/// Enables counter/gauge recording.
void metrics_start();
void metrics_stop();

/// Enables span recording (and, for convenience, metrics — a trace without
/// its counters is rarely what anyone wants).  The first call fixes the
/// trace epoch (t=0); later calls keep recording into the same rings.
void trace_start(TraceOptions options = {});
void trace_stop();

// ------------------------------------------------------------ exporters

/// Writes the Chrome trace-event JSON for everything currently recorded.
/// Must run at quiescence.  Per-thread event streams are fixed up so every
/// begin has a matching end (ends whose begin was dropped by ring wraparound
/// are skipped; begins left open are closed at the last timestamp), which
/// keeps Perfetto's importer happy on truncated rings.
void write_chrome_trace(std::ostream& os);

/// Convenience overload; returns false when the file could not be opened.
bool write_chrome_trace(const std::string& path);

/// Merged view of every registered counter/gauge (shards summed / maxed
/// across threads), in registration order.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::uint64_t>> gauges;
  /// Span events overwritten by ring wraparound, summed over threads.
  std::uint64_t dropped_events = 0;
};
[[nodiscard]] MetricsSnapshot metrics_snapshot();

/// Writes the snapshot as one flat JSON object {"name": value, ...} with a
/// trailing "obs.dropped_events" key — the shape benches merge into their
/// own schemas.
void write_metrics_json(std::ostream& os);

/// Total span events dropped to ring wraparound so far.
[[nodiscard]] std::uint64_t dropped_events();

/// Test hook: disables everything, zeroes all counters/gauges/rings, and
/// resets the trace epoch.  Must run at quiescence; per-thread state stays
/// allocated (worker threads keep their TLS pointers), only its contents
/// reset.
void reset_for_testing();

}  // namespace ftspan::obs
