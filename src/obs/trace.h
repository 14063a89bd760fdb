/// \file trace.h
/// \brief Lock-free per-thread ring-buffer tracer with a Chrome
///        trace_event JSON exporter.
///
/// The tracer answers the question the end-of-run SolverStats tallies
/// cannot: *when* did the time go? Every instrumented seam (oracle
/// solve() calls, core trimming, restart segments, portfolio workers,
/// service job lifecycle) emits spans or instants into a
/// fixed-capacity ring buffer owned by the emitting thread.
/// Exported files open directly in Perfetto (https://ui.perfetto.dev)
/// or chrome://tracing.
///
/// ## Concurrency model (single-writer rings)
///
/// Each thread registers once (cold path, mutex) and receives its own
/// ring buffer. All subsequent emission is wait-free: the owning thread
/// writes the event slot, then release-stores a monotonically
/// increasing head cursor. Nobody else ever writes the buffer, so there
/// are no CAS loops and no lost updates. Drop accounting is exact by
/// construction: a ring of capacity C with head H has dropped
/// max(0, H - C) events (the overwritten prefix).
///
/// The exporter acquire-loads every head and reads the surviving
/// suffix. Export is defined at *quiescence* only: all emitting threads
/// must have finished (joined, or provably past their last emit) before
/// exportChromeTrace() runs. This is the natural shape for every caller
/// in this tree (CLI after solve(), bench after the run, tests after
/// join) and it keeps the hot path free of reader/writer coordination.
///
/// ## Cost model
///
/// Disabled (`enabled() == false`, the default) the RAII guards cost
/// one pointer test; a null Tracer* costs the same. Callers therefore
/// thread a `Tracer*` (nullptr = off) through Options structs exactly
/// like the existing ProofTracer / FaultInjector observer pointers.
/// Enabled, an emit is one clock read plus one ring-slot store. The
/// measured numbers live in bench/README.md ("Decision record: tracer
/// overhead") and are gated in CI via bench/BENCH_ablation_trace.json.
///
/// Compile-time kill switch: building with -DMSU_OBS_NOOP turns the
/// emission API (TraceSpan, instant()) into empty inlines so the
/// instrumentation vanishes entirely; used to measure the disabled-path
/// overhead honestly (A/B of two builds, see bench/README.md).
///
/// All event names and arg names must be string literals (or otherwise
/// outlive the Tracer): the ring stores `const char*`, never copies.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace msu {
namespace obs {

/// Event category; becomes the "cat" field in the exported JSON so
/// Perfetto can filter (e.g. show only "worker" events).
enum class TraceCat : std::uint8_t {
  kOracle,   ///< SAT oracle solve() calls.
  kCore,     ///< Core extraction / trimming / minimization.
  kRestart,  ///< Restart segments inside one solve() call.
  kJob,      ///< Service job lifecycle (submit/queue/run/done).
  kWorker,   ///< Portfolio worker lifetimes.
};

/// Returns the stable string for a category ("oracle", "worker", ...).
const char* traceCatName(TraceCat cat);

/// One ring slot. `dur_us < 0` marks an instant event ("ph":"i"),
/// otherwise a complete span ("ph":"X"). At most one named integer
/// argument per event keeps the slot fixed-size and the write wait-free.
struct TraceEvent {
  const char* name = nullptr;      ///< Static string; never owned.
  const char* arg_name = nullptr;  ///< Optional; static string.
  std::int64_t ts_us = 0;          ///< Start, microseconds since epoch().
  std::int64_t dur_us = -1;        ///< Span duration; -1 = instant.
  std::int64_t arg = 0;
  std::uint32_t tid = 0;  ///< Registration-order thread id.
  TraceCat cat = TraceCat::kOracle;
};

class Tracer {
 public:
  struct Options {
    /// Ring capacity per emitting thread, in events. When a thread
    /// emits more, the oldest events are overwritten and counted as
    /// dropped. 1<<14 events ≈ 0.75 MiB per thread.
    std::size_t capacity_per_thread = std::size_t{1} << 14;
  };

  Tracer();
  explicit Tracer(Options opts);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Emission gate. Guards and instant() self-check it, so flipping
  /// this off makes every instrumented seam cost one load+branch.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void setEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Microseconds since this tracer's construction (steady clock).
  std::int64_t nowUs() const;

  /// Converts an externally captured steady_clock time point into this
  /// tracer's timebase (for layers like the service that already hold
  /// timestamps). Times before construction clamp to 0.
  std::int64_t timestampUs(std::chrono::steady_clock::time_point tp) const;

  /// Emits an instant event on the calling thread.
  void instant(TraceCat cat, const char* name, const char* argName = nullptr,
               std::int64_t arg = 0);

  /// Emits a complete span [startUs, endUs] on the calling thread.
  /// Usually called via TraceSpan, but layers that clock their own
  /// intervals (service queue time) call it directly.
  void span(TraceCat cat, const char* name, std::int64_t startUs,
            std::int64_t endUs, const char* argName = nullptr,
            std::int64_t arg = 0);

  /// Total events ever emitted (including later-overwritten ones).
  std::int64_t emitted() const;
  /// Events overwritten because a per-thread ring wrapped. Exact.
  std::int64_t dropped() const;
  /// Events currently held in the rings (= emitted() - dropped()).
  std::int64_t retained() const { return emitted() - dropped(); }
  /// Number of threads that have emitted at least one event.
  int threadsSeen() const;

  /// Writes the surviving events as Chrome trace_event JSON
  /// ({"traceEvents":[...]}), sorted by timestamp. Quiescence contract:
  /// see the file comment. Drop counts are recorded in the trace
  /// metadata so a truncated trace is self-describing.
  void exportChromeTrace(std::ostream& out) const;

  /// Convenience: export to a file. Returns false on I/O failure.
  bool exportChromeTrace(const std::string& path) const;

 private:
  struct ThreadBuffer {
    explicit ThreadBuffer(std::size_t cap) : events(cap) {}
    std::vector<TraceEvent> events;
    /// Events ever written by the owner thread. The owner release-stores
    /// after filling the slot; the exporter acquire-loads.
    std::atomic<std::uint64_t> head{0};
    std::thread::id owner;
    std::uint32_t tid = 0;
  };

  ThreadBuffer* buffer();
  ThreadBuffer* registerThread();
  void emit(const TraceEvent& e);

  const std::size_t capacity_;
  const std::uint64_t tracer_id_;  ///< Process-unique, for the TLS cache.
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> enabled_{false};

  mutable std::mutex mu_;  ///< Guards buffers_ growth (cold path only).
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

#ifndef MSU_OBS_NOOP

/// RAII span guard: clocks construction→destruction and emits one
/// complete event. With a null or disabled tracer the whole guard is a
/// pointer test. Typical use:
///
///   obs::TraceSpan span(opts_.trace, obs::TraceCat::kOracle, "solve");
///   ...
///   span.arg("conflicts", delta);   // optional, any time before scope end
class TraceSpan {
 public:
  TraceSpan(Tracer* t, TraceCat cat, const char* name)
      : t_(t != nullptr && t->enabled() ? t : nullptr),
        name_(name),
        cat_(cat) {
    if (t_ != nullptr) start_us_ = t_->nowUs();
  }
  ~TraceSpan() {
    if (t_ != nullptr)
      t_->span(cat_, name_, start_us_, t_->nowUs(), arg_name_, arg_);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches the event's single integer argument (last call wins).
  void arg(const char* name, std::int64_t value) {
    arg_name_ = name;
    arg_ = value;
  }

  /// True when the guard will emit (tracer present and enabled at
  /// construction) — lets callers skip arg computation when off.
  bool active() const { return t_ != nullptr; }

 private:
  Tracer* t_;
  const char* name_;
  const char* arg_name_ = nullptr;
  std::int64_t start_us_ = 0;
  std::int64_t arg_ = 0;
  TraceCat cat_;
};

/// Instant-emit helper that tolerates a null tracer (mirrors the guard).
inline void traceInstant(Tracer* t, TraceCat cat, const char* name,
                         const char* argName = nullptr, std::int64_t arg = 0) {
  if (t != nullptr && t->enabled()) t->instant(cat, name, argName, arg);
}

#else  // MSU_OBS_NOOP: compile the emission API away entirely.

class TraceSpan {
 public:
  TraceSpan(Tracer*, TraceCat, const char*) {}
  void arg(const char*, std::int64_t) {}
  bool active() const { return false; }
};

inline void traceInstant(Tracer*, TraceCat, const char*,
                         const char* = nullptr, std::int64_t = 0) {}

#endif  // MSU_OBS_NOOP

}  // namespace obs
}  // namespace msu
