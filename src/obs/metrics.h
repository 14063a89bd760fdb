/// \file metrics.h
/// \brief Central metrics registry: counters, gauges, and log2-bucketed
///        histograms with Prometheus-style text exposition.
///
/// Where the tracer (obs/trace.h) answers "when did the time go", the
/// registry answers "how much, in aggregate, right now" — the shape a
/// daemon scrapes. Registration (name → metric) is mutex-guarded and
/// cold; every emission path (Counter::add, Gauge::set,
/// Histogram::observe) is a handful of relaxed atomics and safe from
/// any thread.
///
/// Conventions, matching the Prometheus exposition format the
/// writeProm() snapshot emits:
///  * counters end in `_total`, monotonically increase;
///  * gauges are instantaneous values (queue depth, mem bytes);
///  * histograms use power-of-two bucket upper bounds (1, 2, 4, ...,
///    +Inf) — cheap to index (one bit-scan), wide dynamic range, and
///    units are whatever the caller observes (we use microseconds for
///    latencies; the metric name says which).
///
/// The registry hands out stable references: metrics are never removed,
/// so a `Counter&` captured once may be bumped forever without
/// re-locking. SolverStats integration lives in harness/tables
/// (exportStatsToMetrics) so this layer stays dependency-free.

#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace msu {
namespace obs {

/// Monotonic counter.
class Counter {
 public:
  void add(std::int64_t delta = 1) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Instantaneous value; set() overwrites, add() adjusts.
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed log2 histogram: bucket i holds observations v with
/// v <= 2^i (bucket 0 additionally catches v <= 1, including 0 and
/// clamped negatives); the last bucket is +Inf. observe() is lock-free.
class Histogram {
 public:
  /// Upper bounds 2^0 .. 2^(kBuckets-2), then +Inf: covers up to ~2.1e9
  /// (35 minutes in microseconds) with per-bucket resolution of 2x.
  static constexpr int kBuckets = 32;

  void observe(std::int64_t v) {
    buckets_[bucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v > 0 ? v : 0, std::memory_order_relaxed);
  }

  std::int64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::int64_t bucketCount(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Smallest bucket whose upper bound is >= v (clamped into range).
  static int bucketIndex(std::int64_t v);
  /// Upper bound of bucket i; -1 encodes +Inf (the last bucket).
  static std::int64_t bucketUpperBound(int i);

 private:
  std::atomic<std::int64_t> buckets_[kBuckets] = {};
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
};

/// Name-keyed registry. counter()/gauge()/histogram() find-or-create;
/// requesting an existing name with a different kind throws
/// std::logic_error (a naming bug, not a runtime condition).
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  Histogram& histogram(const std::string& name, const std::string& help = "");

  /// Prometheus text exposition snapshot (# HELP / # TYPE lines, then
  /// samples; histograms expand to _bucket{le=...}/_sum/_count).
  /// Metrics appear in name order; safe to call while emitters run
  /// (values are a relaxed snapshot, not a consistent cut).
  void writeProm(std::ostream& out) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& findOrCreate(const std::string& name, const std::string& help,
                      Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, Entry> metrics_;
};

/// Process-wide peak resident set size in bytes (getrusage ru_maxrss),
/// or 0 where the platform offers no equivalent. The OS-truth companion
/// to the solver's cooperative accounting (SolverStats::mem_bytes):
/// the cooperative gauge is what budgets enforce, this is what the
/// kernel actually charged — the memory-budget benches record both.
[[nodiscard]] std::int64_t peakRssBytes();

}  // namespace obs
}  // namespace msu
