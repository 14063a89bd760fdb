/// \file progress.h
/// \brief Live anytime-progress sink: the lock-free channel between a
///        running MaxSAT job and whoever polls it.
///
/// Core-guided search is anytime — lower bounds rise with each core,
/// upper bounds fall with each incumbent model — but until this layer
/// the bounds were only visible at the end (MaxSatResult) or via the
/// onBounds callback, which runs on the *solving* thread. A
/// ProgressSink is a handful of atomics an engine-side writer updates
/// and any observer thread (SolveService::poll(), a UI) reads without
/// coordination.
///
/// Writers: engines report bounds through MaxSatOptions::onBounds (the
/// service wraps the callback to feed the sink); OracleSession adds
/// conflict/solve-call/memory deltas after every oracle call. Multiple
/// concurrent writers per job are expected (portfolio workers),
/// so bound updates are monotone CAS folds — a stale worker can never
/// loosen a published bound, which is what makes the poll() contract
/// ("bounds only tighten") testable.

#pragma once

#include <atomic>
#include <cstdint>

namespace msu {
namespace obs {

struct ProgressSink {
  /// No upper bound published yet (no model found so far).
  static constexpr std::int64_t kNoUpper = -1;

  std::atomic<std::int64_t> lower_bound{0};
  std::atomic<std::int64_t> upper_bound{kNoUpper};
  std::atomic<std::int64_t> conflicts{0};
  std::atomic<std::int64_t> sat_calls{0};
  std::atomic<std::int64_t> mem_bytes{0};

  /// Folds a (lower, upper) report in monotonically: lower only rises,
  /// upper only falls. Safe against racing writers with stale views.
  void noteBounds(std::int64_t lower, std::int64_t upper) {
    std::int64_t cur = lower_bound.load(std::memory_order_relaxed);
    while (lower > cur && !lower_bound.compare_exchange_weak(
                              cur, lower, std::memory_order_relaxed)) {
    }
    cur = upper_bound.load(std::memory_order_relaxed);
    while ((cur == kNoUpper || upper < cur) &&
           !upper_bound.compare_exchange_weak(cur, upper,
                                              std::memory_order_relaxed)) {
    }
  }

  void addConflicts(std::int64_t d) {
    if (d > 0) conflicts.fetch_add(d, std::memory_order_relaxed);
  }
  void addSatCalls(std::int64_t d) {
    if (d > 0) sat_calls.fetch_add(d, std::memory_order_relaxed);
  }
  /// mem_bytes tracks the writer's current estimate (a gauge, not a
  /// sum): the session overwrites its own contribution via add() of the
  /// delta since its last report, so concurrent sessions of one job
  /// aggregate instead of clobbering each other.
  void addMemBytes(std::int64_t delta) {
    mem_bytes.fetch_add(delta, std::memory_order_relaxed);
  }
};

}  // namespace obs
}  // namespace msu
