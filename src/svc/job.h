/// \file job.h
/// \brief Job-level types of the SolveService: per-job resource limits,
///        lifecycle states, and the structured outcome a client gets
///        back. The service itself lives in svc/service.h.

#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/maxsat.h"
#include "sat/budget.h"
#include "sat/fault.h"

namespace msu {

/// Opaque handle to a submitted job. Never reused within one service.
using JobId = std::uint64_t;

/// Sentinel returned by a rejected submit().
inline constexpr JobId kJobIdUndef = 0;

/// Per-job resource limits, the service-level generalization of the
/// solver's cooperative Budget. Every limit is optional; an empty
/// JobLimits runs the job unbounded (modulo the service-wide default
/// deadline, see SolveServiceOptions::default_max_job_seconds).
struct JobLimits {
  /// Wall-clock deadline in seconds, measured from the moment the job
  /// *starts running* (queue time does not count against it). Enforced
  /// twice: cooperatively by the solver's own budget polls, and by the
  /// service watchdog which fires the job's interrupt flag if the
  /// worker blows past the deadline anyway.
  std::optional<double> wall_seconds;

  /// Cumulative SAT-conflict cap across all oracle calls of the job.
  std::optional<std::int64_t> max_conflicts;

  /// Cooperative memory cap in bytes (solver arena + watch pools +
  /// learnt DB + per-variable state, see SolverStats::mem_bytes). The
  /// job aborts with AbortReason::kMemory instead of OOMing the
  /// process.
  std::optional<std::int64_t> max_memory_bytes;

  /// Scheduling priority: higher runs first; ties break FIFO by
  /// submission order.
  int priority = 0;

  /// Engine override for this job (harness/factory.h names); empty =
  /// the service-wide SolveServiceOptions::engine. Lets one service
  /// mix modes per request — e.g. "portfolio4" to race a
  /// latency-critical job across cores, the default sequential engine
  /// for everything else.
  /// Unknown names are rejected at submit() (kBadEngine).
  std::optional<std::string> engine;

  /// Optional fault injector wired into the job's solver (tests only).
  /// Non-owning; must outlive the job.
  FaultInjector* fault = nullptr;
};

/// Lifecycle of a job inside the service.
enum class JobState {
  kQueued,     ///< accepted, waiting for a worker
  kRunning,    ///< a worker is solving it
  kDone,       ///< finished (possibly aborted; see JobOutcome::abort)
  kCancelled,  ///< cancelled while still queued (never ran)
};

/// Short human-readable state name.
[[nodiscard]] constexpr const char* toString(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kCancelled: return "cancelled";
  }
  return "?";
}

/// Final outcome of a job. Degradation is graceful by construction:
/// an aborted MaxSAT job still carries the best incumbent bounds (and
/// model, when one was found) in `result` — `result.lowerBound` /
/// `result.upperBound` are always valid, exactly as for a direct
/// engine call that ran out of budget.
struct JobOutcome {
  MaxSatResult result;

  /// Structured cause when the job stopped early (kNone on a clean
  /// finish). First limit to trip wins; external cancellation and the
  /// watchdog record kCancelled/kDeadline respectively.
  AbortReason abort = AbortReason::kNone;

  /// Seconds spent waiting in the queue / solving.
  double queue_seconds = 0.0;
  double solve_seconds = 0.0;
};

/// Snapshot returned by SolveService::poll().
struct JobStatus {
  JobState state = JobState::kQueued;

  /// Abort reason recorded so far (may be set while still kRunning:
  /// e.g. the watchdog already fired but the solver has not unwound
  /// yet).
  AbortReason abort = AbortReason::kNone;

  /// Live anytime progress. For a kRunning job these are sampled from
  /// the job's ProgressSink (engines stream bound improvements and
  /// per-oracle-call deltas into it while solving); once kDone they
  /// come from the final MaxSatResult, which is at least as tight.
  /// Both bound sequences are monotone across repeated poll()s of one
  /// job — lower only rises, upper only falls — because the sink folds
  /// racing writers in monotonically (see obs/progress.h).
  Weight lowerBound = 0;
  /// Only meaningful when hasUpperBound (an incumbent model exists).
  Weight upperBound = 0;
  bool hasUpperBound = false;

  /// Work performed so far: CDCL conflicts, oracle solve() calls, and
  /// the current solver memory estimate, summed over every oracle
  /// session the job runs (portfolio engines have several).
  std::int64_t conflicts = 0;
  std::int64_t satCalls = 0;
  std::int64_t memBytes = 0;
};

}  // namespace msu
