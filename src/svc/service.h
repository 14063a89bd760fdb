/// \file service.h
/// \brief SolveService: a hardened solver-as-a-service front end that
///        multiplexes concurrent MaxSAT jobs over a fixed worker pool.
///
/// ## Architecture
///
/// ```
///   submit()  ──►  priority queue  ──►  worker 0 ┐
///   cancel()        (mutex-guarded)     worker 1 ├─►  makeSolver(engine)
///   poll()                              ...      ┘    one engine per job
///   await()   ◄──  done_cv_  ◄──  outcomes            │
///                                                     │ cooperative
///                  watchdog thread ───────────────────┘ Budget polls
/// ```
///
/// One `SolveService` owns `workers` threads, each running an ordinary
/// in-process MaxSAT engine (harness/factory.h) — no processes, no
/// signals. All robustness is *cooperative* and flows through the
/// existing Budget machinery:
///
///  * **Per-job limits** (`JobLimits`) are translated into a Budget
///    (deadline / conflict cap / memory cap) plus two shared slots the
///    Budget carries by pointer: the job's interrupt flag and its
///    abort-reason sink. Budget copies made inside the engine all share
///    those pointers (see budget.h's copy-semantics note), so one
///    signal reaches every oracle of the job.
///  * **Watchdog**: a single service thread scans running jobs every
///    `watchdog_period_s` and, when a job overstays its deadline (its
///    own, or the service-wide `default_max_job_seconds`), records
///    AbortReason::kDeadline and raises the interrupt flag. Because
///    Budget::timeExpired() folds the interrupt into every wall-clock
///    poll, the stuck worker unwinds at its next poll site — the
///    watchdog needs no thread cancellation and cannot corrupt state.
///  * **Graceful degradation**: a job that aborts still reports the
///    best incumbent bounds/model its engine had (MaxSatResult carries
///    them on Unknown by contract). When the queue is full, submit()
///    sheds load synchronously with SubmitStatus::kOverloaded instead
///    of buffering without bound.
///  * **Determinism**: a 1-worker service with no limits produces
///    bit-for-bit the result of calling the engine directly — the only
///    thing the service adds to the engine's options is an interrupt
///    flag that is never raised and a sink that is never written.
///
/// Fault injection (sat/fault.h) threads through JobLimits::fault into
/// the job's solver, so the stress suite (tests/service_test.cpp) can
/// deterministically force budget expiry, allocation failure, or a
/// spurious Unknown inside any chosen job.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cnf/wcnf.h"
#include "core/maxsat.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "svc/job.h"

namespace msu {

/// Configuration of a SolveService.
struct SolveServiceOptions {
  /// Worker threads (each runs one job at a time).
  int workers = 1;

  /// Maximum number of *queued* (not yet running) jobs before submit()
  /// sheds load with kOverloaded.
  std::size_t max_queue_depth = 64;

  /// Service-wide memory ceiling in bytes. When set, submit() estimates
  /// the incoming formula's footprint (WcnfFormula::memBytesEstimate)
  /// and sheds with kOverloaded whenever the aggregate — running jobs'
  /// live solver accounting (at least their formula estimate), queued
  /// jobs' formula estimates, and the incoming job — would exceed the
  /// ceiling. Complements per-job JobLimits::max_memory_bytes: that cap
  /// aborts one oversized job with AbortReason::kMemory, this one
  /// refuses admission so the fleet never overcommits. Unset = no cap.
  std::optional<std::int64_t> max_service_mem_bytes;

  /// Engine name for every job (harness/factory.h names, e.g.
  /// "msu4-v2", "oll", "linear"). One engine instance is built per job.
  /// An unknown name makes the SolveService constructor throw
  /// std::invalid_argument before any thread starts.
  std::string engine = "msu4-v2";

  /// Base options handed to every engine. The budget inside is ignored
  /// — per-job limits come from JobLimits — and so is sat.fault.
  MaxSatOptions base;

  /// Watchdog scan period in seconds.
  double watchdog_period_s = 0.010;

  /// Service-wide ceiling on a single job's running time; enforced by
  /// the watchdog even for jobs submitted without a wall_seconds limit.
  /// Unset = no ceiling.
  std::optional<double> default_max_job_seconds;

  /// Optional execution tracer (non-owning; must outlive the service).
  /// When set, every job's solvers emit their spans into it and the
  /// service adds the job lifecycle: a "submit" instant, a "queue"
  /// span (submit→start), and a "run" span (start→finish), all keyed
  /// by job id. Null = no tracing.
  obs::Tracer* trace = nullptr;

  /// Optional metrics registry (non-owning; must outlive the service).
  /// When set, the service registers and maintains job counters
  /// (submitted/shed/completed/cancelled), queue-depth and running
  /// gauges, queue/solve latency histograms, the service-wide
  /// `msu_svc_mem_bytes` gauge aggregated across running jobs (the
  /// shedding input when max_service_mem_bytes is set), the process
  /// `msu_svc_peak_rss_bytes` high-water gauge, the
  /// per-oracle-call latency histogram, and mirrors
  /// every completed job's SolverStats into `msu_solver_*_total`
  /// counters (harness/tables exportStatsToMetrics). Null = no metrics.
  obs::MetricsRegistry* metrics = nullptr;
};

/// See the file comment. All public members are thread-safe; the
/// service joins its threads on destruction (cancelling whatever is
/// still queued or running).
class SolveService {
 public:
  /// Outcome of a submit() call.
  enum class SubmitStatus {
    kAccepted,    ///< queued; `id` is valid
    kOverloaded,  ///< queue full — load shed, job NOT accepted
    kShutdown,    ///< service is shutting down
    kBadEngine,   ///< JobLimits::engine is not a known engine name
  };

  struct Submission {
    SubmitStatus status = SubmitStatus::kShutdown;
    JobId id = kJobIdUndef;
  };

  /// Monotone counters for tests and the bench harness.
  struct Counters {
    std::int64_t submitted = 0;  ///< accepted jobs
    std::int64_t shed = 0;       ///< kOverloaded rejections
    std::int64_t completed = 0;  ///< jobs that ran to an outcome
    std::int64_t cancelled_queued = 0;  ///< cancelled before running
  };

  /// Starts the workers and the watchdog. Throws std::invalid_argument
  /// when `opts.engine` is not a known engine name.
  explicit SolveService(SolveServiceOptions opts);
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Submits a job. Sheds load (kOverloaded) when the queue is full.
  [[nodiscard]] Submission submit(WcnfFormula formula, JobLimits limits = {});

  /// Non-blocking status snapshot; nullopt for unknown ids.
  [[nodiscard]] std::optional<JobStatus> poll(JobId id) const;

  /// Cancels a job. Queued jobs are removed immediately (state
  /// kCancelled, they never run); running jobs get kCancelled recorded
  /// and their interrupt flag raised — the worker unwinds at the next
  /// budget poll and the job completes with abort == kCancelled.
  /// Returns false for unknown or already-finished jobs.
  bool cancel(JobId id);

  /// Blocks until the job reaches kDone or kCancelled and returns its
  /// outcome. Unknown ids return a default outcome with abort kFault.
  [[nodiscard]] JobOutcome await(JobId id);

  /// Jobs currently waiting for a worker.
  [[nodiscard]] std::size_t queueDepth() const;

  /// Lifetime counters (consistent snapshot).
  [[nodiscard]] Counters counters() const;

  /// Stops accepting work, cancels queued jobs, interrupts running
  /// ones, and joins all threads. Idempotent; also run by ~SolveService.
  void shutdown();

 private:
  struct Job;

  /// Cached metric handles (registry lookups take a mutex; the handles
  /// themselves are stable forever). Present iff opts_.metrics is set.
  struct ServiceMetrics {
    obs::Counter* submitted;
    obs::Counter* shed;
    obs::Counter* completed;
    obs::Counter* cancelled_queued;
    obs::Gauge* queue_depth;
    obs::Gauge* running;
    obs::Gauge* mem_bytes;
    obs::Gauge* peak_rss;
    obs::Histogram* queue_us;
    obs::Histogram* solve_us;
  };

  void workerLoop();
  void watchdogLoop();
  void runJob(const std::shared_ptr<Job>& job);

  /// Recomputes the service-wide memory gauge from the running jobs'
  /// progress sinks. Pre: lock held. No-op without a registry.
  void updateMemGauge();

  /// Pops the best queued job (priority desc, submission order asc).
  /// Pre: lock held, queue_ non-empty.
  std::shared_ptr<Job> popBest();

  SolveServiceOptions opts_;
  std::optional<ServiceMetrics> metrics_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;     ///< workers wait here
  std::condition_variable done_cv_;      ///< await() waits here
  std::condition_variable watchdog_cv_;  ///< watchdog period / shutdown

  bool stopping_ = false;
  JobId next_id_ = 1;
  std::uint64_t next_seq_ = 0;
  std::deque<std::shared_ptr<Job>> queue_;
  std::unordered_map<JobId, std::shared_ptr<Job>> jobs_;
  std::vector<std::shared_ptr<Job>> running_;
  Counters counters_;

  std::vector<std::thread> threads_;
  std::thread watchdog_;
};

}  // namespace msu
