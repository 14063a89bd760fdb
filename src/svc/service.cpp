/// \file service.cpp
/// \brief SolveService implementation. See service.h for the
///        architecture; the invariants worth knowing here:
///
///  * `mu_` guards every mutable field; workers drop it while solving.
///  * A Job's interrupt/abort slots are owned by the Job object, which
///    outlives the solve because the worker holds a shared_ptr — the
///    non-owning pointers handed to Budget are therefore always valid.
///  * External cancellers (cancel(), watchdog, shutdown) record the
///    abort reason BEFORE raising the interrupt flag, so the solver's
///    poll — which returns early on interruption without noting a
///    reason — always finds the authoritative cause already in place.

#include "svc/service.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "harness/factory.h"
#include "harness/tables.h"
#include "obs/progress.h"

namespace msu {

namespace {

using Clock = Budget::Clock;

double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

struct SolveService::Job {
  JobId id = kJobIdUndef;
  std::uint64_t seq = 0;
  WcnfFormula formula;
  JobLimits limits;

  /// Formula-storage estimate (bytes), computed at submit(); the
  /// admission-control floor for this job's memory while queued or
  /// running, and the solver's Options::external_mem_bytes charge.
  std::int64_t formula_mem = 0;

  JobState state = JobState::kQueued;
  std::atomic<bool> interrupt{false};
  std::atomic<int> abort{static_cast<int>(AbortReason::kNone)};

  /// Absolute running-time deadline the watchdog enforces (per-job
  /// wall_seconds and/or the service default, whichever is sooner).
  /// Set when the job starts running.
  std::optional<Clock::time_point> watchdog_deadline;

  Clock::time_point submit_time;
  Clock::time_point start_time;

  /// Live anytime progress: engines stream into it while the job runs,
  /// poll() reads it without the lock's help (all-atomic).
  obs::ProgressSink progress;

  JobOutcome outcome;  ///< valid once state is kDone / kCancelled

  [[nodiscard]] AbortReason abortReason() const {
    return static_cast<AbortReason>(abort.load(std::memory_order_relaxed));
  }

  /// Records `r` (first wins) and raises the interrupt flag — the
  /// external-canceller protocol (reason strictly before flag).
  void abortFromOutside(AbortReason r) {
    int expected = static_cast<int>(AbortReason::kNone);
    abort.compare_exchange_strong(expected, static_cast<int>(r),
                                  std::memory_order_relaxed);
    interrupt.store(true, std::memory_order_relaxed);
  }
};

SolveService::SolveService(SolveServiceOptions opts) : opts_(std::move(opts)) {
  // Fail fast on unknown engine names, before any thread starts:
  // building one engine up front is cheap (engines do no work until
  // solve()) and turns a service whose every job would fail into a
  // construction-time error.
  if (makeSolver(opts_.engine, MaxSatOptions{}) == nullptr) {
    throw std::invalid_argument("unknown engine '" + opts_.engine + "'");
  }
  if (opts_.workers < 1) opts_.workers = 1;
  if (opts_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *opts_.metrics;
    metrics_ = ServiceMetrics{
        &reg.counter("msu_svc_jobs_submitted_total", "Jobs accepted"),
        &reg.counter("msu_svc_jobs_shed_total", "Jobs shed (queue full)"),
        &reg.counter("msu_svc_jobs_completed_total", "Jobs run to outcome"),
        &reg.counter("msu_svc_jobs_cancelled_queued_total",
                     "Jobs cancelled before running"),
        &reg.gauge("msu_svc_queue_depth", "Jobs waiting for a worker"),
        &reg.gauge("msu_svc_running_jobs", "Jobs currently solving"),
        &reg.gauge("msu_svc_mem_bytes",
                   "Solver memory across running jobs (bytes)"),
        &reg.gauge("msu_svc_peak_rss_bytes",
                   "Process peak resident set size (bytes)"),
        &reg.histogram("msu_svc_job_queue_us", "Job queue latency"),
        &reg.histogram("msu_svc_job_solve_us", "Job solve latency"),
    };
  }
  threads_.reserve(static_cast<std::size_t>(opts_.workers));
  for (int i = 0; i < opts_.workers; ++i) {
    threads_.emplace_back([this] { workerLoop(); });
  }
  watchdog_ = std::thread([this] { watchdogLoop(); });
}

SolveService::~SolveService() { shutdown(); }

SolveService::Submission SolveService::submit(WcnfFormula formula,
                                              JobLimits limits) {
  // Per-job engine overrides are validated here, synchronously, so a
  // typo comes back as kBadEngine instead of a job that can never run.
  // (The probe build is cheap: engines do no work until solve().)
  if (limits.engine &&
      makeSolver(*limits.engine, MaxSatOptions{}) == nullptr) {
    return {SubmitStatus::kBadEngine, kJobIdUndef};
  }
  // Estimated before taking the lock: the walk over the clause vectors
  // is O(clauses) and must not serialize other submitters.
  const std::int64_t incomingMem = formula.memBytesEstimate();
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) return {SubmitStatus::kShutdown, kJobIdUndef};
  bool overloaded = queue_.size() >= opts_.max_queue_depth;
  if (!overloaded && opts_.max_service_mem_bytes) {
    // Admission control on aggregate memory: live accounting for
    // running jobs (floored at their formula estimate — the solver's
    // gauge lags until the load finishes), estimates for queued ones.
    std::int64_t aggregate = incomingMem;
    for (const std::shared_ptr<Job>& j : running_) {
      aggregate += std::max(
          j->progress.mem_bytes.load(std::memory_order_relaxed),
          j->formula_mem);
    }
    for (const std::shared_ptr<Job>& j : queue_) aggregate += j->formula_mem;
    overloaded = aggregate > *opts_.max_service_mem_bytes;
  }
  if (overloaded) {
    ++counters_.shed;
    if (metrics_) metrics_->shed->add(1);
    return {SubmitStatus::kOverloaded, kJobIdUndef};
  }
  auto job = std::make_shared<Job>();
  job->id = next_id_++;
  job->seq = next_seq_++;
  job->formula = std::move(formula);
  job->limits = limits;
  job->formula_mem = incomingMem;
  job->submit_time = Clock::now();
  jobs_.emplace(job->id, job);
  queue_.push_back(job);
  ++counters_.submitted;
  if (metrics_) {
    metrics_->submitted->add(1);
    metrics_->queue_depth->set(static_cast<std::int64_t>(queue_.size()));
  }
  obs::traceInstant(opts_.trace, obs::TraceCat::kJob, "job-submit", "job",
                    static_cast<std::int64_t>(job->id));
  queue_cv_.notify_one();
  return {SubmitStatus::kAccepted, job->id};
}

std::optional<JobStatus> SolveService::poll(JobId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  const Job& job = *it->second;
  JobStatus st;
  st.state = job.state;
  st.abort = job.abortReason();
  if (job.state == JobState::kDone) {
    // The final result is authoritative (and at least as tight as the
    // last sink report — engines publish en route, finish with the
    // best).
    const MaxSatResult& r = job.outcome.result;
    st.lowerBound = r.lowerBound;
    st.upperBound = r.upperBound;
    st.hasUpperBound = true;
    st.conflicts = r.satStats.conflicts;
    st.satCalls = r.satCalls;
    st.memBytes = r.satStats.mem_bytes;
  } else {
    const obs::ProgressSink& p = job.progress;
    st.lowerBound = p.lower_bound.load(std::memory_order_relaxed);
    const std::int64_t up = p.upper_bound.load(std::memory_order_relaxed);
    st.hasUpperBound = up != obs::ProgressSink::kNoUpper;
    if (st.hasUpperBound) st.upperBound = up;
    st.conflicts = p.conflicts.load(std::memory_order_relaxed);
    st.satCalls = p.sat_calls.load(std::memory_order_relaxed);
    st.memBytes = p.mem_bytes.load(std::memory_order_relaxed);
  }
  return st;
}

bool SolveService::cancel(JobId id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  const std::shared_ptr<Job>& job = it->second;
  switch (job->state) {
    case JobState::kQueued: {
      queue_.erase(std::find(queue_.begin(), queue_.end(), job));
      job->state = JobState::kCancelled;
      job->abortFromOutside(AbortReason::kCancelled);
      job->outcome.abort = AbortReason::kCancelled;
      job->outcome.queue_seconds =
          secondsBetween(job->submit_time, Clock::now());
      ++counters_.cancelled_queued;
      if (metrics_) {
        metrics_->cancelled_queued->add(1);
        metrics_->queue_depth->set(static_cast<std::int64_t>(queue_.size()));
      }
      obs::traceInstant(opts_.trace, obs::TraceCat::kJob, "job-cancel", "job",
                        static_cast<std::int64_t>(id));
      done_cv_.notify_all();
      return true;
    }
    case JobState::kRunning:
      job->abortFromOutside(AbortReason::kCancelled);
      obs::traceInstant(opts_.trace, obs::TraceCat::kJob, "job-cancel", "job",
                        static_cast<std::int64_t>(id));
      return true;
    case JobState::kDone:
    case JobState::kCancelled:
      return false;
  }
  return false;
}

JobOutcome SolveService::await(JobId id) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    JobOutcome unknown;
    unknown.abort = AbortReason::kFault;
    return unknown;
  }
  const std::shared_ptr<Job> job = it->second;
  done_cv_.wait(lock, [&job] {
    return job->state == JobState::kDone || job->state == JobState::kCancelled;
  });
  return job->outcome;
}

std::size_t SolveService::queueDepth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

SolveService::Counters SolveService::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

void SolveService::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && threads_.empty()) return;  // already shut down
    stopping_ = true;
    // Queued jobs never run; running jobs are interrupted and complete
    // with kCancelled through the normal worker path.
    for (const std::shared_ptr<Job>& job : queue_) {
      job->state = JobState::kCancelled;
      job->abortFromOutside(AbortReason::kCancelled);
      job->outcome.abort = AbortReason::kCancelled;
      job->outcome.queue_seconds =
          secondsBetween(job->submit_time, Clock::now());
      ++counters_.cancelled_queued;
    }
    queue_.clear();
    for (const std::shared_ptr<Job>& job : running_) {
      job->abortFromOutside(AbortReason::kCancelled);
    }
    queue_cv_.notify_all();
    watchdog_cv_.notify_all();
    done_cv_.notify_all();
  }
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  if (watchdog_.joinable()) watchdog_.join();
}

std::shared_ptr<SolveService::Job> SolveService::popBest() {
  auto best = queue_.begin();
  for (auto it = std::next(queue_.begin()); it != queue_.end(); ++it) {
    const bool higher =
        (*it)->limits.priority > (*best)->limits.priority ||
        ((*it)->limits.priority == (*best)->limits.priority &&
         (*it)->seq < (*best)->seq);
    if (higher) best = it;
  }
  std::shared_ptr<Job> job = *best;
  queue_.erase(best);
  return job;
}

void SolveService::workerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (stopping_) return;
    std::shared_ptr<Job> job = popBest();
    job->state = JobState::kRunning;
    job->start_time = Clock::now();
    if (metrics_) {
      metrics_->queue_depth->set(static_cast<std::int64_t>(queue_.size()));
    }
    if (opts_.trace != nullptr && opts_.trace->enabled()) {
      opts_.trace->span(obs::TraceCat::kJob, "job-queue",
                        opts_.trace->timestampUs(job->submit_time),
                        opts_.trace->timestampUs(job->start_time), "job",
                        static_cast<std::int64_t>(job->id));
    }
    if (job->limits.wall_seconds || opts_.default_max_job_seconds) {
      double limit = job->limits.wall_seconds
                         ? *job->limits.wall_seconds
                         : *opts_.default_max_job_seconds;
      if (job->limits.wall_seconds && opts_.default_max_job_seconds) {
        limit = std::min(limit, *opts_.default_max_job_seconds);
      }
      job->watchdog_deadline =
          job->start_time + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(limit));
    }
    running_.push_back(job);
    if (metrics_) {
      metrics_->running->set(static_cast<std::int64_t>(running_.size()));
    }

    lock.unlock();
    runJob(job);
    lock.lock();

    running_.erase(std::find(running_.begin(), running_.end(), job));
    job->outcome.abort = job->abortReason();
    job->outcome.queue_seconds =
        secondsBetween(job->submit_time, job->start_time);
    job->outcome.solve_seconds =
        secondsBetween(job->start_time, Clock::now());
    job->state = JobState::kDone;
    ++counters_.completed;
    if (opts_.trace != nullptr && opts_.trace->enabled()) {
      opts_.trace->span(obs::TraceCat::kJob, "job-run",
                        opts_.trace->timestampUs(job->start_time),
                        opts_.trace->nowUs(), "job",
                        static_cast<std::int64_t>(job->id));
    }
    if (metrics_) {
      metrics_->completed->add(1);
      metrics_->running->set(static_cast<std::int64_t>(running_.size()));
      metrics_->queue_us->observe(
          static_cast<std::int64_t>(job->outcome.queue_seconds * 1e6));
      metrics_->solve_us->observe(
          static_cast<std::int64_t>(job->outcome.solve_seconds * 1e6));
      updateMemGauge();
      // Mirror the job's final CDCL statistics into the registry's
      // msu_solver_* counters — the same numbers the harness tables
      // print, absorbed instead of duplicated.
      exportStatsToMetrics(*opts_.metrics, job->outcome.result.satStats);
    }
    done_cv_.notify_all();
  }
}

void SolveService::runJob(const std::shared_ptr<Job>& job) {
  // Translate JobLimits into the engine's cooperative Budget. The
  // interrupt flag and abort sink live in the Job (which we keep alive
  // by shared_ptr), so every Budget copy the engine makes stays wired
  // to this job.
  MaxSatOptions opts = opts_.base;
  opts.budget = Budget{};
  if (job->limits.wall_seconds) {
    opts.budget.setWallClock(*job->limits.wall_seconds);
  }
  if (job->limits.max_conflicts) {
    opts.budget.setMaxConflicts(*job->limits.max_conflicts);
  }
  if (job->limits.max_memory_bytes) {
    opts.budget.setMaxMemory(*job->limits.max_memory_bytes);
  }
  opts.budget.setInterrupt(&job->interrupt);
  opts.budget.setAbortSink(&job->abort);
  opts.sat.fault = job->limits.fault;
  // Charge the formula's own storage to the solver's cooperative
  // accounting, so a JobLimits::max_memory_bytes cap covers the whole
  // job footprint (parse product included), not just solver structures.
  opts.sat.external_mem_bytes = job->formula_mem;

  // Observability wiring — all observational, none of it steers the
  // search: the progress sink receives per-oracle-call deltas, the
  // onBounds wrapper feeds bound improvements into the sink (then
  // chains to any caller-installed callback), and the tracer/registry
  // fan through to the engine's solvers.
  opts.progress = &job->progress;
  obs::ProgressSink* const sink = &job->progress;
  auto chained = opts.onBounds;
  opts.onBounds = [sink, chained](Weight lower, Weight upper) {
    sink->noteBounds(lower, upper);
    if (chained) chained(lower, upper);
  };
  opts.sat.trace = opts_.trace;
  if (opts_.metrics != nullptr) opts.metrics = opts_.metrics;

  // A per-job engine override (validated at submit()) wins over the
  // service-wide default (validated at construction).
  const std::string& engineName =
      job->limits.engine ? *job->limits.engine : opts_.engine;
  std::unique_ptr<MaxSatSolver> engine = makeSolver(engineName, opts);
  assert(engine != nullptr);
  job->outcome.result = engine->solve(job->formula);
}

void SolveService::watchdogLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    watchdog_cv_.wait_for(
        lock, std::chrono::duration<double>(opts_.watchdog_period_s),
        [this] { return stopping_; });
    if (stopping_) return;
    const Clock::time_point now = Clock::now();
    for (const std::shared_ptr<Job>& job : running_) {
      if (job->watchdog_deadline && now >= *job->watchdog_deadline &&
          !job->interrupt.load(std::memory_order_relaxed)) {
        // Reason before flag, like every external canceller.
        job->abortFromOutside(AbortReason::kDeadline);
      }
    }
    // Piggy-back the service-wide memory gauge on the watchdog cadence:
    // it already scans running_ under the lock.
    updateMemGauge();
  }
}

void SolveService::updateMemGauge() {
  if (!metrics_) return;
  std::int64_t total = 0;
  for (const std::shared_ptr<Job>& job : running_) {
    total += std::max(job->progress.mem_bytes.load(std::memory_order_relaxed),
                      job->formula_mem);
  }
  metrics_->mem_bytes->set(total);
  metrics_->peak_rss->set(obs::peakRssBytes());
}

}  // namespace msu
