/// Tests of the SolveService (src/svc): per-job limits translated into
/// cooperative budgets (deadline / conflict / memory caps with
/// structured AbortReasons), watchdog enforcement, cancellation of
/// queued and running jobs, priority scheduling, load shedding,
/// graceful degradation (incumbent bounds on aborted MaxSAT jobs),
/// 1-worker determinism against the direct engine call, the
/// fault-injection harness, Budget copy semantics, and a randomized
/// submit/cancel/fault stress suite validated against the exhaustive
/// oracle. Runs under ASan and TSan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cnf/oracle.h"
#include "gen/graphs.h"
#include "gen/pigeonhole.h"
#include "gen/random_cnf.h"
#include "harness/factory.h"
#include "obs/metrics.h"
#include "sat/budget.h"
#include "sat/fault.h"
#include "sat/solver.h"
#include "svc/service.h"

namespace msu {
namespace {

/// A hard-unsatisfiable WCNF whose refutation takes long enough that a
/// cancel/watchdog/limit reliably lands while it is still running.
WcnfFormula slowInstance() {
  const CnfFormula php = pigeonhole(9, 8);
  WcnfFormula w(php.numVars());
  for (const Clause& c : php.clauses()) w.addHard(c);
  w.addSoft({posLit(0)}, 1);
  return w;
}

/// An all-soft instance: every assignment is a model, so incumbent
/// upper bounds appear almost immediately, while the optimality proof
/// (near-threshold random MaxSAT) takes far longer than test deadlines.
WcnfFormula anytimeInstance() {
  return WcnfFormula::allSoft(randomUnsat3Sat(44, 5.6, 7));
}

/// Spin until \p id has been picked up by a worker. Needed wherever a
/// test reasons about queue depth behind a blocker job: submit() returns
/// before the worker dequeues, so "blocker occupies the worker" is only
/// true once its state leaves kQueued.
void waitUntilRunning(SolveService& service, JobId id) {
  while (true) {
    const auto status = service.poll(id);
    ASSERT_TRUE(status.has_value());
    if (status->state != JobState::kQueued) return;
    std::this_thread::yield();
  }
}

// ---------------------------------------------------------------------
// Budget semantics (the JobLimits substrate).

TEST(Budget, CopiesShareInterruptFlagAndAbortSink) {
  std::atomic<bool> stop{false};
  std::atomic<int> sink{static_cast<int>(AbortReason::kNone)};
  Budget original;
  original.setInterrupt(&stop);
  original.setAbortSink(&sink);

  const Budget copy = original;      // NOLINT: copy is the point
  Budget assigned;
  assigned = original;

  // One external stop signal reaches every copy.
  stop.store(true);
  EXPECT_TRUE(copy.interrupted());
  EXPECT_TRUE(assigned.timeExpired());

  // A reason noted through any copy lands in the shared sink; the
  // first reason wins against later ones.
  copy.noteAbort(AbortReason::kMemory);
  assigned.noteAbort(AbortReason::kDeadline);
  EXPECT_EQ(static_cast<AbortReason>(sink.load()), AbortReason::kMemory);
}

TEST(Budget, CopiesSnapshotTheDeadline) {
  Budget original = Budget::wallClock(3600.0);
  Budget copy = original;
  // Moving the original's deadline does not move the copy's.
  original.setWallClock(0.0);
  EXPECT_TRUE(original.timeExpired());
  EXPECT_FALSE(copy.timeExpired());
  ASSERT_TRUE(copy.remaining().has_value());
  EXPECT_GT(*copy.remaining(), 3000.0);
}

TEST(Budget, RemainingClampsAtZeroAndIsUnsetWithoutDeadline) {
  EXPECT_FALSE(Budget{}.remaining().has_value());
  const Budget expired = Budget::wallClock(-1.0);
  ASSERT_TRUE(expired.remaining().has_value());
  EXPECT_EQ(*expired.remaining(), 0.0);
}

TEST(Budget, TripsRecordStructuredReasons) {
  std::atomic<int> sink{static_cast<int>(AbortReason::kNone)};
  Budget b = Budget::conflicts(10);
  b.setAbortSink(&sink);
  EXPECT_FALSE(b.conflictsExhausted(9));
  EXPECT_TRUE(b.conflictsExhausted(10));
  EXPECT_EQ(static_cast<AbortReason>(sink.load()), AbortReason::kConflicts);

  std::atomic<int> memSink{static_cast<int>(AbortReason::kNone)};
  Budget m;
  m.setMaxMemory(1 << 20);
  m.setAbortSink(&memSink);
  EXPECT_TRUE(m.hasMemoryCap());
  EXPECT_FALSE(m.memoryExhausted(1 << 19));
  EXPECT_TRUE(m.memoryExhausted(1 << 20));
  EXPECT_EQ(static_cast<AbortReason>(memSink.load()), AbortReason::kMemory);
}

// ---------------------------------------------------------------------
// Service basics.

TEST(SolveService, SolvesASingleJobToTheOracleOptimum) {
  const WcnfFormula w =
      WcnfFormula::allSoft(randomUnsat3Sat(18, 5.0, 11));
  const OracleResult truth = oracleMaxSat(w);
  ASSERT_TRUE(truth.optimumCost.has_value());

  SolveService service(SolveServiceOptions{});
  const auto sub = service.submit(w);
  ASSERT_EQ(sub.status, SolveService::SubmitStatus::kAccepted);
  const JobOutcome out = service.await(sub.id);
  EXPECT_EQ(out.abort, AbortReason::kNone);
  ASSERT_EQ(out.result.status, MaxSatStatus::Optimum);
  EXPECT_EQ(out.result.cost, *truth.optimumCost);
  const auto modelCost = w.cost(out.result.model);
  ASSERT_TRUE(modelCost.has_value());
  EXPECT_EQ(*modelCost, out.result.cost);

  const auto status = service.poll(sub.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kDone);
  EXPECT_FALSE(service.poll(sub.id + 999).has_value());
}

TEST(SolveService, OneWorkerNoLimitsIsBitForBitTheDirectEngineCall) {
  const WcnfFormula w =
      WcnfFormula::allSoft(randomUnsat3Sat(26, 5.2, 421));

  auto direct = makeSolver("msu4-v2", MaxSatOptions{});
  const MaxSatResult expect = direct->solve(w);
  ASSERT_EQ(expect.status, MaxSatStatus::Optimum);

  SolveServiceOptions so;
  so.workers = 1;
  so.engine = "msu4-v2";
  SolveService service(so);
  const auto sub = service.submit(w);
  ASSERT_EQ(sub.status, SolveService::SubmitStatus::kAccepted);
  const JobOutcome out = service.await(sub.id);

  ASSERT_EQ(out.result.status, MaxSatStatus::Optimum);
  EXPECT_EQ(out.result.cost, expect.cost);
  EXPECT_EQ(out.result.model, expect.model);
  EXPECT_EQ(out.result.iterations, expect.iterations);
  EXPECT_EQ(out.result.satCalls, expect.satCalls);
  EXPECT_EQ(out.result.satStats.conflicts, expect.satStats.conflicts);
  EXPECT_EQ(out.result.satStats.decisions, expect.satStats.decisions);
  EXPECT_EQ(out.result.satStats.propagations, expect.satStats.propagations);
  EXPECT_EQ(out.abort, AbortReason::kNone);
}

TEST(SolveService, RejectsSubmitAfterShutdown) {
  SolveService service(SolveServiceOptions{});
  service.shutdown();
  const auto sub = service.submit(WcnfFormula(1));
  EXPECT_EQ(sub.status, SolveService::SubmitStatus::kShutdown);
  EXPECT_EQ(sub.id, kJobIdUndef);
}

TEST(SolveService, PerJobEngineOverrideReachesTheDefaultEnginesOptimum) {
  const WcnfFormula w =
      WcnfFormula::allSoft(randomUnsat3Sat(18, 5.0, 11));
  const OracleResult truth = oracleMaxSat(w);
  ASSERT_TRUE(truth.optimumCost.has_value());

  SolveService service(SolveServiceOptions{});  // default engine: msu4-v2
  JobLimits viaOll;
  viaOll.engine = "oll";
  const auto byDefault = service.submit(w);
  const auto byOverride = service.submit(w, viaOll);
  ASSERT_EQ(byDefault.status, SolveService::SubmitStatus::kAccepted);
  ASSERT_EQ(byOverride.status, SolveService::SubmitStatus::kAccepted);
  const JobOutcome a = service.await(byDefault.id);
  const JobOutcome b = service.await(byOverride.id);
  ASSERT_EQ(a.result.status, MaxSatStatus::Optimum);
  ASSERT_EQ(b.result.status, MaxSatStatus::Optimum);
  EXPECT_EQ(a.result.cost, *truth.optimumCost);
  EXPECT_EQ(b.result.cost, a.result.cost);
  const auto modelCost = w.cost(b.result.model);
  ASSERT_TRUE(modelCost.has_value());
  EXPECT_EQ(*modelCost, b.result.cost);
}

TEST(SolveService, RejectsUnknownPerJobEnginesAtSubmit) {
  SolveService service(SolveServiceOptions{});
  // A deleted engine's name and a typo.
  for (const char* name : {"cubes4", "msu4-v22"}) {
    JobLimits limits;
    limits.engine = name;
    const auto sub = service.submit(WcnfFormula::allSoft(
                                        randomUnsat3Sat(10, 5.0, 3)),
                                    limits);
    EXPECT_EQ(sub.status, SolveService::SubmitStatus::kBadEngine) << name;
    EXPECT_EQ(sub.id, kJobIdUndef) << name;
  }
  EXPECT_EQ(service.counters().submitted, 0);
}

TEST(SolveService, UnknownServiceEngineThrowsAtConstruction) {
  SolveServiceOptions so;
  so.engine = "no-such-engine";
  try {
    SolveService service(so);
    FAIL() << "constructed a service with an unknown engine";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("no-such-engine"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------
// Scheduling, cancellation, load shedding.

TEST(SolveService, PriorityOrdersQueuedJobsTiesFifo) {
  SolveServiceOptions so;
  so.workers = 1;
  SolveService service(so);

  // Occupy the single worker so the next submissions stack up queued.
  const auto blocker = service.submit(slowInstance());
  ASSERT_EQ(blocker.status, SolveService::SubmitStatus::kAccepted);
  waitUntilRunning(service, blocker.id);

  const WcnfFormula small =
      WcnfFormula::allSoft(randomUnsat3Sat(14, 5.0, 5));
  JobLimits low, mid, high;
  low.priority = 0;
  mid.priority = 0;   // same as `low`: FIFO between them
  high.priority = 5;
  const auto a = service.submit(small, low);
  const auto b = service.submit(small, mid);
  const auto c = service.submit(small, high);
  ASSERT_EQ(service.queueDepth(), 3u);

  ASSERT_TRUE(service.cancel(blocker.id));
  const JobOutcome outA = service.await(a.id);
  const JobOutcome outB = service.await(b.id);
  const JobOutcome outC = service.await(c.id);

  // One worker, so queue wait times expose the service order: the
  // high-priority job ran first, then the two equal-priority jobs in
  // submission order.
  EXPECT_LT(outC.queue_seconds, outA.queue_seconds);
  EXPECT_LT(outA.queue_seconds, outB.queue_seconds);
  EXPECT_EQ(outA.result.status, MaxSatStatus::Optimum);
  EXPECT_EQ(outB.result.status, MaxSatStatus::Optimum);
  EXPECT_EQ(outC.result.status, MaxSatStatus::Optimum);
}

TEST(SolveService, CancelsAQueuedJobWithoutRunningIt) {
  SolveServiceOptions so;
  so.workers = 1;
  SolveService service(so);
  const auto blocker = service.submit(slowInstance());
  const auto queued = service.submit(
      WcnfFormula::allSoft(randomUnsat3Sat(14, 5.0, 5)));
  ASSERT_EQ(queued.status, SolveService::SubmitStatus::kAccepted);

  EXPECT_TRUE(service.cancel(queued.id));
  const auto status = service.poll(queued.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kCancelled);
  const JobOutcome out = service.await(queued.id);
  EXPECT_EQ(out.abort, AbortReason::kCancelled);
  EXPECT_EQ(out.result.status, MaxSatStatus::Unknown);
  EXPECT_EQ(out.solve_seconds, 0.0);  // never ran
  // Cancelling twice is a no-op.
  EXPECT_FALSE(service.cancel(queued.id));
  EXPECT_EQ(service.counters().cancelled_queued, 1);

  EXPECT_TRUE(service.cancel(blocker.id));
}

TEST(SolveService, CancelsARunningJobViaItsInterruptFlag) {
  SolveServiceOptions so;
  so.workers = 1;
  SolveService service(so);
  const auto sub = service.submit(slowInstance());
  ASSERT_EQ(sub.status, SolveService::SubmitStatus::kAccepted);

  // Wait for the job to actually start, then cancel it mid-solve.
  while (service.poll(sub.id)->state == JobState::kQueued) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(service.cancel(sub.id));
  const JobOutcome out = service.await(sub.id);
  EXPECT_EQ(out.abort, AbortReason::kCancelled);
  EXPECT_EQ(out.result.status, MaxSatStatus::Unknown);

  // The service stays usable after a cancellation.
  const WcnfFormula w =
      WcnfFormula::allSoft(randomUnsat3Sat(16, 5.0, 3));
  const auto next = service.submit(w);
  const JobOutcome out2 = service.await(next.id);
  EXPECT_EQ(out2.result.status, MaxSatStatus::Optimum);
}

TEST(SolveService, ShedsLoadWhenTheQueueIsFull) {
  SolveServiceOptions so;
  so.workers = 1;
  so.max_queue_depth = 2;
  SolveService service(so);
  const auto blocker = service.submit(slowInstance());
  ASSERT_EQ(blocker.status, SolveService::SubmitStatus::kAccepted);
  waitUntilRunning(service, blocker.id);

  const WcnfFormula small =
      WcnfFormula::allSoft(randomUnsat3Sat(12, 5.0, 1));
  const auto q1 = service.submit(small);
  const auto q2 = service.submit(small);
  ASSERT_EQ(q1.status, SolveService::SubmitStatus::kAccepted);
  ASSERT_EQ(q2.status, SolveService::SubmitStatus::kAccepted);

  const auto shed = service.submit(small);
  EXPECT_EQ(shed.status, SolveService::SubmitStatus::kOverloaded);
  EXPECT_EQ(shed.id, kJobIdUndef);
  EXPECT_EQ(service.counters().shed, 1);

  ASSERT_TRUE(service.cancel(blocker.id));
  EXPECT_EQ(service.await(q1.id).result.status, MaxSatStatus::Optimum);
  EXPECT_EQ(service.await(q2.id).result.status, MaxSatStatus::Optimum);
}

TEST(SolveService, ShedsLoadWhenTheMemoryCeilingWouldBeExceeded) {
  const WcnfFormula blockerFormula = slowInstance();
  const WcnfFormula small = WcnfFormula::allSoft(randomUnsat3Sat(12, 5.0, 1));

  // memBytesEstimate counts vector *capacities*, and submit() estimates
  // the copy it receives (capacity == size) — so size the ceiling from
  // copies too, or the locally-built formulas' growth slack inflates it.
  const std::int64_t blockerEst = WcnfFormula(blockerFormula).memBytesEstimate();
  const std::int64_t smallEst = WcnfFormula(small).memBytesEstimate();
  SolveServiceOptions so;
  so.workers = 1;
  // Room for the blocker plus half the small job: admission control
  // must refuse the small job while the blocker holds its share.
  so.max_service_mem_bytes = blockerEst + smallEst / 2;
  SolveService service(so);

  const auto blocker = service.submit(blockerFormula);
  ASSERT_EQ(blocker.status, SolveService::SubmitStatus::kAccepted);
  waitUntilRunning(service, blocker.id);

  const auto shed = service.submit(small);
  EXPECT_EQ(shed.status, SolveService::SubmitStatus::kOverloaded);
  EXPECT_EQ(shed.id, kJobIdUndef);
  EXPECT_EQ(service.counters().shed, 1);

  // Releasing the blocker frees its share; the small job now fits.
  ASSERT_TRUE(service.cancel(blocker.id));
  static_cast<void>(service.await(blocker.id));
  while (true) {  // finished-job bookkeeping races submit by one beat
    const auto retry = service.submit(small);
    if (retry.status == SolveService::SubmitStatus::kAccepted) {
      EXPECT_EQ(service.await(retry.id).result.status, MaxSatStatus::Optimum);
      break;
    }
    ASSERT_EQ(retry.status, SolveService::SubmitStatus::kOverloaded);
    std::this_thread::yield();
  }
}

// ---------------------------------------------------------------------
// Per-job limits and graceful degradation.

TEST(SolveService, DeadlineAbortStillReportsTheIncumbentBound) {
  SolveServiceOptions so;
  so.engine = "linear";  // model-improving: incumbents appear early
  SolveService service(so);
  const WcnfFormula w = anytimeInstance();
  JobLimits limits;
  limits.wall_seconds = 0.1;
  const auto sub = service.submit(w, limits);
  ASSERT_EQ(sub.status, SolveService::SubmitStatus::kAccepted);
  const JobOutcome out = service.await(sub.id);

  ASSERT_EQ(out.result.status, MaxSatStatus::Unknown);
  EXPECT_EQ(out.abort, AbortReason::kDeadline);
  // Graceful degradation: the best model found before the deadline is
  // surfaced with its cost as the upper bound.
  EXPECT_FALSE(out.result.model.empty());
  const auto cost = w.cost(out.result.model);
  ASSERT_TRUE(cost.has_value());
  EXPECT_EQ(*cost, out.result.upperBound);
  EXPECT_LE(out.result.lowerBound, out.result.upperBound);
  EXPECT_LE(out.result.upperBound, static_cast<Weight>(w.numSoft()));
}

TEST(SolveService, DeadlinePastTheClockLetsTheJobFinish) {
  // 1e10 s overflows the clock's integer ticks. Neither the job's
  // budget nor the watchdog may read it as a deadline already passed.
  SolveService service(SolveServiceOptions{});
  WcnfFormula w(2);
  w.addHard({posLit(0), posLit(1)});
  w.addSoft({negLit(0)}, 1);
  w.addSoft({negLit(1)}, 2);
  JobLimits limits;
  limits.wall_seconds = 1e10;
  const auto sub = service.submit(w, limits);
  ASSERT_EQ(sub.status, SolveService::SubmitStatus::kAccepted);
  const JobOutcome out = service.await(sub.id);
  ASSERT_EQ(out.result.status, MaxSatStatus::Optimum);
  EXPECT_EQ(out.result.cost, 1);
  EXPECT_EQ(out.abort, AbortReason::kNone);
}

TEST(SolveService, WatchdogEnforcesTheServiceWideDeadline) {
  SolveServiceOptions so;
  so.default_max_job_seconds = 0.05;
  so.watchdog_period_s = 0.005;
  SolveService service(so);
  // No per-job wall limit: the job's own Budget carries no deadline, so
  // only the watchdog's interrupt can stop it.
  const auto sub = service.submit(slowInstance());
  ASSERT_EQ(sub.status, SolveService::SubmitStatus::kAccepted);
  const JobOutcome out = service.await(sub.id);
  EXPECT_EQ(out.result.status, MaxSatStatus::Unknown);
  EXPECT_EQ(out.abort, AbortReason::kDeadline);
  EXPECT_LT(out.solve_seconds, 30.0);  // stopped far before a refutation
}

TEST(SolveService, MemoryCapAbortsWithBoundedFootprint) {
  constexpr std::int64_t kCap = 1 << 20;  // 1 MiB
  SolveService service(SolveServiceOptions{});
  JobLimits limits;
  limits.max_memory_bytes = kCap;
  const auto sub = service.submit(slowInstance(), limits);
  ASSERT_EQ(sub.status, SolveService::SubmitStatus::kAccepted);
  const JobOutcome out = service.await(sub.id);

  ASSERT_EQ(out.result.status, MaxSatStatus::Unknown);
  EXPECT_EQ(out.abort, AbortReason::kMemory);
  // The gauge that tripped the cap is surfaced, and the footprint stayed
  // bounded: growth past the cap is limited to one poll period.
  EXPECT_GE(out.result.satStats.mem_bytes, kCap);
  EXPECT_LT(out.result.satStats.mem_bytes, 8 * kCap);
}

TEST(SolveService, ConflictCapAbortsWithStructuredReason) {
  SolveService service(SolveServiceOptions{});
  JobLimits limits;
  limits.max_conflicts = 50;
  const auto sub = service.submit(slowInstance(), limits);
  const JobOutcome out = service.await(sub.id);
  ASSERT_EQ(out.result.status, MaxSatStatus::Unknown);
  EXPECT_EQ(out.abort, AbortReason::kConflicts);
  // The cap is loose (per poll granularity) but must actually bind.
  EXPECT_LE(out.result.satStats.conflicts, 50 + 512);
}

// ---------------------------------------------------------------------
// Live progress: poll() streams the running job's ProgressSink.

TEST(SolveService, PollStreamsMonotonicallyTighteningBounds) {
  SolveServiceOptions so;
  so.engine = "linear";  // model-improving: incumbents appear early
  SolveService service(so);
  const WcnfFormula w = anytimeInstance();
  JobLimits limits;
  limits.wall_seconds = 0.4;
  const auto sub = service.submit(w, limits);
  ASSERT_EQ(sub.status, SolveService::SubmitStatus::kAccepted);

  // Sample the live status until the job finishes. The poll() contract:
  // bounds only tighten (lower rises, upper falls), work counters only
  // grow, and an upper bound never un-publishes.
  Weight lastLower = 0;
  Weight lastUpper = 0;
  bool sawUpper = false;
  bool sawRunningUpper = false;
  std::int64_t lastConflicts = 0;
  std::int64_t lastCalls = 0;
  while (true) {
    const auto st = service.poll(sub.id);
    ASSERT_TRUE(st.has_value());
    EXPECT_GE(st->lowerBound, lastLower);
    lastLower = st->lowerBound;
    if (sawUpper) {
      ASSERT_TRUE(st->hasUpperBound);
      EXPECT_LE(st->upperBound, lastUpper);
    }
    if (st->hasUpperBound) {
      sawUpper = true;
      lastUpper = st->upperBound;
      EXPECT_LE(st->lowerBound, st->upperBound);
      if (st->state == JobState::kRunning) sawRunningUpper = true;
    }
    EXPECT_GE(st->conflicts, lastConflicts);
    EXPECT_GE(st->satCalls, lastCalls);
    lastConflicts = st->conflicts;
    lastCalls = st->satCalls;
    if (st->state == JobState::kDone) break;
    std::this_thread::yield();
  }

  // The anytime instance guarantees an incumbent long before the
  // deadline, so the live stream (not just the final result) must have
  // published an upper bound.
  EXPECT_TRUE(sawRunningUpper);
  EXPECT_GT(lastCalls, 0);

  const JobOutcome out = service.await(sub.id);
  ASSERT_EQ(out.result.status, MaxSatStatus::Unknown);
  EXPECT_EQ(out.abort, AbortReason::kDeadline);
  // The final status is the result's bounds — at least as tight as any
  // live sample.
  EXPECT_EQ(out.result.lowerBound, lastLower);
  EXPECT_EQ(out.result.upperBound, lastUpper);
}

// ---------------------------------------------------------------------
// Service metrics: registry counters/gauges/histograms after jobs, and
// the service-wide memory gauge fed by the running jobs' sinks.

TEST(SolveService, MetricsRegistryReflectsCompletedJobs) {
  obs::MetricsRegistry registry;
  SolveServiceOptions so;
  so.workers = 1;
  so.metrics = &registry;
  SolveService service(so);

  const WcnfFormula w =
      WcnfFormula::allSoft(randomUnsat3Sat(16, 5.0, 3));
  const auto a = service.submit(w);
  const auto b = service.submit(w);
  ASSERT_EQ(service.await(a.id).result.status, MaxSatStatus::Optimum);
  ASSERT_EQ(service.await(b.id).result.status, MaxSatStatus::Optimum);

  EXPECT_EQ(registry.counter("msu_svc_jobs_submitted_total").value(), 2);
  EXPECT_EQ(registry.counter("msu_svc_jobs_completed_total").value(), 2);
  EXPECT_EQ(registry.counter("msu_svc_jobs_shed_total").value(), 0);
  EXPECT_EQ(registry.gauge("msu_svc_queue_depth").value(), 0);
  EXPECT_EQ(registry.gauge("msu_svc_running_jobs").value(), 0);
  EXPECT_EQ(registry.gauge("msu_svc_mem_bytes").value(), 0);  // none running
  EXPECT_EQ(registry.histogram("msu_svc_job_queue_us").count(), 2);
  EXPECT_EQ(registry.histogram("msu_svc_job_solve_us").count(), 2);
  // Oracle-call latency flows in from the engines' OracleSessions, and
  // the absorbed SolverStats counters land under msu_solver_*.
  EXPECT_GT(registry.histogram("msu_oracle_solve_us").count(), 0);
  EXPECT_GT(registry.counter("msu_solver_conflicts_total").value(), 0);
  EXPECT_GT(registry.counter("msu_solver_solves_total").value(), 0);
}

TEST(SolveService, MemGaugeAggregatesRunningJobs) {
  obs::MetricsRegistry registry;
  SolveServiceOptions so;
  so.metrics = &registry;
  so.watchdog_period_s = 0.002;  // the gauge updates on watchdog scans
  SolveService service(so);

  const auto sub = service.submit(slowInstance());
  ASSERT_EQ(sub.status, SolveService::SubmitStatus::kAccepted);
  waitUntilRunning(service, sub.id);

  // The running job's session reports memory through its sink; both the
  // per-job poll() view and the aggregated service gauge must pick a
  // positive figure up within a few watchdog periods.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool sawJobMem = false;
  bool sawGauge = false;
  while ((!sawJobMem || !sawGauge) &&
         std::chrono::steady_clock::now() < deadline) {
    const auto st = service.poll(sub.id);
    ASSERT_TRUE(st.has_value());
    ASSERT_NE(st->state, JobState::kDone);  // php-9/8 outlives this loop
    if (st->memBytes > 0) sawJobMem = true;
    if (registry.gauge("msu_svc_mem_bytes").value() > 0) sawGauge = true;
    std::this_thread::yield();
  }
  EXPECT_TRUE(sawJobMem);
  EXPECT_TRUE(sawGauge);

  ASSERT_TRUE(service.cancel(sub.id));
  static_cast<void>(service.await(sub.id));
}

// ---------------------------------------------------------------------
// Fault injection.

TEST(SolveService, InjectedPollExpiryAbortsWithFaultReason) {
  FaultInjector fault;
  fault.expireAtPoll(1);
  SolveService service(SolveServiceOptions{});
  JobLimits limits;
  limits.fault = &fault;
  const auto sub = service.submit(slowInstance(), limits);
  const JobOutcome out = service.await(sub.id);
  EXPECT_EQ(out.result.status, MaxSatStatus::Unknown);
  EXPECT_EQ(out.abort, AbortReason::kFault);
  EXPECT_GE(fault.polls(), 1);
}

TEST(SolveService, InjectedAllocationFailureAbortsAsMemory) {
  FaultInjector fault;
  fault.failAllocAt(1);
  SolveService service(SolveServiceOptions{});
  JobLimits limits;
  limits.fault = &fault;
  const auto sub = service.submit(slowInstance(), limits);
  const JobOutcome out = service.await(sub.id);
  EXPECT_EQ(out.result.status, MaxSatStatus::Unknown);
  EXPECT_EQ(out.abort, AbortReason::kMemory);
  EXPECT_GE(fault.allocs(), 1);
}

TEST(SolveService, InjectedSpuriousUnknownIsAbsorbedGracefully) {
  FaultInjector fault;
  fault.unknownAtSolve(1);
  SolveService service(SolveServiceOptions{});
  JobLimits limits;
  limits.fault = &fault;
  const WcnfFormula w =
      WcnfFormula::allSoft(randomUnsat3Sat(16, 5.0, 9));
  const auto sub = service.submit(w, limits);
  const JobOutcome out = service.await(sub.id);
  // The very first oracle call "gives up"; the engine must degrade to
  // Unknown with sound bounds, not crash or claim an optimum.
  EXPECT_EQ(out.result.status, MaxSatStatus::Unknown);
  EXPECT_EQ(out.abort, AbortReason::kFault);
  EXPECT_LE(out.result.lowerBound, out.result.upperBound);
  EXPECT_EQ(fault.solves(), 1);
}

// ---------------------------------------------------------------------
// Solver-level cancellation sweep (warm trail + scope hygiene under
// repeated interruption; ASan polices the memory side).

TEST(Cancellation, SweepInterruptAfterNConflictsKeepsSolverReusable) {
  const CnfFormula hard = randomUnsat3Sat(22, 5.2, 99);

  // Reference run: the undisturbed refutation.
  Solver reference;
  while (reference.numVars() < hard.numVars()) {
    static_cast<void>(reference.newVar());
  }
  for (const Clause& c : hard.clauses()) ASSERT_TRUE(reference.addClause(c));
  ASSERT_EQ(reference.solve(), lbool::False);

  for (std::int64_t cap = 1; cap <= 256; cap *= 2) {
    Solver s;  // reuse_trail defaults on: warm trail across the solves
    while (s.numVars() < hard.numVars()) static_cast<void>(s.newVar());
    for (const Clause& c : hard.clauses()) ASSERT_TRUE(s.addClause(c));

    std::atomic<bool> stop{false};
    std::atomic<int> sink{static_cast<int>(AbortReason::kNone)};

    // Phase 1: interrupt the solve after every `cap` further conflicts
    // until the budget stops binding. Every abort must leave the solver
    // reusable: no stuck assumptions, no corrupted trail.
    int aborted = 0;
    lbool r = lbool::Undef;
    while (r == lbool::Undef && aborted < 200) {
      Budget b = Budget::conflicts(s.stats().conflicts + cap);
      b.setInterrupt(&stop);
      b.setAbortSink(&sink);
      s.setBudget(b);
      r = s.solve();
      if (r == lbool::Undef) {
        ++aborted;
        EXPECT_EQ(static_cast<AbortReason>(sink.load()),
                  AbortReason::kConflicts)
            << "cap " << cap;
      }
    }

    // Phase 2: a pre-raised interrupt flag makes the next solve a no-op
    // returning Undef, and clearing it restores normal operation.
    if (r == lbool::Undef) {
      stop.store(true);
      EXPECT_EQ(s.solve(), lbool::Undef);
      stop.store(false);
    }

    // Phase 3: unlimited re-solve reaches the reference answer.
    s.setBudget(Budget::unlimited());
    EXPECT_EQ(s.solve(), lbool::False) << "cap " << cap;
  }
}

TEST(Cancellation, ConcurrentInterruptStopsARunningSolve) {
  const CnfFormula php = pigeonhole(9, 8);
  Solver s;
  while (s.numVars() < php.numVars()) static_cast<void>(s.newVar());
  for (const Clause& c : php.clauses()) ASSERT_TRUE(s.addClause(c));

  std::atomic<bool> stop{false};
  std::atomic<int> sink{static_cast<int>(AbortReason::kNone)};
  Budget b;
  b.setInterrupt(&stop);
  b.setAbortSink(&sink);
  s.setBudget(b);

  std::thread canceller([&stop, &sink] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    // External-canceller protocol: reason first, then the flag.
    int expected = static_cast<int>(AbortReason::kNone);
    sink.compare_exchange_strong(expected,
                                 static_cast<int>(AbortReason::kCancelled));
    stop.store(true);
  });
  const lbool r = s.solve();
  canceller.join();
  // Either the cancel landed first (Undef) or the refutation finished
  // under 20 ms on a fast machine; both are legal, but an Undef must
  // carry the canceller's reason.
  if (r == lbool::Undef) {
    EXPECT_EQ(static_cast<AbortReason>(sink.load()), AbortReason::kCancelled);
    stop.store(false);
    s.setBudget(Budget::unlimited());
    EXPECT_EQ(s.solve(), lbool::False);
  } else {
    EXPECT_EQ(r, lbool::False);
  }
}

// ---------------------------------------------------------------------
// Randomized stress: >= 200 submit/cancel/fault schedules, validated
// against the exhaustive oracle. TSan/ASan run this in CI.

TEST(SolveServiceStress, RandomizedSchedulesMatchTheOracle) {
  constexpr int kSchedules = 208;
  const char* const kEngines[] = {"msu4-v2", "oll", "linear", "msu3"};

  for (int schedule = 0; schedule < kSchedules; ++schedule) {
    std::mt19937_64 rng(0xC0FFEE + static_cast<std::uint64_t>(schedule));

    SolveServiceOptions so;
    so.workers = 1 + static_cast<int>(rng() % 3);
    so.max_queue_depth = 4 + rng() % 5;
    so.engine = kEngines[rng() % 4];
    so.watchdog_period_s = 0.002;

    struct Submitted {
      WcnfFormula wcnf;
      OracleResult truth;
      JobId id = kJobIdUndef;
      bool cancelled_by_us = false;
    };
    std::vector<Submitted> jobs;
    std::vector<std::unique_ptr<FaultInjector>> injectors;

    {
      SolveService service(so);
      const int numJobs = 3 + static_cast<int>(rng() % 4);
      for (int j = 0; j < numJobs; ++j) {
        // Small mixed hard/soft instances the exhaustive oracle can
        // certify.
        const CnfFormula base =
            randomKSat({.numVars = 8 + static_cast<int>(rng() % 4),
                        .numClauses = 30 + static_cast<int>(rng() % 15),
                        .clauseLen = 3,
                        .seed = rng()});
        Submitted sj;
        sj.wcnf = WcnfFormula(base.numVars());
        const bool weighted = (rng() % 2) == 0;
        for (int i = 0; i < base.numClauses(); ++i) {
          if (rng() % 5 == 0) {
            sj.wcnf.addHard(base.clause(i));
          } else {
            sj.wcnf.addSoft(base.clause(i),
                            weighted ? static_cast<Weight>(1 + rng() % 4)
                                     : 1);
          }
        }
        sj.truth = oracleMaxSat(sj.wcnf);

        JobLimits limits;
        limits.priority = static_cast<int>(rng() % 3);
        switch (rng() % 8) {
          case 0:
            limits.max_conflicts = static_cast<std::int64_t>(rng() % 200);
            break;
          case 1:
            limits.wall_seconds = 0.001 * static_cast<double>(1 + rng() % 40);
            break;
          case 2:
            limits.max_memory_bytes =
                static_cast<std::int64_t>((64 + rng() % 960) * 1024);
            break;
          case 3: {
            auto fault = std::make_unique<FaultInjector>();
            switch (rng() % 3) {
              case 0:
                fault->expireAtPoll(1 + static_cast<std::int64_t>(rng() % 50));
                break;
              case 1:
                fault->failAllocAt(1 + static_cast<std::int64_t>(rng() % 100));
                break;
              default:
                fault->unknownAtSolve(1 + static_cast<std::int64_t>(rng() % 3));
                break;
            }
            limits.fault = fault.get();
            injectors.push_back(std::move(fault));
            break;
          }
          default:
            break;  // no limits
        }

        const auto sub = service.submit(sj.wcnf, limits);
        if (sub.status == SolveService::SubmitStatus::kAccepted) {
          sj.id = sub.id;
          // Random cancellation: sometimes immediately, sometimes after
          // other submissions have raced ahead.
          if (rng() % 4 == 0) {
            sj.cancelled_by_us = true;
            static_cast<void>(service.cancel(sub.id));
          }
        } else {
          EXPECT_EQ(sub.status, SolveService::SubmitStatus::kOverloaded);
        }
        jobs.push_back(std::move(sj));
      }

      // A slice of schedules tears the service down with jobs still in
      // flight — shutdown must cancel cleanly, never hang or leak.
      const bool earlyShutdown = (rng() % 5) == 0;
      if (earlyShutdown) service.shutdown();

      for (const Submitted& sj : jobs) {
        if (sj.id == kJobIdUndef) continue;
        const JobOutcome out = service.await(sj.id);
        const MaxSatResult& r = out.result;
        switch (r.status) {
          case MaxSatStatus::Optimum: {
            ASSERT_TRUE(sj.truth.optimumCost.has_value())
                << "schedule " << schedule;
            EXPECT_EQ(r.cost, *sj.truth.optimumCost)
                << "schedule " << schedule;
            const auto modelCost = sj.wcnf.cost(r.model);
            ASSERT_TRUE(modelCost.has_value()) << "schedule " << schedule;
            EXPECT_EQ(*modelCost, r.cost) << "schedule " << schedule;
            break;
          }
          case MaxSatStatus::UnsatisfiableHard:
            EXPECT_FALSE(sj.truth.optimumCost.has_value())
                << "schedule " << schedule;
            break;
          case MaxSatStatus::Unknown:
            // Aborted: a structured reason must exist, and whatever
            // bounds were reached must bracket the true optimum.
            EXPECT_NE(out.abort, AbortReason::kNone)
                << "schedule " << schedule;
            if (sj.truth.optimumCost.has_value()) {
              EXPECT_LE(r.lowerBound, *sj.truth.optimumCost)
                  << "schedule " << schedule;
            }
            break;
        }
      }
    }  // ~SolveService joins everything
  }
}

}  // namespace
}  // namespace msu
