/// \file bench_service.cpp
/// \brief Throughput/latency benchmark of the SolveService (src/svc):
///        a fixed batch of small MaxSAT jobs is pushed through the
///        service at 1, 2 and 4 workers, and the driver reports
///        jobs/sec plus p50/p99 job latency (queue + solve). A fourth
///        scenario runs the batch under a tight per-job deadline to
///        price the abort path (watchdog + cooperative unwinding).
///
/// Usage: bench_service [--jobs N] [--json [path]]
///
///   --json   write bench/BENCH_service.json (one record per scenario:
///            wall time, jobs/sec, latency percentiles, abort counts)
///
/// Latency here is end-to-end from submit() to completion as measured
/// by the service's own clocks (JobOutcome::queue_seconds +
/// solve_seconds), so await()/reporting overhead is excluded. See
/// bench/README.md for the methodology and the regression gate.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <iomanip>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "gen/random_cnf.h"
#include "harness/factory.h"
#include "svc/service.h"

namespace {

using namespace msu;

std::vector<WcnfFormula> buildJobs(int n, int baseVars) {
  std::vector<WcnfFormula> jobs;
  jobs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    // Near-threshold random MaxSAT: enough search to be worth
    // scheduling, small enough that a batch completes in seconds.
    const int vars = baseVars + (i % 5);
    jobs.push_back(WcnfFormula::allSoft(randomUnsat3Sat(
        vars, 4.8, 1000 + static_cast<std::uint64_t>(i))));
  }
  return jobs;
}

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// One run of a calibration probe: the batch solved by direct msu4-v2
/// calls on `threads` threads at once, each thread the whole batch.
/// nullopt if a job misses its optimum.
std::optional<benchjson::BenchRecord> runDirect(
    const std::vector<WcnfFormula>& jobs, int threads) {
  std::vector<MaxSatResult> results(jobs.size() * threads);
  const auto loop = [&](int t) {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      auto engine = makeSolver("msu4-v2", MaxSatOptions{});
      results[t * jobs.size() + j] = engine->solve(jobs[j]);
    }
  };
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(loop, t);
  loop(0);
  for (std::thread& th : pool) th.join();
  benchjson::BenchRecord rec;
  rec.wallMs = msSince(t0);
  std::int64_t propagations = 0;
  std::int64_t conflicts = 0;
  for (const MaxSatResult& r : results) {
    if (r.status != MaxSatStatus::Optimum) return std::nullopt;
    propagations += r.satStats.propagations;
    conflicts += r.satStats.conflicts;
  }
  rec.counters.emplace_back("jobs",
                            static_cast<std::int64_t>(results.size()));
  rec.counters.emplace_back("propagations", propagations);
  rec.counters.emplace_back("conflicts", conflicts);
  return rec;
}

struct Scenario {
  std::string name;
  int workers = 1;
  JobLimits limits;          // applied to every job
  bool deadline_set = false; // use the larger deadline batch
};

/// One run of a service scenario on a fresh service: the batch submitted
/// up front and awaited. nullopt on a refused submit, or on a job
/// without a deadline that ends without an optimum.
std::optional<benchjson::BenchRecord> runService(
    const Scenario& sc, const std::vector<WcnfFormula>& batch) {
  SolveServiceOptions so;
  so.workers = sc.workers;
  so.max_queue_depth = batch.size() + 1;
  SolveService service(so);

  const auto t0 = Clock::now();
  std::vector<JobId> ids;
  ids.reserve(batch.size());
  for (const WcnfFormula& w : batch) {
    const auto sub = service.submit(w, sc.limits);
    if (sub.status != SolveService::SubmitStatus::kAccepted) {
      return std::nullopt;
    }
    ids.push_back(sub.id);
  }
  std::vector<double> latencyMs;
  latencyMs.reserve(ids.size());
  std::int64_t aborted = 0;
  for (const JobId id : ids) {
    const JobOutcome out = service.await(id);
    latencyMs.push_back((out.queue_seconds + out.solve_seconds) * 1e3);
    if (out.abort != AbortReason::kNone) ++aborted;
    if (!sc.limits.wall_seconds &&
        out.result.status != MaxSatStatus::Optimum) {
      return std::nullopt;
    }
  }
  benchjson::BenchRecord rec;
  rec.wallMs = msSince(t0);
  std::sort(latencyMs.begin(), latencyMs.end());
  const auto pctUs = [&](double p) {
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(latencyMs.size() - 1));
    return static_cast<std::int64_t>(latencyMs[idx] * 1e3);
  };
  const double jobsPerSec = 1e3 * static_cast<double>(latencyMs.size()) /
                            std::max(rec.wallMs, 1e-6);
  rec.counters.emplace_back("jobs",
                            static_cast<std::int64_t>(latencyMs.size()));
  rec.counters.emplace_back("workers", sc.workers);
  rec.counters.emplace_back("jobs_per_sec_milli",
                            static_cast<std::int64_t>(jobsPerSec * 1e3));
  rec.counters.emplace_back("p50_latency_us", pctUs(0.50));
  rec.counters.emplace_back("p99_latency_us", pctUs(0.99));
  rec.counters.emplace_back("aborted", aborted);
  return rec;
}

std::int64_t counterOf(const benchjson::BenchRecord& rec,
                       const std::string& key) {
  for (const auto& [name, value] : rec.counters) {
    if (name == key) return value;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int numJobs = 40;
  int reps = 5;
  bool writeJson = false;
  std::string jsonPath = "bench/BENCH_service.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--jobs" && i + 1 < argc) {
      numJobs = std::atoi(argv[++i]);
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (arg == "--json") {
      writeJson = true;
      if (i + 1 < argc &&
          std::string(argv[i + 1]).find(".json") != std::string::npos) {
        jsonPath = argv[++i];
      }
    } else {
      std::cerr
          << "usage: bench_service [--jobs N] [--reps N] [--json [path]]\n";
      return 2;
    }
  }

  // Base size 22..26 vars: small enough that a batch completes in a
  // couple of seconds, large enough (~100 ms of total solving) that
  // batch wall times are not dominated by scheduler jitter — at 16
  // vars the whole batch ran in ~9 ms and run-to-run noise routinely
  // exceeded the regression gate's tolerance.
  const std::vector<WcnfFormula> jobs = buildJobs(numJobs, 22);
  // The deadline scenario needs jobs that reliably OUTLIVE their cap:
  // the main batch's instances often finish in well under 2 ms, which
  // would leave the abort path mostly unexercised. These larger
  // near-threshold instances take tens of milliseconds each when run
  // to optimality, so a 2 ms cap aborts essentially every one.
  const std::vector<WcnfFormula> deadlineJobs =
      buildJobs(std::max(numJobs / 2, 1), 30);

  // Machine-speed probes: the same batch solved by plain loops of direct
  // engine calls — no service. seq-direct runs one loop; seq-direct4
  // runs it on four threads at once, so it slows down, as svc-w4 does,
  // when the machine's cores are busy with other work. Their wall times
  // track the machine, their counters are deterministic for identical
  // code, so check_regression.py can use them to calibrate the service
  // scenarios' wall times across machines (--calibration-prefix seq-).
  struct Case {
    std::string name;
    std::function<std::optional<benchjson::BenchRecord>()> run;
  };
  std::vector<Case> cases;
  for (const int threads : {1, 4}) {
    cases.push_back({threads == 1 ? "seq-direct" : "seq-direct4",
                     [&jobs, threads] { return runDirect(jobs, threads); }});
  }
  std::vector<Scenario> scenarios;
  for (const int w : {1, 2, 4}) {
    scenarios.push_back({"svc-w" + std::to_string(w), w, JobLimits{}});
  }
  {
    // Abort-path pricing: every job deadline-capped well below its
    // typical solve time, so most of the batch exercises watchdog +
    // cooperative unwinding instead of the happy path.
    Scenario s;
    s.name = "svc-w2-deadline";
    s.workers = 2;
    s.limits.wall_seconds = 0.002;
    s.deadline_set = true;
    scenarios.push_back(s);
  }
  for (const Scenario& sc : scenarios) {
    const std::vector<WcnfFormula>& batch =
        sc.deadline_set ? deadlineJobs : jobs;
    cases.push_back({sc.name, [&sc, &batch] { return runService(sc, batch); }});
  }

  // Best-of-reps, the reps of all records interleaved: the probes and
  // the scenarios sample the same stretch of time, so a burst of load
  // from elsewhere on the machine that slows one record's every rep
  // slows the probes too. Thread-scheduling noise only ever slows a run
  // down, so each record keeps its fastest rep (as bench_portfolio).
  std::vector<benchjson::BenchRecord> records(cases.size());
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      std::optional<benchjson::BenchRecord> rec = cases[i].run();
      if (!rec) {
        std::cerr << cases[i].name
                  << ": a job was refused or missed its optimum\n";
        return 1;
      }
      if (rep == 0 || rec->wallMs < records[i].wallMs) {
        records[i] = std::move(*rec);
      }
    }
  }

  std::cout << std::left << std::setw(18) << "record" << std::right
            << std::setw(10) << "wall ms" << std::setw(10) << "jobs/s"
            << std::setw(10) << "p50 ms" << std::setw(10) << "p99 ms"
            << std::setw(9) << "aborted" << "\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    benchjson::BenchRecord& rec = records[i];
    rec.name = cases[i].name;
    rec.reps = reps;
    std::cout << std::left << std::setw(18) << rec.name << std::right
              << std::fixed << std::setprecision(1) << std::setw(10)
              << rec.wallMs;
    if (rec.name.starts_with("seq-")) {
      std::cout << "  (calibration probe)\n";
      continue;
    }
    std::cout << std::setw(10) << counterOf(rec, "jobs_per_sec_milli") / 1e3
              << std::setprecision(2) << std::setw(10)
              << counterOf(rec, "p50_latency_us") / 1e3 << std::setw(10)
              << counterOf(rec, "p99_latency_us") / 1e3 << std::setw(9)
              << counterOf(rec, "aborted") << "\n";
  }

  if (writeJson && !benchjson::writeJsonFile(jsonPath, "service", records)) {
    return 1;
  }
  return 0;
}
