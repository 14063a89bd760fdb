/// \file maxsatd.cpp
/// \brief `maxsatd` — drives the SolveService (svc/service.h) from a
///        job file: a batch front end that multiplexes many MaxSAT
///        instances over a fixed worker pool with per-job limits, and
///        prints one outcome row per job.
///
/// Usage:
///   example_maxsatd [options] jobs.txt
///     --workers N          worker threads (default 2)
///     --engine NAME        engine for every job (default msu4-v2)
///     --queue-depth N      shed load beyond N queued jobs (default 64)
///     --max-job-seconds S  service-wide watchdog ceiling per job
///     --max-mem-mb N       service-wide memory ceiling in MiB:
///                          submit() sheds jobs (kOverloaded) whose
///                          formula estimate would push the aggregate
///                          running+queued footprint past the ceiling
///     --metrics-every S    every S seconds, print a live progress line
///                          per running job (anytime bounds, conflicts,
///                          memory — the poll() snapshot) plus the
///                          service gauges, and finish with a full
///                          Prometheus-format metrics snapshot
///
/// The service always runs with a metrics registry wired in; the final
/// summary line reports the peak service-wide solver memory observed
/// (the `msu_svc_mem_bytes` gauge, aggregated across running jobs).
///
/// Job file: one job per line, `#` comments and blank lines ignored:
///   <path.wcnf> [wall=SEC] [conflicts=N] [mem=BYTES] [prio=P]
///
/// Example:
///   instances/easy.wcnf   prio=1
///   instances/hard.wcnf   wall=5 mem=268435456
///
/// Jobs the service sheds (queue full) are reported as `overloaded`;
/// aborted jobs still print their best incumbent bounds — the service's
/// graceful-degradation contract.

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cnf/dimacs.h"
#include "obs/metrics.h"
#include "svc/service.h"

namespace {

struct JobSpec {
  std::string path;
  msu::JobLimits limits;
};

bool parseJobLine(const std::string& line, JobSpec& spec) {
  std::istringstream in(line);
  if (!(in >> spec.path)) return false;
  std::string kv;
  while (in >> kv) {
    const auto eq = kv.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = kv.substr(0, eq);
    const char* val = kv.c_str() + eq + 1;
    if (key == "wall") {
      spec.limits.wall_seconds = std::atof(val);
    } else if (key == "conflicts") {
      spec.limits.max_conflicts = std::atoll(val);
    } else if (key == "mem") {
      spec.limits.max_memory_bytes = std::atoll(val);
    } else if (key == "prio") {
      spec.limits.priority = std::atoi(val);
    } else {
      return false;
    }
  }
  return true;
}

void usage() {
  std::cout << "usage: example_maxsatd [--workers N] [--engine NAME]\n"
               "                       [--queue-depth N] "
               "[--max-job-seconds S]\n"
               "                       [--max-mem-mb N] "
               "[--metrics-every S] jobs.txt\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace msu;

  SolveServiceOptions svcOpts;
  svcOpts.workers = 2;
  double metricsEvery = 0.0;
  std::string jobFile;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workers" && i + 1 < argc) {
      svcOpts.workers = std::atoi(argv[++i]);
    } else if (arg == "--engine" && i + 1 < argc) {
      svcOpts.engine = argv[++i];
    } else if (arg == "--queue-depth" && i + 1 < argc) {
      svcOpts.max_queue_depth = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (arg == "--max-job-seconds" && i + 1 < argc) {
      svcOpts.default_max_job_seconds = std::atof(argv[++i]);
    } else if (arg == "--max-mem-mb" && i + 1 < argc) {
      svcOpts.max_service_mem_bytes =
          static_cast<std::int64_t>(std::atof(argv[++i]) * 1024 * 1024);
    } else if (arg == "--metrics-every" && i + 1 < argc) {
      metricsEvery = std::atof(argv[++i]);
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << "\n";
      usage();
      return 2;
    } else {
      jobFile = arg;
    }
  }
  if (jobFile.empty()) {
    usage();
    return 2;
  }

  std::ifstream in(jobFile);
  if (!in) {
    std::cerr << "cannot read " << jobFile << "\n";
    return 2;
  }
  std::vector<JobSpec> specs;
  std::string line;
  int lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    JobSpec spec;
    if (!parseJobLine(line, spec)) {
      std::cerr << jobFile << ":" << lineNo << ": bad job line\n";
      return 2;
    }
    specs.push_back(std::move(spec));
  }
  if (specs.empty()) {
    std::cerr << jobFile << ": no jobs\n";
    return 2;
  }

  obs::MetricsRegistry registry;
  svcOpts.metrics = &registry;
  std::optional<SolveService> service;
  try {
    service.emplace(svcOpts);
  } catch (const std::invalid_argument& e) {
    std::cerr << "c " << e.what() << "\n";
    return 2;
  }
  std::cout << "c maxsatd: " << specs.size() << " job(s), "
            << svcOpts.workers << " worker(s), engine " << svcOpts.engine
            << "\n";

  struct Row {
    std::string path;
    JobId id = kJobIdUndef;
    bool shed = false;
  };
  std::vector<Row> rows;
  rows.reserve(specs.size());
  for (JobSpec& spec : specs) {
    Row row;
    row.path = spec.path;
    WcnfFormula instance;
    try {
      instance = loadDimacsWcnf(spec.path);
    } catch (const DimacsError& e) {
      std::cerr << "c " << spec.path << ": parse error: " << e.what() << "\n";
      return 2;
    }
    const SolveService::Submission sub =
        service->submit(std::move(instance), spec.limits);
    if (sub.status == SolveService::SubmitStatus::kAccepted) {
      row.id = sub.id;
    } else {
      row.shed = true;
    }
    rows.push_back(std::move(row));
  }

  // Live progress monitor: a sampling thread that polls every accepted
  // job and prints anytime bounds + work counters for the running ones
  // (SolveService::poll() exposes the job's ProgressSink), plus the
  // service-wide gauges. It also tracks the peak of the aggregated
  // memory gauge for the final summary.
  std::atomic<bool> monitorStop{false};
  std::atomic<std::int64_t> peakMem{0};
  auto samplePeak = [&] {
    const std::int64_t mem = registry.gauge("msu_svc_mem_bytes").value();
    std::int64_t prev = peakMem.load();
    while (mem > prev && !peakMem.compare_exchange_weak(prev, mem)) {
    }
  };
  std::thread monitor;
  if (metricsEvery > 0.0) {
    monitor = std::thread([&] {
      const auto period =
          std::chrono::duration<double>(metricsEvery);
      while (!monitorStop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(period);
        if (monitorStop.load(std::memory_order_acquire)) break;
        samplePeak();
        std::ostringstream os;
        os << "c metrics: queued="
           << registry.gauge("msu_svc_queue_depth").value() << " running="
           << registry.gauge("msu_svc_running_jobs").value() << " mem="
           << registry.gauge("msu_svc_mem_bytes").value() << "B\n";
        for (const Row& row : rows) {
          if (row.id == kJobIdUndef) continue;
          const auto st = service->poll(row.id);
          if (!st || st->state != JobState::kRunning) continue;
          os << "c live: job " << row.id << " " << row.path << " lb="
             << st->lowerBound << " ub=";
          if (st->hasUpperBound) {
            os << st->upperBound;
          } else {
            os << "?";
          }
          os << " conflicts=" << st->conflicts << " calls=" << st->satCalls
             << " mem=" << st->memBytes << "B\n";
        }
        std::cout << os.str() << std::flush;
      }
    });
  }

  int exitCode = 0;
  for (const Row& row : rows) {
    std::cout << std::left << std::setw(32) << row.path << " ";
    if (row.shed) {
      std::cout << "overloaded\n";
      exitCode = 1;
      continue;
    }
    const JobOutcome out = service->await(row.id);
    samplePeak();
    const MaxSatResult& r = out.result;
    switch (r.status) {
      case MaxSatStatus::Optimum:
        std::cout << "optimum cost=" << r.cost;
        break;
      case MaxSatStatus::UnsatisfiableHard:
        std::cout << "unsat-hard";
        break;
      case MaxSatStatus::Unknown:
        std::cout << "unknown [" << r.lowerBound << ", " << r.upperBound
                  << "]";
        exitCode = 1;
        break;
    }
    if (out.abort != AbortReason::kNone) {
      std::cout << " abort=" << toString(out.abort);
    }
    std::cout << " queue=" << std::fixed << std::setprecision(3)
              << out.queue_seconds << "s solve=" << out.solve_seconds
              << "s\n";
  }

  if (monitor.joinable()) {
    monitorStop.store(true, std::memory_order_release);
    monitor.join();
  }

  const SolveService::Counters c = service->counters();
  std::cout << "c submitted=" << c.submitted << " completed=" << c.completed
            << " shed=" << c.shed << " peak-mem=" << peakMem.load() << "B\n";
  if (metricsEvery > 0.0) {
    std::cout << "c prometheus snapshot:\n";
    registry.writeProm(std::cout);
  }
  return exitCode;
}
