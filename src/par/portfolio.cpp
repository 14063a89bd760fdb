#include "par/portfolio.h"

#include <atomic>
#include <sstream>
#include <thread>

#include "harness/factory.h"
#include "obs/trace.h"

namespace msu {

namespace {

/// Deterministic per-worker perturbation source (splitmix64 steps).
class PerturbRng {
 public:
  explicit PerturbRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    state_ += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  std::uint64_t next(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

}  // namespace

PortfolioSolver::PortfolioSolver(PortfolioOptions options)
    : opts_(std::move(options)) {
  if (opts_.threads < 1) opts_.threads = 1;
  // Drop engine names the factory cannot build (and nested parallel
  // solvers, which would multiply threads), rather than crashing a
  // worker later.
  std::erase_if(opts_.engines, [](const std::string& name) {
    return name.rfind("portfolio", 0) == 0 ||
           makeSolver(name, MaxSatOptions{}) == nullptr;
  });
  if (opts_.engines.empty()) opts_.engines = defaultEngines();
}

const std::vector<std::string>& PortfolioSolver::defaultEngines() {
  // Ordered for complementarity at small thread counts: the msu4/msu3
  // core-guided pair, the weighted-native oll, then the CDCL-free
  // branch-and-bound — a structurally different search that pays off
  // exactly where the core-guided family stalls (near-threshold random
  // instances, weighted max-cut) — and only then further variants.
  static const std::vector<std::string> kEngines{
      "msu4-v2", "msu3", "oll", "maxsatz", "linear", "msu4-v1", "binary"};
  return kEngines;
}

std::string PortfolioSolver::name() const {
  std::ostringstream os;
  os << "portfolio-" << opts_.threads << "(" << opts_.engines.front() << ")";
  return os.str();
}

std::vector<PortfolioSolver::WorkerConfig> PortfolioSolver::buildConfigs()
    const {
  std::vector<WorkerConfig> configs;
  configs.reserve(static_cast<std::size_t>(opts_.threads));
  for (int w = 0; w < opts_.threads; ++w) {
    WorkerConfig cfg;
    cfg.engine = opts_.engines[static_cast<std::size_t>(w) %
                               opts_.engines.size()];
    cfg.opts = opts_.base;
    cfg.description = cfg.engine;
    if (w == 0) {
      // Worker 0 is the base configuration, untouched: the 1-thread
      // portfolio must be indistinguishable from the plain engine.
      configs.push_back(std::move(cfg));
      continue;
    }
    // Deterministic diversification: restart policy/pacing (including
    // the adaptive EMA trajectory), phase saving and VSIDS decay. Mild
    // by design — every configuration must stay a sensible
    // general-purpose solver.
    PerturbRng rng((static_cast<std::uint64_t>(opts_.seed) << 32) ^
                   static_cast<std::uint64_t>(w));
    Solver::Options& sat = cfg.opts.sat;
    sat.luby_restarts = rng.next(4) != 0;  // 3:1 Luby vs geometric
    static constexpr int kRestartBases[] = {50, 100, 150, 250};
    sat.restart_base = kRestartBases[rng.next(4)];
    static constexpr double kVarDecays[] = {0.95, 0.99, 0.90, 0.85};
    sat.var_decay = kVarDecays[rng.next(4)];
    sat.phase_saving = rng.next(8) != 0;  // rarely off
    // A third of the perturbed workers race the adaptive restart
    // trajectory (EMA + stable/focused switching + best-phase
    // rephasing) against the fixed schedules.
    sat.ema_restarts = rng.next(3) == 0;
    std::ostringstream os;
    os << cfg.engine << " "
       << (sat.ema_restarts ? "ema" : (sat.luby_restarts ? "luby" : "geom"))
       << "/" << sat.restart_base << " vd=" << sat.var_decay
       << (sat.phase_saving ? "" : " nophase");
    cfg.description = os.str();
    configs.push_back(std::move(cfg));
  }
  return configs;
}

std::vector<std::string> PortfolioSolver::workerDescriptions() const {
  std::vector<std::string> out;
  for (const WorkerConfig& cfg : buildConfigs()) {
    out.push_back(cfg.description);
  }
  return out;
}

MaxSatResult PortfolioSolver::solve(const WcnfFormula& formula) {
  last_winner_ = -1;
  last_winner_engine_.clear();
  std::vector<WorkerConfig> configs = buildConfigs();

  if (opts_.threads == 1) {
    // Deterministic single-thread mode: run the base configuration in
    // place, with no stop flag or extra thread anywhere near it.
    std::unique_ptr<MaxSatSolver> solver =
        makeSolver(configs[0].engine, configs[0].opts);
    if (solver == nullptr) return MaxSatResult{};  // ctor validated; belt
    MaxSatResult r = solver->solve(formula);
    if (r.status != MaxSatStatus::Unknown) {
      last_winner_ = 0;
      last_winner_engine_ = configs[0].engine;
    }
    return r;
  }

  const int n = opts_.threads;
  std::atomic<bool> stop{false};
  std::vector<MaxSatResult> results(static_cast<std::size_t>(n));
  for (WorkerConfig& cfg : configs) cfg.opts.budget.setInterrupt(&stop);

  {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(n));
    for (int w = 0; w < n; ++w) {
      workers.emplace_back([&, w] {
        const WorkerConfig& cfg = configs[static_cast<std::size_t>(w)];
        obs::TraceSpan span(cfg.opts.sat.trace, obs::TraceCat::kWorker,
                            "portfolio-worker");
        span.arg("worker", w);
        std::unique_ptr<MaxSatSolver> solver =
            makeSolver(cfg.engine, cfg.opts);
        if (solver == nullptr) return;  // ctor validated; stays Unknown
        MaxSatResult r = solver->solve(formula);
        if (r.status != MaxSatStatus::Unknown) {
          // First finisher wins: everyone else unwinds at their next
          // budget poll. Decisive results all carry the same optimum,
          // so there is no race on the answer itself.
          stop.store(true, std::memory_order_release);
          obs::traceInstant(cfg.opts.sat.trace, obs::TraceCat::kWorker,
                            "portfolio-finish", "worker", w);
        }
        results[static_cast<std::size_t>(w)] = std::move(r);
      });
    }
    for (std::thread& t : workers) t.join();
  }

  // Merge: any decisive result is the answer (they agree); pick the
  // lowest worker index for reproducible diagnostics. Statistics are
  // summed across every worker so the total work performed is visible
  // to the harness.
  MaxSatResult merged;
  int winner = -1;
  for (int w = 0; w < n; ++w) {
    const MaxSatResult& r = results[static_cast<std::size_t>(w)];
    if (winner < 0 && r.status != MaxSatStatus::Unknown) winner = w;
  }
  if (winner >= 0) {
    merged = std::move(results[static_cast<std::size_t>(winner)]);
    last_winner_ = winner;
    last_winner_engine_ = configs[static_cast<std::size_t>(winner)].engine;
  } else {
    // Everyone ran out of budget: combine the soundest bounds. Every
    // worker's lower bound is individually proven, so the max holds;
    // upper bounds are only real when witnessed by a model.
    merged.status = MaxSatStatus::Unknown;
    Weight upper = formula.totalSoftWeight();
    for (int w = 0; w < n; ++w) {
      const MaxSatResult& r = results[static_cast<std::size_t>(w)];
      merged.lowerBound = std::max(merged.lowerBound, r.lowerBound);
      if (!r.model.empty() && r.upperBound <= upper) {
        upper = r.upperBound;
        merged.model = r.model;
      }
    }
    merged.upperBound = upper;
  }
  for (int w = 0; w < n; ++w) {
    if (w == winner) continue;  // merged already carries its numbers
    const MaxSatResult& r = results[static_cast<std::size_t>(w)];
    merged.iterations += r.iterations;
    merged.coresFound += r.coresFound;
    merged.satCalls += r.satCalls;
    merged.satStats += r.satStats;
  }
  return merged;
}

}  // namespace msu
