/// \file portfolio.h
/// \brief Parallel MaxSAT portfolio: race N diversified engine
///        configurations on the same instance across a thread pool,
///        with first-finisher-wins cancellation.
///
/// The msu3/msu4 family spends essentially all of its time inside
/// sequential SAT-oracle calls; a portfolio is the classic way to buy
/// wall-clock time with cores without touching the algorithms
/// themselves. Each worker runs a complete engine (msu3, msu4 variants,
/// oll, linear search, ...) built by the harness factory, on a solver
/// configuration perturbed per worker (restart policy and pacing,
/// phase saving, VSIDS decay). Workers cooperate one way only,
/// through cancellation: every worker's Budget carries the portfolio's
/// stop flag (Budget::setInterrupt); the first worker to reach a
/// decisive result (Optimum / UnsatisfiableHard) raises it and everyone
/// else unwinds at the next budget poll. Decisive workers agree by
/// construction — every engine is answer-correct — so which one wins
/// only affects diagnostics, never the result. Workers exchange no
/// learnt clauses: on hard-rich instances, where an exchange does move
/// clauses, the portfolio was no slower without it (bench/README.md,
/// "portfolio workers exchange no clauses").
///
/// With `threads == 1` the portfolio degenerates to running the base
/// configuration synchronously — no stop flag, no extra threads — and
/// is therefore bit-for-bit deterministic, identical to invoking the
/// base engine directly.

#pragma once

#include <string>
#include <vector>

#include "core/maxsat.h"

namespace msu {

/// Configuration of a PortfolioSolver.
struct PortfolioOptions {
  /// Options shared by every worker (budget, cardinality encoding,
  /// trimming, ...). Worker 0 runs them verbatim; workers 1.. run
  /// deterministic perturbations.
  MaxSatOptions base;

  /// Number of racing workers.
  int threads = 1;

  /// Engine names cycled across workers (factory names); empty selects
  /// defaultEngines(). The first entry is worker 0's engine.
  std::vector<std::string> engines;

  /// Seed of the deterministic per-worker perturbation.
  unsigned seed = 1;
};

/// The portfolio runner. Answer-correct for any thread count; exactly
/// reproduces the base engine at threads == 1.
class PortfolioSolver final : public MaxSatSolver {
 public:
  explicit PortfolioSolver(PortfolioOptions options);

  [[nodiscard]] std::string name() const override;

  [[nodiscard]] MaxSatResult solve(const WcnfFormula& formula) override;

  /// Engine cycle used when PortfolioOptions::engines is empty.
  [[nodiscard]] static const std::vector<std::string>& defaultEngines();

  /// One human-readable description per worker ("msu4-v2",
  /// "msu3 luby=0 rb=150", ...), in worker order.
  [[nodiscard]] std::vector<std::string> workerDescriptions() const;

  /// Worker index and engine name of the decisive worker of the last
  /// solve (-1 / empty when the last solve ended Unknown).
  [[nodiscard]] int lastWinner() const { return last_winner_; }
  [[nodiscard]] const std::string& lastWinnerEngine() const {
    return last_winner_engine_;
  }

 private:
  struct WorkerConfig {
    std::string engine;
    MaxSatOptions opts;
    std::string description;
  };

  [[nodiscard]] std::vector<WorkerConfig> buildConfigs() const;

  PortfolioOptions opts_;
  int last_winner_ = -1;
  std::string last_winner_engine_;
};

}  // namespace msu
