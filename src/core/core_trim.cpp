#include "core/core_trim.h"

namespace msu {

std::vector<Lit> trimCore(Solver& solver, std::vector<Lit> core, int rounds) {
  for (int round = 0; round < rounds; ++round) {
    if (core.size() <= 1) break;
    const lbool st = solver.solve(core);
    if (st != lbool::False) break;  // budget interference: keep what we have
    std::vector<Lit> next = solver.core();
    if (next.size() >= core.size()) break;  // no progress
    core = std::move(next);
  }
  return core;
}

}  // namespace msu
