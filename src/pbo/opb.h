/// \file opb.h
/// \brief Reader/writer for the OPB pseudo-Boolean competition format,
///        the standard interchange format of the PBO community the
///        paper's §2.2 baseline belongs to. Understands linear `min:`
///        objectives and `>=` / `<=` / `=` constraints over `x<i>`
///        variables, with `*` comment lines.
///
/// Normalization on read: `>=` flips into the engine's canonical `<=`
/// form; `=` splits into two inequalities; negative objective
/// coefficients are rewritten over complemented literals with a constant
/// offset (`-c*x == -c + c*(~x)`), so `PboProblem::objective` always
/// carries positive coefficients. Every integer must satisfy
/// |v| <= INT64_MAX, so these negations cannot overflow; an objective
/// offset that would is rejected.

#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "pbo/pbo_solver.h"

namespace msu {

/// Error raised on malformed OPB input.
class OpbError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parses an OPB stream. Throws OpbError on malformed input.
///
/// Like the DIMACS readers, both are adapters over the zero-copy lexer
/// in cnf/fastparse.h, the only OPB parser: `parseOpb` scans the string
/// in place, and the istream overload slurps once. `*` comment lines
/// are strictly line-anchored.
[[nodiscard]] PboProblem readOpb(std::istream& in);

/// Parses an OPB string.
[[nodiscard]] PboProblem parseOpb(const std::string& text);

/// Writes a PboProblem in OPB syntax. Only `<=` constraints and the
/// positive-coefficient objective form are emitted (the canonical shape
/// readOpb produces); complemented objective literals are written by
/// re-expanding the offset rewrite.
void writeOpb(std::ostream& out, const PboProblem& problem);

}  // namespace msu
