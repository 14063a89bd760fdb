/// \file dimacs.h
/// \brief DIMACS CNF and (old-style) WCNF reading and writing.
///
/// Supported formats:
///  * CNF:  `p cnf <vars> <clauses>` followed by 0-terminated clauses.
///  * WCNF: `p wcnf <vars> <clauses> [top]` where each clause starts with
///    a weight; weight == top (when given) marks a hard clause. The soft
///    weights must sum to less than INT64_MAX.
/// Comments (`c ...`) and blank lines are ignored. Parsing is strict about
/// literal ranges but tolerant about the clause count in the header.

#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "cnf/formula.h"
#include "cnf/wcnf.h"

namespace msu {

/// Error raised on malformed DIMACS input.
class DimacsError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parses a DIMACS CNF string. Throws DimacsError on malformed input.
///
/// All readers below are thin adapters over the zero-copy parser core
/// in fastparse.h, the only DIMACS parser: `loadDimacs*` mmaps the
/// file, `parseDimacs*` scans the string in place, and the istream
/// overload slurps the stream once and scans the buffer (the pipe
/// path). Comments are strictly line-anchored ('c' first on its line);
/// a '%' line ends the input (SAT-competition convention).
[[nodiscard]] CnfFormula parseDimacsCnf(const std::string& text);

/// Parses a DIMACS WCNF stream (or a plain CNF stream, which is lifted to
/// an all-soft instance). Throws DimacsError on malformed input.
[[nodiscard]] WcnfFormula readDimacsWcnf(std::istream& in);

/// Parses a DIMACS WCNF string.
[[nodiscard]] WcnfFormula parseDimacsWcnf(const std::string& text);

/// Loads a CNF file from disk. Throws DimacsError (also for I/O failure).
[[nodiscard]] CnfFormula loadDimacsCnf(const std::string& path);

/// Loads a WCNF (or CNF) file from disk. Throws DimacsError.
[[nodiscard]] WcnfFormula loadDimacsWcnf(const std::string& path);

/// Writes DIMACS CNF.
void writeDimacsCnf(std::ostream& out, const CnfFormula& cnf);

/// Writes DIMACS WCNF (top = totalSoftWeight + 1).
void writeDimacsWcnf(std::ostream& out, const WcnfFormula& wcnf);

/// CNF to DIMACS string.
[[nodiscard]] std::string toDimacsString(const CnfFormula& cnf);

/// WCNF to DIMACS string.
[[nodiscard]] std::string toDimacsString(const WcnfFormula& wcnf);

}  // namespace msu
