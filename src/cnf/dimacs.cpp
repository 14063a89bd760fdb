#include "cnf/dimacs.h"

#include <istream>
#include <ostream>
#include <sstream>

#include "cnf/fastparse.h"

namespace msu {

WcnfFormula readDimacsWcnf(std::istream& in) {
  return fastParseDimacsWcnf(InputBuffer::fromStream(in));
}

CnfFormula parseDimacsCnf(const std::string& text) {
  return fastParseDimacsCnf(InputBuffer::borrow(text.data(), text.size()));
}

WcnfFormula parseDimacsWcnf(const std::string& text) {
  return fastParseDimacsWcnf(InputBuffer::borrow(text.data(), text.size()));
}

CnfFormula loadDimacsCnf(const std::string& path) {
  return fastParseDimacsCnf(InputBuffer::fromFile(path));
}

WcnfFormula loadDimacsWcnf(const std::string& path) {
  return fastParseDimacsWcnf(InputBuffer::fromFile(path));
}

void writeDimacsCnf(std::ostream& out, const CnfFormula& cnf) {
  out << "p cnf " << cnf.numVars() << ' ' << cnf.numClauses() << '\n';
  for (const Clause& c : cnf.clauses()) {
    for (Lit p : c) out << p.toDimacs() << ' ';
    out << "0\n";
  }
}

void writeDimacsWcnf(std::ostream& out, const WcnfFormula& wcnf) {
  const Weight top = wcnf.totalSoftWeight() + 1;
  out << "p wcnf " << wcnf.numVars() << ' '
      << (wcnf.numHard() + wcnf.numSoft()) << ' ' << top << '\n';
  for (const Clause& c : wcnf.hard()) {
    out << top << ' ';
    for (Lit p : c) out << p.toDimacs() << ' ';
    out << "0\n";
  }
  for (const SoftClause& s : wcnf.soft()) {
    out << s.weight << ' ';
    for (Lit p : s.lits) out << p.toDimacs() << ' ';
    out << "0\n";
  }
}

std::string toDimacsString(const CnfFormula& cnf) {
  std::ostringstream os;
  writeDimacsCnf(os, cnf);
  return os.str();
}

std::string toDimacsString(const WcnfFormula& wcnf) {
  std::ostringstream os;
  writeDimacsWcnf(os, wcnf);
  return os.str();
}

}  // namespace msu
