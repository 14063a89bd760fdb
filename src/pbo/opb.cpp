#include "pbo/opb.h"

#include <algorithm>
#include <cstdint>
#include <istream>
#include <limits>
#include <ostream>
#include <string_view>
#include <vector>

#include "cnf/fastparse.h"

namespace msu {

namespace {

[[nodiscard]] bool isRelop(std::string_view tok) {
  return tok == ">=" || tok == "<=" || tok == "=";
}

/// Parses an integer coefficient like "+3", "-12", "7".
[[nodiscard]] Weight parseCoeff(std::string_view tok) {
  Weight v = 0;
  if (scanInt(tok, v) != IntScan::kOk) {
    throw OpbError("bad coefficient: " + std::string(tok));
  }
  return v;
}

/// Parses a literal token "x12" or "~x12" (1-based).
[[nodiscard]] Lit parseLitToken(std::string_view tok) {
  std::string_view body = tok;
  bool negated = false;
  if (!body.empty() && body[0] == '~') {
    negated = true;
    body.remove_prefix(1);
  }
  if (body.size() < 2 || body[0] != 'x' || body[1] < '0' || body[1] > '9') {
    throw OpbError("bad variable: " + std::string(tok));
  }
  body.remove_prefix(1);
  constexpr std::int64_t kMaxVarId =
      std::numeric_limits<std::int32_t>::max() / 2;
  std::int64_t id = 0;
  if (scanInt(body, id) != IntScan::kOk || id == 0 || id > kMaxVarId) {
    throw OpbError("bad variable: " + std::string(tok));
  }
  return mkLit(static_cast<Var>(id - 1), negated);
}

/// The OPB parser: one pointer-bumping pass over the buffer.
PboProblem parseOpbBuffer(const InputBuffer& buf) {
  FastCursor cur(buf, '*', /*percentEndsInput=*/false);
  PboProblem problem;
  Var maxVar = -1;

  const auto noteVar = [&maxVar](Lit p) { maxVar = std::max(maxVar, p.var()); };

  std::string_view tok = cur.readWord();

  // Optional objective.
  if (tok == "min:") {
    tok = cur.readWord();
    while (!tok.empty() && tok != ";") {
      const std::string_view litTok = cur.readWord();
      if (litTok.empty()) throw OpbError("truncated objective");
      const Weight coeff = parseCoeff(tok);
      const Lit lit = parseLitToken(litTok);
      noteVar(lit);
      if (coeff >= 0) {
        if (coeff > 0) problem.objective.push_back({lit, coeff});
      } else {
        // -c*l == -c + c*(~l) with c = -coeff > 0.
        problem.objective.push_back({~lit, -coeff});
        if (problem.objectiveOffset <
            std::numeric_limits<Weight>::min() - coeff) {
          throw OpbError("objective offset overflows");
        }
        problem.objectiveOffset += coeff;
      }
      tok = cur.readWord();
    }
    if (tok.empty()) throw OpbError("objective missing ';'");
    tok = cur.readWord();
  }

  // Constraints.
  while (!tok.empty()) {
    std::vector<PbTerm> terms;
    while (!tok.empty() && !isRelop(tok)) {
      const std::string_view litTok = cur.readWord();
      if (litTok.empty()) throw OpbError("truncated constraint");
      const Weight coeff = parseCoeff(tok);
      const Lit lit = parseLitToken(litTok);
      noteVar(lit);
      terms.push_back({lit, coeff});
      tok = cur.readWord();
    }
    if (tok.empty()) throw OpbError("constraint missing relation");
    const std::string_view relop = tok;
    const std::string_view boundTok = cur.readWord();
    if (boundTok.empty()) throw OpbError("constraint missing bound");
    const Weight bound = parseCoeff(boundTok);
    if (cur.readWord() != ";") throw OpbError("constraint missing ';'");

    if (relop == "<=" || relop == "=") {
      problem.constraints.push_back({terms, bound});
    }
    if (relop == ">=" || relop == "=") {
      // sum(c*l) >= b  <=>  sum(-c*l) <= -b.
      std::vector<PbTerm> flipped = terms;
      for (PbTerm& t : flipped) t.coeff = -t.coeff;
      problem.constraints.push_back({std::move(flipped), -bound});
    }
    tok = cur.readWord();
  }

  problem.numVars = maxVar + 1;
  return problem;
}

}  // namespace

PboProblem readOpb(std::istream& in) {
  return parseOpbBuffer(InputBuffer::fromStream(in));
}

PboProblem parseOpb(const std::string& text) {
  return parseOpbBuffer(InputBuffer::borrow(text.data(), text.size()));
}

void writeOpb(std::ostream& out, const PboProblem& problem) {
  out << "* #variable= " << problem.numVars
      << " #constraint= " << problem.constraints.size() << "\n";
  if (problem.objectiveOffset != 0) {
    out << "* objective offset " << problem.objectiveOffset
        << " (not expressible in OPB; optimum values shift by it)\n";
  }
  if (!problem.objective.empty()) {
    out << "min:";
    for (const PbTerm& t : problem.objective) {
      // Re-expand complemented literals: c*(~x) == c - c*x; the constant
      // joins the (comment-only) offset.
      if (t.lit.positive()) {
        out << " +" << t.coeff << " x" << t.lit.var() + 1;
      } else {
        out << " -" << t.coeff << " x" << t.lit.var() + 1;
      }
    }
    out << " ;\n";
  }
  for (const PbConstraint& pc : problem.constraints) {
    bool first = true;
    Weight bound = pc.bound;
    for (const PbTerm& t : pc.terms) {
      Weight coeff = t.coeff;
      Var v = t.lit.var();
      if (t.lit.negative()) {
        // c*(~x) == c - c*x: move the constant to the bound.
        bound -= coeff;
        coeff = -coeff;
      }
      out << (first ? "" : " ") << (coeff >= 0 ? "+" : "") << coeff << " x"
          << v + 1;
      first = false;
    }
    if (pc.terms.empty()) out << "0 x1";
    out << " <= " << bound << " ;\n";
  }
  // Clauses are not representable in pure OPB; emit them as >= 1
  // pseudo-Boolean constraints.
  for (const Clause& c : problem.clauses) {
    bool first = true;
    Weight bound = 1;
    for (const Lit p : c) {
      Weight coeff = 1;
      if (p.negative()) {
        bound -= 1;
        coeff = -1;
      }
      out << (first ? "" : " ") << (coeff >= 0 ? "+" : "") << coeff << " x"
          << p.var() + 1;
      first = false;
    }
    if (c.empty()) out << "+1 x1 -1 x1";
    out << " >= " << bound << " ;\n";
  }
}

}  // namespace msu
