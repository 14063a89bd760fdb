#include "mus/gcnf_io.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

namespace msu {

GroupCnf readGcnf(std::istream& in) {
  GroupCnf gcnf;
  int declaredVars = 0;
  int declaredGroups = 0;
  bool sawHeader = false;

  std::string line;
  Clause current;
  int currentGroup = -2;  // -2: expecting a "{g}" tag next
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string tok;
    while (ls >> tok) {
      if (tok == "c") break;  // comment: rest of line
      if (tok == "p") {
        std::string fmt;
        int clauses = 0;
        if (!(ls >> fmt >> declaredVars >> clauses >> declaredGroups) ||
            fmt != "gcnf" || declaredVars < 0 || declaredGroups < 0) {
          throw GcnfError("bad problem line");
        }
        sawHeader = true;
        gcnf.ensureVars(declaredVars);
        for (int g = 0; g < declaredGroups; ++g) {
          static_cast<void>(gcnf.addGroup());
        }
        break;
      }
      if (!sawHeader) throw GcnfError("clause before problem line");
      if (currentGroup == -2) {
        if (tok.size() < 3 || tok.front() != '{' || tok.back() != '}') {
          throw GcnfError("expected group tag, got: " + tok);
        }
        try {
          std::size_t pos = 0;
          const std::string body = tok.substr(1, tok.size() - 2);
          currentGroup = std::stoi(body, &pos);
          if (pos != body.size()) throw GcnfError("bad group tag: " + tok);
        } catch (const GcnfError&) {
          throw;
        } catch (...) {
          throw GcnfError("bad group tag: " + tok);
        }
        if (currentGroup < 0 || currentGroup > declaredGroups) {
          throw GcnfError("group id out of range: " + tok);
        }
        continue;
      }
      std::int64_t value = 0;
      try {
        std::size_t pos = 0;
        value = std::stoll(tok, &pos);
        if (pos != tok.size()) throw GcnfError("bad literal: " + tok);
      } catch (const GcnfError&) {
        throw;
      } catch (...) {
        throw GcnfError("bad literal: " + tok);
      }
      if (value == 0) {
        if (currentGroup == 0) {
          gcnf.addBackground(current);
        } else {
          gcnf.addToGroup(currentGroup - 1, current);
        }
        current.clear();
        currentGroup = -2;
      } else {
        if (value < -declaredVars || value > declaredVars) {
          throw GcnfError("literal out of range: " + tok);
        }
        current.push_back(Lit::fromDimacs(static_cast<std::int32_t>(value)));
      }
    }
  }
  if (currentGroup != -2 || !current.empty()) {
    throw GcnfError("truncated final clause");
  }
  if (!sawHeader) throw GcnfError("missing problem line");
  return gcnf;
}

GroupCnf parseGcnf(const std::string& text) {
  std::istringstream in(text);
  return readGcnf(in);
}

void writeGcnf(std::ostream& out, const GroupCnf& gcnf) {
  int numClauses = static_cast<int>(gcnf.background().size());
  for (int g = 0; g < gcnf.numGroups(); ++g) {
    numClauses += static_cast<int>(gcnf.group(g).size());
  }
  out << "p gcnf " << gcnf.numVars() << ' ' << numClauses << ' '
      << gcnf.numGroups() << '\n';
  const auto emit = [&out](int tag, const Clause& c) {
    out << '{' << tag << '}';
    for (const Lit p : c) out << ' ' << p.toDimacs();
    out << " 0\n";
  };
  for (const Clause& c : gcnf.background()) emit(0, c);
  for (int g = 0; g < gcnf.numGroups(); ++g) {
    for (const Clause& c : gcnf.group(g)) emit(g + 1, c);
  }
}

}  // namespace msu
