/// \file gcnf_io.h
/// \brief Reader/writer for the GCNF group-CNF interchange format used
///        by the group-MUS track of the MUS competitions:
///
///        p gcnf <vars> <clauses> <groups>
///        {0} <lits> 0        — background (group 0) clause
///        {g} <lits> 0        — clause of group g (1-based)
///
/// Internally groups are 0-based (`GroupCnf` group ids); the format's
/// group 0 maps to the background and format group g to id g-1.

#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "mus/mus.h"

namespace msu {

/// Error raised on malformed GCNF input.
class GcnfError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parses a GCNF stream. Throws GcnfError on malformed input.
[[nodiscard]] GroupCnf readGcnf(std::istream& in);

/// Parses a GCNF string.
[[nodiscard]] GroupCnf parseGcnf(const std::string& text);

/// Writes a GroupCnf in GCNF syntax.
void writeGcnf(std::ostream& out, const GroupCnf& gcnf);

}  // namespace msu
