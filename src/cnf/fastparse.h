/// \file fastparse.h
/// \brief Zero-copy parser core shared by the DIMACS CNF, WCNF (old
///        `p wcnf` and 2022 `h`-line) and OPB front ends.
///
/// The huge-instance ingest path: an `InputBuffer` owns the raw bytes
/// (mmap(2) for regular files, a single read()-into-buffer slurp for
/// pipes and streams, or a borrowed view for in-memory strings) and a
/// `FastCursor` scans them with a hand-rolled pointer-bumping lexer —
/// no iostreams, no per-token std::string, branch-light digit loops.
/// It is the only lexer: `dimacs.cpp` and `opb.cpp` are thin adapters
/// over it. Every integer token goes through `scanInt`, except clean
/// tokens of at most 9 digits on the clause and weight fast paths,
/// which cannot overflow.
///
/// Comment handling is strictly line-anchored: a comment begins only
/// when the comment character ('c' for DIMACS, '*' for OPB) is the
/// first non-blank character of a line. A token like `cat` in the
/// middle of a clause is a parse error, never a silent comment-to-EOL.
/// A line whose first non-blank character is '%' ends the input (SAT
/// competition convention) when the format enables it.
///
/// Errors are reported with 1-based line numbers and thrown as
/// DimacsError (format parsers with their own error type, e.g. OPB's
/// OpbError, use the non-throwing primitives and throw their own).

#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>

#include "cnf/dimacs.h"

namespace msu {

/// Outcome of scanInt.
enum class IntScan { kOk, kMalformed, kOverflow };

/// The one integer scan of every front end: an optional sign, then
/// decimal digits that fill `tok` exactly. Stores the value in `out`
/// and returns kOk only when |value| <= INT64_MAX, so a caller may
/// negate any value it gets (INT64_MIN is out of range). A token with
/// a non-digit is kMalformed, even when its digits also overflow.
[[nodiscard]] inline IntScan scanInt(std::string_view tok,
                                     std::int64_t& out) {
  bool neg = false;
  if (!tok.empty() && (tok[0] == '-' || tok[0] == '+')) {
    neg = tok[0] == '-';
    tok.remove_prefix(1);
  }
  if (tok.empty()) return IntScan::kMalformed;
  std::uint64_t v = 0;  // wraps past 19 digits, caught below
  for (const char ch : tok) {
    if (ch < '0' || ch > '9') return IntScan::kMalformed;
    v = v * 10 + static_cast<std::uint64_t>(ch - '0');
  }
  constexpr auto kMax =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  // 19 digits cannot wrap uint64, and INT64_MAX's negation is in range.
  if (tok.size() > 19 || v > kMax) return IntScan::kOverflow;
  const auto sv = static_cast<std::int64_t>(v);
  out = neg ? -sv : sv;
  return IntScan::kOk;
}

/// Owns (or borrows) the bytes of one input. Move-only; unmaps/frees on
/// destruction. `data()` is NOT NUL-terminated — always honor `size()`.
class InputBuffer {
 public:
  /// Maps `path` with mmap(2); falls back to read()-into-buffer when
  /// the file is not mappable (pipe, /proc, zero-length). Throws
  /// DimacsError when the file cannot be opened or read.
  [[nodiscard]] static InputBuffer fromFile(const std::string& path);

  /// Slurps a stream to EOF into an owned buffer (the pipe path).
  [[nodiscard]] static InputBuffer fromStream(std::istream& in);

  /// Takes ownership of `text`.
  [[nodiscard]] static InputBuffer fromString(std::string text);

  /// Borrows `[data, data+size)` without copying; the caller keeps the
  /// bytes alive for the buffer's lifetime.
  [[nodiscard]] static InputBuffer borrow(const char* data, std::size_t size);

  InputBuffer() = default;
  InputBuffer(InputBuffer&& other) noexcept { *this = std::move(other); }
  InputBuffer& operator=(InputBuffer&& other) noexcept;
  InputBuffer(const InputBuffer&) = delete;
  InputBuffer& operator=(const InputBuffer&) = delete;
  ~InputBuffer() { release(); }

  [[nodiscard]] const char* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// True iff the bytes came from mmap (vs an owned or borrowed buffer);
  /// lets tests pin mmap-vs-fallback equivalence.
  [[nodiscard]] bool mapped() const { return mapped_; }

 private:
  void release();

  const char* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
  bool owns_ = false;  // data_ points into owned_ (re-derived on move)
  std::string owned_;
};

/// Pointer-bumping lexer over a byte range. Tracks line numbers for
/// diagnostics and skips line-anchored comment lines transparently.
class FastCursor {
 public:
  FastCursor(const char* data, std::size_t size, char commentChar,
             bool percentEndsInput)
      : p_(data),
        end_(data + size),
        comment_(commentChar),
        percent_eof_(percentEndsInput) {}

  explicit FastCursor(const InputBuffer& buf, char commentChar = 'c',
                      bool percentEndsInput = true)
      : FastCursor(buf.data(), buf.size(), commentChar, percentEndsInput) {}

  /// Advances to the first character of the next token, skipping
  /// whitespace, blank lines and comment lines. Returns false at end of
  /// input (including a '%' terminator line).
  bool skipToToken();

  /// First character of the pending token; call after skipToToken().
  [[nodiscard]] char peek() const { return *p_; }

  /// skipToToken() + scanInt over the whitespace-delimited token.
  /// Throws DimacsError naming `what`, the offending token and the line
  /// on malformed input, overflow or end of input.
  std::int64_t readInt(const char* what);

  /// skipToToken() + scan of one whitespace-delimited token as a view
  /// into the buffer (no allocation). Empty view at end of input.
  std::string_view readWord();

  /// readInt with an inlined fast path for clean short tokens (sign +
  /// <= 9 digits followed by whitespace). Anything else — comments to
  /// skip, long or malformed tokens, end of input — falls back to
  /// readInt unchanged, so values and diagnostics are identical. Used
  /// for per-clause weights, where readInt's call-per-token overhead
  /// shows up on huge WCNF inputs.
  std::int64_t readIntQuick(const char* what);

  /// Fused clause-body reader: `<lits> 0` with a declared-range check
  /// against `maxVar`, appended to `out` (cleared first). Semantically
  /// identical to a readInt("literal") loop — every irregular token
  /// (overlong digits, stray word, mid-clause end of input) is re-read
  /// through readInt so diagnostics match exactly — but the common
  /// all-digit case keeps the cursor in registers across the whole
  /// clause. This loop is most of the parse wall on huge instances.
  void readClauseLits(int maxVar, Clause& out);

  /// Skips blanks (not newlines) and throws DimacsError naming `where`
  /// unless positioned at end of line / end of input. Pins the strict
  /// "no trailing tokens" rule for header lines.
  void expectEndOfLine(const char* where);

  /// True iff another token sits on the current line (lookahead only;
  /// consumes nothing). Distinguishes an optional trailing field (the
  /// wcnf header's `top`) from the end of a line.
  [[nodiscard]] bool peekMoreOnLine() const;

  /// 1-based line number of the cursor position.
  [[nodiscard]] int line() const { return line_; }

  /// Throws DimacsError with `msg` and the current line appended.
  [[noreturn]] void fail(const std::string& msg) const;

 private:
  /// Token under the cursor as a view (for error messages).
  [[nodiscard]] std::string_view pendingToken() const;

  const char* p_;
  const char* end_;
  int line_ = 1;
  bool bol_ = true;  // at line start (only blanks seen on this line)
  char comment_;
  bool percent_eof_;
};

class Solver;

/// Streams a DIMACS CNF straight into `solver` under one bulk-load
/// scope — no intermediate CnfFormula and no per-clause heap
/// allocation (clauses land in the solver's flat arena as they are
/// lexed). The fastest ingest path for huge instances; grows the
/// solver's variable universe to the header's declared count. Returns
/// `solver.okay()` after the final root-level propagation. Throws
/// DimacsError on malformed input.
bool fastLoadDimacsCnfInto(const InputBuffer& buf, Solver& solver);

/// Parses DIMACS CNF from a buffer. Throws DimacsError.
[[nodiscard]] CnfFormula fastParseDimacsCnf(const InputBuffer& buf);

/// Parses DIMACS WCNF from a buffer: the old `p wcnf <vars> <clauses>
/// [top]` format, the 2022 headerless format (`h`-prefixed hard
/// clauses, weight-prefixed softs), or a plain `p cnf` instance lifted
/// to all-soft weight 1. Throws DimacsError, also when the soft weights
/// sum to INT64_MAX or more: the total stays below it, so
/// `totalSoftWeight() + 1` (the writer's top, the engines' "no model
/// yet" cost) is representable.
[[nodiscard]] WcnfFormula fastParseDimacsWcnf(const InputBuffer& buf);

}  // namespace msu
