/// \file arena.h
/// \brief Clause storage for the CDCL engine: a contiguous arena of
///        32-bit words with relocation-based garbage collection, in the
///        MiniSat tradition. Clause references (CRef) are stable offsets
///        until a GC, at which point every holder relocates through
///        ClauseArena::reloc().
///
/// Clauses emitted inside an encoding scope (see Solver::newActivator /
/// Solver::retire) carry an *activator tag*: the variable of the guard
/// literal that owns them. The tag word is only materialised for tagged
/// clauses, so plain SAT workloads pay nothing; retire() uses it to find
/// a scope's original clauses and learnt descendants without scanning
/// their literals.

#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <vector>

#include "cnf/literal.h"

namespace msu {

/// Reference to a clause inside a ClauseArena (word offset).
using CRef = std::uint32_t;

/// Sentinel for "no clause".
inline constexpr CRef kCRefUndef = 0xFFFFFFFFu;

/// Mutable view over a clause stored in an arena.
///
/// Layout (32-bit words):
///   word 0: header — size<<4 | tagged<<3 | relocated<<2 | deleted<<1 | learnt
///   word 1: float activity       (learnt clauses only)
///   then `size` literal words,
///   then the activator tag word  (tagged clauses only: guard variable).
///
/// The tag word trails the literals so that the literal base offset
/// depends on the learnt bit alone — the propagation loop's literal
/// accesses stay exactly as cheap as without tagging (moving the tag
/// into the leading header words costs ~15% pure-UP throughput).
class ClauseRefView {
 public:
  explicit ClauseRefView(std::uint32_t* base) : base_(base) {}

  [[nodiscard]] int size() const { return static_cast<int>(base_[0] >> 4); }
  [[nodiscard]] bool learnt() const { return (base_[0] & 1u) != 0; }
  [[nodiscard]] bool deleted() const { return (base_[0] & 2u) != 0; }
  [[nodiscard]] bool relocated() const { return (base_[0] & 4u) != 0; }
  [[nodiscard]] bool tagged() const { return (base_[0] & 8u) != 0; }

  void markDeleted() { base_[0] |= 2u; }

  /// Activator variable owning a tagged clause.
  [[nodiscard]] Var tag() const {
    assert(tagged());
    return static_cast<Var>(litBase()[size()]);
  }

  /// Activity of a learnt clause (word 1).
  [[nodiscard]] float activity() const {
    assert(learnt());
    return std::bit_cast<float>(base_[1]);
  }
  void setActivity(float a) {
    assert(learnt());
    base_[1] = std::bit_cast<std::uint32_t>(a);
  }

  [[nodiscard]] Lit& operator[](int i) {
    assert(i >= 0 && i < size());
    return *reinterpret_cast<Lit*>(&litBase()[i]);
  }
  [[nodiscard]] Lit operator[](int i) const {
    assert(i >= 0 && i < size());
    return Lit::fromIndex(static_cast<std::int32_t>(litBase()[i]));
  }

  /// Read-only span over the literals.
  [[nodiscard]] std::span<const Lit> lits() const {
    return {reinterpret_cast<const Lit*>(litBase()),
            static_cast<std::size_t>(size())};
  }

  /// Shrinks the clause to its first `newSize` literals. The trailing
  /// tag word (if any) moves to the new end; the abandoned words are
  /// reclaimed at the next GC like any other slack.
  void shrink(int newSize) {
    assert(newSize >= 0 && newSize <= size());
    if (tagged()) litBase()[newSize] = litBase()[size()];
    base_[0] = (static_cast<std::uint32_t>(newSize) << 4) | (base_[0] & 15u);
  }

  /// Removes the literal at index `i`, preserving the order of the rest
  /// (watch positions of the survivors keep their meaning) and the
  /// trailing activator tag. Used by inprocessing strengthening; the
  /// caller is responsible for the clause being detached.
  void removeLiteralAt(int i) {
    assert(i >= 0 && i < size());
    std::uint32_t* lits = litBase();
    for (int k = i; k + 1 < size(); ++k) lits[k] = lits[k + 1];
    shrink(size() - 1);
  }

  /// Forwarding pointer support for GC relocation.
  void setRelocated(CRef to) {
    base_[0] |= 4u;
    litBase()[0] = to;
  }
  [[nodiscard]] CRef relocation() const {
    assert(relocated());
    return litBase()[0];
  }

  /// Non-literal words of the stored clause (header + activity word +
  /// trailing tag word).
  [[nodiscard]] int headerWords() const {
    return 1 + (learnt() ? 1 : 0) + (tagged() ? 1 : 0);
  }

 private:
  /// Depends on the learnt bit only (the tag word trails the literals),
  /// keeping the propagation loop's literal accesses at seed cost.
  [[nodiscard]] std::uint32_t* litBase() const {
    return base_ + ((base_[0] & 1u) != 0 ? 2 : 1);
  }

  std::uint32_t* base_;
};

/// Arena allocator for clauses with copying garbage collection.
class ClauseArena {
 public:
  ClauseArena() { mem_.reserve(1u << 16); }

  /// True iff allocating a clause of `nLits` literals could push a CRef
  /// past the 31-bit ceiling that Reason's tag bit imposes (2^31 words
  /// = 8 GiB of clause storage). The solver's load path checks this and
  /// fails cooperatively (AbortReason::kMemory) instead of aborting;
  /// alloc() itself keeps the hard abort as the search-path backstop.
  [[nodiscard]] bool wouldOverflow(std::size_t nLits) const {
    return mem_.size() + nLits + 4 > (1u << 31);
  }

  /// Allocates a clause; returns its reference. `tagVar`, when defined,
  /// records the activator variable owning the clause (see retire()).
  [[nodiscard]] CRef alloc(std::span<const Lit> lits, bool learnt,
                           Var tagVar = kUndefVar) {
    // CRefs must stay below 2^31: the solver packs a tag bit beside
    // them (see Reason in watches.h). Fail loudly rather than hand out
    // references whose top bit would be misread as the binary tag.
    if (wouldOverflow(lits.size())) std::abort();
    const auto size = static_cast<std::uint32_t>(lits.size());
    const bool tagged = tagVar != kUndefVar;
    const CRef ref = static_cast<CRef>(mem_.size());
    mem_.push_back((size << 4) | (tagged ? 8u : 0u) | (learnt ? 1u : 0u));
    if (learnt) mem_.push_back(std::bit_cast<std::uint32_t>(0.0f));
    for (Lit p : lits) {
      mem_.push_back(static_cast<std::uint32_t>(p.index()));
    }
    if (tagged) mem_.push_back(static_cast<std::uint32_t>(tagVar));
    return ref;
  }

  /// View over the clause at `ref`.
  [[nodiscard]] ClauseRefView operator[](CRef ref) {
    assert(ref < mem_.size());
    return ClauseRefView(mem_.data() + ref);
  }
  [[nodiscard]] const ClauseRefView operator[](CRef ref) const {
    assert(ref < mem_.size());
    return ClauseRefView(const_cast<std::uint32_t*>(mem_.data()) + ref);
  }

  /// Records that a clause of the given stored size was logically freed.
  void markWasted(int clauseSize, bool learnt, bool tagged = false) {
    wasted_ += static_cast<std::uint32_t>(clauseSize) + 1u +
               (learnt ? 1u : 0u) + (tagged ? 1u : 0u);
  }

  /// Records words abandoned by an in-place clause shrink (inprocessing
  /// strengthening), so the slack still counts towards the GC trigger.
  void markWastedWords(int words) {
    wasted_ += static_cast<std::uint32_t>(words);
  }

  /// Words logically wasted by deleted clauses.
  [[nodiscard]] std::size_t wasted() const { return wasted_; }

  /// Total words in use.
  [[nodiscard]] std::size_t size() const { return mem_.size(); }

  /// Backing-store footprint in bytes (allocated capacity, not just the
  /// words in use) — the arena's contribution to the solver's
  /// cooperative memory accounting.
  [[nodiscard]] std::size_t bytes() const {
    return mem_.capacity() * sizeof(std::uint32_t);
  }

  /// Moves the clause at `ref` into `to`, leaving a forwarding pointer,
  /// and updates `ref` in place. Safe to call repeatedly for the same
  /// clause through different holders.
  void reloc(CRef& ref, ClauseArena& to) {
    ClauseRefView c = (*this)[ref];
    if (c.relocated()) {
      ref = c.relocation();
      return;
    }
    const CRef fresh =
        to.alloc(c.lits(), c.learnt(), c.tagged() ? c.tag() : kUndefVar);
    if (c.learnt()) to[fresh].setActivity(c.activity());
    if (c.deleted()) to[fresh].markDeleted();
    c.setRelocated(fresh);
    ref = fresh;
  }

  /// Steals the contents of `other` (used to finish a GC cycle).
  void adopt(ClauseArena&& other) {
    mem_ = std::move(other.mem_);
    wasted_ = 0;
  }

 private:
  std::vector<std::uint32_t> mem_;
  std::size_t wasted_ = 0;
};

}  // namespace msu
