/// \file clause.h
/// \brief The clause type: an ordered list of literals that keeps up to
///        four literals inside the object and moves longer ones to the
///        heap.

#pragma once

#include <algorithm>
#include <cassert>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <type_traits>

#include "cnf/literal.h"

namespace msu {

/// A clause is an ordered list of literals. Empty clauses are permitted
/// (they denote falsum) so parsers and transformations can represent
/// degenerate inputs faithfully.
///
/// The interface is the part of `std::vector<Lit>` the library uses, with
/// the same semantics: a contiguous range (so it converts to
/// `std::span<const Lit>`), lexicographic `==` and `<`, a `noexcept` move
/// that leaves the source empty, and a capacity that `clear` keeps. Up to
/// `kInline` literals live inside the object, so building, copying and
/// moving a short clause never allocates; nearly every generated and
/// parsed clause is that short (bench/README.md "Clauses keep up to four
/// literals inline"). A longer clause holds a buffer from
/// `std::allocator<Lit>` that grows geometrically and stays on the heap
/// until the clause is destroyed or moved from. The object is 24 bytes,
/// the size of a `std::vector<Lit>`.
class Clause {
 public:
  using value_type = Lit;
  using size_type = std::size_t;
  using iterator = Lit*;
  using const_iterator = const Lit*;

  /// Literals held without a heap buffer.
  static constexpr size_type kInline = 4;

  Clause() noexcept : heap_(nullptr) {}
  template <std::forward_iterator It>
  Clause(It first, It last) { assign(first, last); }
  Clause(std::initializer_list<Lit> lits) { assign(lits.begin(), lits.end()); }
  Clause(const Clause& o) { assign(o.begin(), o.end()); }
  Clause(Clause&& o) noexcept { take(o); }
  ~Clause() { release(); }

  Clause& operator=(const Clause& o) {
    if (this != &o) assign(o.begin(), o.end());
    return *this;
  }
  Clause& operator=(Clause&& o) noexcept {
    if (this != &o) {
      release();
      take(o);
    }
    return *this;
  }

  [[nodiscard]] Lit* data() noexcept { return onHeap() ? heap_ : inline_; }
  [[nodiscard]] const Lit* data() const noexcept {
    return onHeap() ? heap_ : inline_;
  }
  [[nodiscard]] iterator begin() noexcept { return data(); }
  [[nodiscard]] iterator end() noexcept { return data() + size_; }
  [[nodiscard]] const_iterator begin() const noexcept { return data(); }
  [[nodiscard]] const_iterator end() const noexcept { return data() + size_; }

  [[nodiscard]] size_type size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] size_type capacity() const noexcept { return cap_; }
  /// Bytes of the heap buffer; 0 while the literals are inline.
  [[nodiscard]] size_type heapBytes() const noexcept {
    return onHeap() ? cap_ * sizeof(Lit) : 0;
  }

  [[nodiscard]] Lit& operator[](size_type i) noexcept {
    assert(i < size_);
    return data()[i];
  }
  [[nodiscard]] const Lit& operator[](size_type i) const noexcept {
    assert(i < size_);
    return data()[i];
  }
  [[nodiscard]] Lit& back() noexcept { return (*this)[size_ - 1]; }
  [[nodiscard]] const Lit& back() const noexcept { return (*this)[size_ - 1]; }

  /// Ensures room for `n` literals; a move to the heap allocates exactly n.
  void reserve(size_type n) {
    if (n > cap_) reallocate(n);
  }
  void clear() noexcept { size_ = 0; }

  void push_back(Lit p) {
    if (size_ == cap_) reallocate(grown(size_type{size_} + 1));
    data()[size_++] = p;
  }

  iterator insert(const_iterator pos, Lit p) {
    assert(begin() <= pos && pos <= end());
    const auto i = static_cast<size_type>(pos - begin());
    if (size_ == cap_) reallocate(grown(size_type{size_} + 1));
    Lit* d = data();
    std::copy_backward(d + i, d + size_, d + size_ + 1);
    d[i] = p;
    ++size_;
    return d + i;
  }

  iterator erase(const_iterator first, const_iterator last) noexcept {
    assert(begin() <= first && first <= last && last <= end());
    Lit* d = data();
    Lit* at = d + (first - d);
    Lit* tail = std::copy(d + (last - d), end(), at);
    size_ = static_cast<std::uint32_t>(tail - d);
    return at;
  }
  iterator erase(const_iterator pos) noexcept {
    assert(pos < end());
    return erase(pos, pos + 1);
  }

  friend bool operator==(const Clause& a, const Clause& b) noexcept {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend std::strong_ordering operator<=>(const Clause& a,
                                          const Clause& b) noexcept {
    return std::lexicographical_compare_three_way(a.begin(), a.end(),
                                                  b.begin(), b.end());
  }

 private:
  static constexpr size_type kMaxSize =
      std::numeric_limits<std::uint32_t>::max();

  [[nodiscard]] bool onHeap() const noexcept { return cap_ > kInline; }

  /// Replaces the contents; reuses the current storage when it fits.
  template <std::forward_iterator It>
  void assign(It first, It last) {
    size_ = 0;
    const auto n = static_cast<size_type>(std::distance(first, last));
    reserve(n);
    std::copy(first, last, data());
    size_ = static_cast<std::uint32_t>(n);
  }

  /// Capacity for `needed` literals: at least double the current one.
  [[nodiscard]] size_type grown(size_type needed) const {
    return std::max(needed, std::min(2 * size_type{cap_}, kMaxSize));
  }

  /// Moves the literals to a heap buffer of exactly `n` (> capacity).
  void reallocate(size_type n) {
    if (n > kMaxSize) throw std::length_error("Clause: too many literals");
    Lit* p = std::allocator<Lit>{}.allocate(n);
    std::copy(begin(), end(), p);
    release();
    heap_ = p;
    cap_ = static_cast<std::uint32_t>(n);
  }

  void release() noexcept {
    if (onHeap()) std::allocator<Lit>{}.deallocate(heap_, cap_);
  }

  /// Adopts o's literals (and buffer) and leaves o empty and inline.
  void take(Clause& o) noexcept {
    size_ = o.size_;
    cap_ = o.cap_;
    if (o.onHeap()) {
      heap_ = o.heap_;
    } else {
      std::memcpy(inline_, o.inline_, sizeof inline_);
    }
    o.size_ = 0;
    o.cap_ = kInline;
  }

  union {
    Lit inline_[kInline];
    Lit* heap_;
  };
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = kInline;
};

static_assert(sizeof(Clause) == 24, "a Clause is as small as a vector");
static_assert(std::is_nothrow_move_constructible_v<Clause>);

}  // namespace msu
