/// \file clause_pool.h
/// \brief The shared learnt-clause exchange of the parallel portfolio:
///        per-worker lock-free SPMC segments with one export/import
///        endpoint per worker.
///
/// ## Why sharing across *heterogeneous* engines is sound
///
/// Every worker solves the same MaxSAT instance, but each engine mixes
/// the instance's hard clauses with clauses of its own: selector-
/// augmented soft clauses `(C_i ∨ s_i)`, cardinality/PB encodings over
/// the selectors, bound restrictions, at-least-one-blocking clauses.
/// Those additions are *not* consequences of the instance — importing
/// them (or anything derived from them) into a worker at a different
/// search state could cut optimal models and change the answer.
///
/// The export filter (Solver::maybeExportLearnt) admits only clauses
/// whose variables all lie in the shared prefix `[0, numVars)` of the
/// original formula. That is sufficient because the engine layer keeps
/// every addition in one of two shapes:
///
///  * a *conservative extension*: selector-augmented softs (the
///    selector appears only positively, so setting it true satisfies
///    the clause under any assignment of the originals) and encoding
///    definitions over fresh auxiliaries — any model of the hard
///    clauses extends to a model of these; or
///  * a *guarded restriction*: everything that genuinely cuts models
///    (bound units, per-bound structures) lives in an encoding scope,
///    so each clause carries a `~act` guard whose positive literal
///    appears in no clause whatsoever — resolution can never eliminate
///    the guard, and every learnt descendant keeps a literal above the
///    shared prefix. (IncrementalAtMost routes even the growing
///    totalizer's and sorter's monotone bound units through a permanent
///    scope for exactly this reason; clauses touching activator-tagged
///    scope variables are thus never exported, which also keeps
///    sharing sound under physical scope retirement.)
///
/// Hence any learnt clause over original variables only is derivable
/// from the hard clauses plus conservative extensions alone, and by
/// conservativity is a consequence of the hard clauses — attachable by
/// every other worker, whatever its engine, bound state or retirement
/// history. The portfolio only hands endpoints to engines that obey
/// this discipline (see PortfolioOptions::engines).
///
/// ## Mechanics (sharded, lock-free)
///
/// The pool keeps one *segment* per worker: an epoch-chunked append-only
/// arena that only its owning worker writes. Publication is a single
/// release store of the chunk's record count (readers acquire it), and
/// chunk growth is a release store of the `next` pointer — the export
/// hot path takes no lock and allocates only at chunk boundaries.
/// Segments never recycle storage, so readers can hold spans into them
/// without coordination; a per-segment chunk ceiling bounds memory, and
/// publications beyond it are dropped and counted (the exporter sees
/// the drop and accounts it in SolverStats::shared_export_drops).
///
/// Each endpoint keeps one read cursor per *foreign* segment, so a
/// worker imports every clause published by others at most once and
/// never re-imports its own exports. Deduplication is per-endpoint: an
/// endpoint remembers the fingerprints of every clause it has published
/// or delivered and skips duplicates on both paths. (The old global
/// first-publisher-wins dedup needed the lock; the per-endpoint set
/// preserves the invariant that matters — no worker ever attaches the
/// same clause twice — without any cross-thread state.) Duplicate
/// publications from different producers can briefly coexist in the
/// store; they cost segment space, never a double attach.
///
/// Thread-safety summary: an endpoint is driven by exactly one worker
/// thread (exports and imports both). Cross-thread traffic flows only
/// through the chunks' atomic `published` counters and `next` pointers
/// (release/acquire pairs), plus relaxed monotone counters for
/// observability.

#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "cnf/literal.h"
#include "sat/share.h"

namespace msu {

/// Sharded clause store + per-worker endpoints. Endpoints are handed to
/// Solver::Options::share and must not outlive the pool.
class SharedClausePool {
 public:
  /// Literal slots per chunk (16 KiB of literals).
  static constexpr std::uint32_t kChunkLits = 1u << 12;
  /// Clause records per chunk.
  static constexpr std::uint32_t kChunkRecs = 1u << 9;
  /// Chunks a segment may grow to before exports are dropped (bounds a
  /// segment at ~20 KiB * kMaxChunks; sharing traffic is deliberately
  /// thin, so a full segment signals a pathological export rate).
  static constexpr int kMaxChunks = 64;

  /// `numWorkers` fixes the endpoint count; `numSharedVars` is the
  /// shared variable prefix (clauses are validated against it in debug
  /// builds — the exporting solver already filters).
  SharedClausePool(int numWorkers, int numSharedVars)
      : num_shared_vars_(numSharedVars) {
    segments_.reserve(static_cast<std::size_t>(numWorkers));
    endpoints_.reserve(static_cast<std::size_t>(numWorkers));
    for (int w = 0; w < numWorkers; ++w) {
      segments_.push_back(std::make_unique<Segment>());
    }
    for (int w = 0; w < numWorkers; ++w) {
      endpoints_.push_back(
          std::unique_ptr<Endpoint>(new Endpoint(this, w, numWorkers)));
    }
  }

  SharedClausePool(const SharedClausePool&) = delete;
  SharedClausePool& operator=(const SharedClausePool&) = delete;

  /// Worker `w`'s exchange endpoint (attach to Solver::Options::share).
  [[nodiscard]] ClauseShare* endpoint(int w) {
    return endpoints_[static_cast<std::size_t>(w)].get();
  }

  /// Clauses currently published across all segments. (Unlike the old
  /// globally-deduplicated store, the same clause published by two
  /// producers counts twice here; dedup happens at the endpoints.)
  [[nodiscard]] std::int64_t numClauses() const {
    std::int64_t n = 0;
    for (const auto& seg : segments_) {
      n += seg->published_total.load(std::memory_order_relaxed);
    }
    return n;
  }

  /// Publications or deliveries skipped by endpoint fingerprint dedup.
  [[nodiscard]] std::int64_t numDuplicates() const {
    std::int64_t n = 0;
    for (const auto& ep : endpoints_) {
      n += ep->duplicates.load(std::memory_order_relaxed);
    }
    return n;
  }

  /// Exports dropped because the producer's segment hit its chunk
  /// ceiling.
  [[nodiscard]] std::int64_t numExportDrops() const {
    std::int64_t n = 0;
    for (const auto& seg : segments_) {
      n += seg->drops.load(std::memory_order_relaxed);
    }
    return n;
  }

 private:
  /// Location of one clause inside its chunk's literal array.
  struct Rec {
    std::uint32_t offset;
    std::uint32_t size;
  };

  /// One epoch of a segment. The owning producer fills `lits`/`recs`
  /// and publishes with a release store of `published`; once `next` is
  /// set the chunk is frozen (its `published` never moves again).
  struct Chunk {
    std::array<Lit, kChunkLits> lits;
    std::array<Rec, kChunkRecs> recs;
    std::atomic<std::uint32_t> published{0};
    std::atomic<Chunk*> next{nullptr};
    // Producer-private write positions (readers never touch these).
    std::uint32_t lits_used = 0;
    std::uint32_t recs_used = 0;
  };

  /// One worker's append-only publication arena.
  struct Segment {
    Segment() : head(new Chunk), tail(head) {}
    ~Segment() {
      for (Chunk* c = head; c != nullptr;) {
        Chunk* n = c->next.load(std::memory_order_relaxed);
        delete c;
        c = n;
      }
    }
    Chunk* const head;  ///< readers start here; immutable
    Chunk* tail;        ///< producer-private current chunk
    int num_chunks = 1; ///< producer-private
    std::atomic<std::int64_t> published_total{0};
    std::atomic<std::int64_t> drops{0};
  };

  /// One reader's position inside a foreign segment.
  struct Cursor {
    const Chunk* chunk = nullptr;  ///< lazily seated at segment head
    std::uint32_t rec = 0;         ///< next unread record in `chunk`
    std::int64_t consumed = 0;     ///< records scanned so far (pending check)
  };

  /// One worker's view of the pool. Owned and driven by exactly one
  /// thread; `duplicates` is atomic only so tests may read it after the
  /// workers joined.
  class Endpoint final : public ClauseShare {
   public:
    Endpoint(SharedClausePool* pool, int worker, int numWorkers)
        : pool_(pool), worker_(worker) {
      cursors_.resize(static_cast<std::size_t>(numWorkers));
    }

    bool exportClause(std::span<const Lit> lits, int glue) override {
      static_cast<void>(glue);  // the exporter already filtered on it
      if (!seen_.insert(fingerprint(lits)).second) {
        duplicates.fetch_add(1, std::memory_order_relaxed);
        return false;  // already published or imported by this worker
      }
      return pool_->publish(worker_, lits);
    }

    int importClauses(
        const std::function<void(std::span<const Lit>)>& consume,
        int maxClauses) override {
      int scanned = 0;
      int delivered = 0;
      const int n = static_cast<int>(cursors_.size());
      // Rotate the starting producer so a budget cap cannot starve the
      // later segments forever.
      rotate_ = (rotate_ + 1) % n;
      for (int step = 0; step < n; ++step) {
        const int p = (rotate_ + step) % n;
        if (p == worker_) continue;
        const Segment& seg = *pool_->segments_[static_cast<std::size_t>(p)];
        Cursor& cur = cursors_[static_cast<std::size_t>(p)];
        if (cur.chunk == nullptr) cur.chunk = seg.head;
        while (maxClauses < 0 || delivered < maxClauses) {
          const std::uint32_t pub =
              cur.chunk->published.load(std::memory_order_acquire);
          if (cur.rec >= pub) {
            const Chunk* next = cur.chunk->next.load(std::memory_order_acquire);
            if (next == nullptr) break;  // fully drained for now
            cur.chunk = next;
            cur.rec = 0;
            continue;
          }
          const Rec r = cur.chunk->recs[cur.rec++];
          ++cur.consumed;
          ++scanned;
          const std::span<const Lit> lits(cur.chunk->lits.data() + r.offset,
                                          r.size);
          if (!seen_.insert(fingerprint(lits)).second) {
            duplicates.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          ++delivered;
          consume(lits);
        }
      }
      return scanned;
    }

    [[nodiscard]] bool hasPending() const override {
      const int n = static_cast<int>(cursors_.size());
      for (int p = 0; p < n; ++p) {
        if (p == worker_) continue;
        const Segment& seg = *pool_->segments_[static_cast<std::size_t>(p)];
        if (seg.published_total.load(std::memory_order_relaxed) >
            cursors_[static_cast<std::size_t>(p)].consumed) {
          return true;
        }
      }
      return false;
    }

    std::atomic<std::int64_t> duplicates{0};

   private:
    SharedClausePool* pool_;
    int worker_;
    int rotate_ = -1;  // first drain starts at producer 0
    std::vector<Cursor> cursors_;  ///< one per producer segment
    std::unordered_set<std::uint64_t> seen_;  ///< published/imported fps
  };

  /// Appends `lits` to worker `w`'s segment. Producer-only except for
  /// the release publication stores. Returns false on a segment-full
  /// drop.
  bool publish(int w, std::span<const Lit> lits) {
    assert(!lits.empty() && lits.size() <= kChunkLits);
    Segment& seg = *segments_[static_cast<std::size_t>(w)];
#ifndef NDEBUG
    for (const Lit p : lits) {
      assert(p.var() >= 0 && p.var() < num_shared_vars_);
    }
#endif
    Chunk* c = seg.tail;
    const auto size = static_cast<std::uint32_t>(lits.size());
    if (c->recs_used == kChunkRecs || c->lits_used + size > kChunkLits) {
      if (seg.num_chunks >= kMaxChunks) {
        seg.drops.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      // New epoch: fill the fresh chunk completely, then link it with a
      // release store — readers acquire `next`, which carries the
      // clause data and the initial `published` count with it.
      Chunk* n = new Chunk;
      std::copy(lits.begin(), lits.end(), n->lits.begin());
      n->recs[0] = Rec{0, size};
      n->lits_used = size;
      n->recs_used = 1;
      n->published.store(1, std::memory_order_relaxed);
      c->next.store(n, std::memory_order_release);
      seg.tail = n;
      ++seg.num_chunks;
    } else {
      std::copy(lits.begin(), lits.end(), c->lits.begin() + c->lits_used);
      c->recs[c->recs_used] = Rec{c->lits_used, size};
      c->lits_used += size;
      ++c->recs_used;
      // Publication point: everything written above becomes visible to
      // any reader that acquires the new count.
      c->published.store(c->recs_used, std::memory_order_release);
    }
    seg.published_total.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Fingerprint over the *sorted* literal set, so the same clause
  /// learnt in different literal orders by different workers
  /// deduplicates.
  [[nodiscard]] static std::uint64_t fingerprint(std::span<const Lit> lits) {
    std::array<std::int32_t, 64> buf;  // export ceiling is far below this
    const std::size_t n = std::min(lits.size(), buf.size());
    for (std::size_t i = 0; i < n; ++i) buf[i] = lits[i].index();
    std::sort(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(n));
    std::uint64_t h = 0x9E3779B97F4A7C15ull ^ (n * 0x2545F4914F6CDD1Dull);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(buf[i]));
      h *= 0x100000001B3ull;
      h ^= h >> 29;
    }
    return h;
  }

  int num_shared_vars_;
  std::vector<std::unique_ptr<Segment>> segments_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
};

}  // namespace msu
