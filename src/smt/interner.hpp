// Hash-consing of condition formulas.
//
// Every FormulaNode the smart constructors build is routed through the
// process-wide FormulaInterner, so structurally equal formulas share one
// node and Formula::operator== is a pointer comparison. That turns the
// hot syntactic paths of fixed-point evaluation — conj/disj dedup,
// impliesSyntactically's conjunct-set scans, CTable condition merging —
// into O(1) identity tests, and gives the solver's VerdictCache a stable
// key (the node address) for memoizing check()/implies() verdicts.
//
// The interner holds weak references only: a formula nobody uses anymore
// is freed normally, and its table slot is swept lazily (on bucket walk
// and on periodic table growth), so long-running sessions do not leak
// every condition they ever built. Thread-safe: the table is sharded by
// node hash, one mutex per shard, so concurrent scenario forks interning
// join conditions rarely contend.
//
// The interner also keeps each node's complement link (Formula::neg's
// memo, DESIGN.md §8). A link is written under the node's shard lock and
// read lock-free. It is strong toward the node created later and weak
// toward the older one, so A <-> NOT A never forms a shared_ptr cycle.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "smt/formula.hpp"

namespace faure::smt {

class FormulaInterner {
 public:
  /// The process-wide instance (formulas from different registries can
  /// share structure; c-variable *semantics* never enter the node).
  static FormulaInterner& instance();

  /// Returns the canonical shared node structurally equal to `node`,
  /// creating it if absent. `node.hash` must already be set and `node`'s
  /// children must themselves be interned (true for everything built
  /// through Formula's factories — kids are compared by pointer).
  std::shared_ptr<const FormulaNode> intern(FormulaNode&& node);

  /// The recorded negation of `node`, or null when none is recorded or
  /// the (older, weakly held) one has been freed. Lock-free.
  std::shared_ptr<const FormulaNode> negation(const FormulaNode& node);

  /// Records `neg` as the negation of `node` and returns the recorded
  /// node: `neg` itself, or the equal node another thread recorded first.
  std::shared_ptr<const FormulaNode> linkNegation(
      const FormulaNode& node, std::shared_ptr<const FormulaNode> neg);

  struct Stats {
    uint64_t hits = 0;        // intern() found an existing node
    uint64_t misses = 0;      // intern() created a node
    uint64_t sweeps = 0;      // full expired-entry sweeps
    uint64_t negHits = 0;     // neg() answered from a complement link
    uint64_t negMisses = 0;   // neg() computed and linked a negation
    size_t entries = 0;       // live (non-expired at last count) entries
  };
  Stats stats() const;

  /// Sets the smt.interner.* gauges of a run report from stats(): calls,
  /// new_nodes, live_nodes, neg_hits, neg_misses. They are gauges, not
  /// counters: the interner is process-wide and its traffic depends on
  /// scheduling and on the verdict cache, so they are physical metrics.
  void recordStats(obs::Registry& metrics) const;

  FormulaInterner(const FormulaInterner&) = delete;
  FormulaInterner& operator=(const FormulaInterner&) = delete;

 private:
  FormulaInterner() = default;

  static constexpr size_t kShards = 16;
  /// A shard sweeps expired weak entries whenever its bucket count
  /// doubles past this floor since the last sweep.
  static constexpr size_t kSweepFloor = 1024;

  struct Shard {
    mutable std::mutex mu;
    // node hash -> candidates with that hash (collisions are rare; the
    // vector also holds expired weak_ptrs until the next walk or sweep).
    std::unordered_map<size_t, std::vector<std::weak_ptr<const FormulaNode>>>
        buckets;
    size_t sweepAt = kSweepFloor;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t sweeps = 0;
    uint64_t negMisses = 0;
    // Counted outside the lock, on every memo hit: on a cache line of its
    // own so lock-free readers do not bounce the line `mu` lives on.
    alignas(64) std::atomic<uint64_t> negHits{0};
  };

  static void sweep(Shard& shard);
  Shard& shardFor(size_t hash);

  Shard shards_[kShards];
  std::atomic<uint64_t> nextSeq_{1};
};

}  // namespace faure::smt
