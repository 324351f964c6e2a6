// Memoization of solver verdicts, keyed on hash-consed formula identity.
//
// Fauré's fixed-point evaluation repeats the *same* conditions round
// after round — re-derivations of a tuple rebuild structurally identical
// formulas, and distinct data parts routed through the same links share
// conditions outright. With nodes hash-consed (smt/interner.hpp), "the
// same condition" is a pointer, so a verdict computed once can be
// replayed for free. VerdictCache is that replay store: a bounded LRU
// map from interned node identity (one node for check(), an ordered pair
// for implies()) to the verdict and its enumeration work.
//
// Semantics (the parts that keep cached runs bit-identical to uncached
// ones — DESIGN.md §8):
//
//   * Only *logical* verdicts are stored. A check degraded to
//     Sat::Unknown by a ResourceGuard budget trip is a statement about
//     resources, not about the formula; caching it would leak one run's
//     budget state into another. SolverBase::check() detects trips via
//     the stats_.budgetTrips delta and skips the store.
//   * Hits still charge full logical accounting: the solver replays the
//     stored verdict through SolverBase::accountCacheHit(), so guard
//     charges, SolverStats and the mirrored `solver.*` metric stream are
//     exactly what an uncached run would produce. Only wall time changes.
//   * The cache is bound to one CVarRegistry and watches its
//     mutationEpoch(): mutating an existing variable's domain flips
//     verdicts, so the cache clears itself on the next access. Declaring
//     *fresh* variables does not invalidate (a pre-existing formula
//     cannot mention them).
//   * Entries pin their nodes (shared_ptr), so a key pointer can never
//     be reused by a recycled allocation while the entry lives.
//
// Thread-safe behind one mutex: lookups are pointer hashes, far cheaper
// than any solver check, and concurrent scenario forks (ScenarioSet)
// share one cache. Hit verdicts are deterministic — which fork pays the
// miss varies, but every fork reads the same stored verdict.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "smt/formula.hpp"
#include "smt/solver.hpp"

namespace faure::smt {

class VerdictCache {
 public:
  static constexpr size_t kDefaultCapacity = size_t{1} << 16;

  /// Capacity from the FAURE_SOLVER_CACHE environment variable (number
  /// of entries; 0 disables), kDefaultCapacity when unset.
  static size_t capacityFromEnv();

  /// A cache over verdicts computed against `reg`'s domains. The
  /// registry must outlive the cache. `capacity` 0 means "never store"
  /// (every lookup misses) — callers normally just skip attaching one.
  explicit VerdictCache(const CVarRegistry& reg,
                        size_t capacity = kDefaultCapacity)
      : reg_(reg), capacity_(capacity) {}

  const CVarRegistry& registry() const { return reg_; }
  size_t capacity() const { return capacity_; }

  /// What a hit replays: the logical verdict plus the enumeration work
  /// the original check performed (accountCacheHit re-charges it).
  struct Verdict {
    Sat sat = Sat::Unknown;
    uint64_t enumerations = 0;
  };

  std::optional<Verdict> lookupCheck(const Formula& f);
  void storeCheck(const Formula& f, Sat sat, uint64_t enumerations);

  /// Ordered pair (a ⇒ b); (a,b) and (b,a) are distinct keys.
  std::optional<Verdict> lookupImplies(const Formula& a, const Formula& b);
  void storeImplies(const Formula& a, const Formula& b, Sat sat,
                    uint64_t enumerations);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t invalidations = 0;  // full clears due to registry mutation
    size_t entries = 0;
  };
  Stats stats() const;

  /// Drops every entry (stats survive).
  void clear();

  VerdictCache(const VerdictCache&) = delete;
  VerdictCache& operator=(const VerdictCache&) = delete;

 private:
  struct Key {
    const FormulaNode* a = nullptr;
    const FormulaNode* b = nullptr;  // null: check(a); else implies(a, b)
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      auto mix = [](size_t h) {
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdULL;
        h ^= h >> 33;
        return h;
      };
      return mix(reinterpret_cast<size_t>(k.a)) ^
             (mix(reinterpret_cast<size_t>(k.b)) * 0x9e3779b97f4a7c15ULL);
    }
  };
  struct Entry {
    Verdict verdict;
    // Pin the interned nodes: the interner holds weak refs only, so
    // without these a dead formula's address could be recycled for a
    // different formula while its stale verdict is still keyed on it.
    std::shared_ptr<const FormulaNode> pinA;
    std::shared_ptr<const FormulaNode> pinB;
    std::list<Key>::iterator lruPos;
  };

  std::optional<Verdict> lookup(const Key& key);
  void store(const Key& key, std::shared_ptr<const FormulaNode> pinA,
             std::shared_ptr<const FormulaNode> pinB, Verdict verdict);
  /// Clears the table if the registry mutated since the last access.
  void syncEpochLocked();
  void clearLocked();

  const CVarRegistry& reg_;
  size_t capacity_;
  mutable std::mutex mu_;
  uint64_t epoch_ = 0;
  std::list<Key> lru_;  // front = most recently used
  std::unordered_map<Key, Entry, KeyHash> map_;
  Stats stats_;
};

}  // namespace faure::smt
