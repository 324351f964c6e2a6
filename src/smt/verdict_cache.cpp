#include "smt/verdict_cache.hpp"

#include <cstdlib>

namespace faure::smt {

size_t VerdictCache::capacityFromEnv() {
  const char* env = std::getenv("FAURE_SOLVER_CACHE");
  if (env == nullptr || *env == '\0') return kDefaultCapacity;
  char* end = nullptr;
  unsigned long long n = std::strtoull(env, &end, 10);
  if (end == env) return kDefaultCapacity;
  return static_cast<size_t>(n);
}

void VerdictCache::syncEpochLocked() {
  uint64_t now = reg_.mutationEpoch();
  if (now == epoch_) return;
  epoch_ = now;
  if (!map_.empty()) {
    ++stats_.invalidations;
    clearLocked();
  }
}

void VerdictCache::clearLocked() {
  map_.clear();
  lru_.clear();
}

void VerdictCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  clearLocked();
}

std::optional<VerdictCache::Verdict> VerdictCache::lookup(const Key& key) {
  std::lock_guard<std::mutex> lock(mu_);
  syncEpochLocked();
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second.lruPos);
  return it->second.verdict;
}

void VerdictCache::store(const Key& key,
                         std::shared_ptr<const FormulaNode> pinA,
                         std::shared_ptr<const FormulaNode> pinB,
                         Verdict verdict) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  syncEpochLocked();
  auto it = map_.find(key);
  if (it != map_.end()) {
    // Concurrent forks can race to store the same formula; verdicts are
    // deterministic, so first-in wins and the repeat just refreshes LRU.
    lru_.splice(lru_.begin(), lru_, it->second.lruPos);
    return;
  }
  while (map_.size() >= capacity_) {
    map_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.evictions;
  }
  lru_.push_front(key);
  map_.emplace(key, Entry{verdict, std::move(pinA), std::move(pinB),
                          lru_.begin()});
}

std::optional<VerdictCache::Verdict> VerdictCache::lookupCheck(
    const Formula& f) {
  return lookup(Key{&f.node(), nullptr});
}

void VerdictCache::storeCheck(const Formula& f, Sat sat,
                              uint64_t enumerations) {
  store(Key{&f.node(), nullptr}, f.nodePtr(), nullptr,
        Verdict{sat, enumerations});
}

std::optional<VerdictCache::Verdict> VerdictCache::lookupImplies(
    const Formula& a, const Formula& b) {
  return lookup(Key{&a.node(), &b.node()});
}

void VerdictCache::storeImplies(const Formula& a, const Formula& b, Sat sat,
                                uint64_t enumerations) {
  store(Key{&a.node(), &b.node()}, a.nodePtr(), b.nodePtr(),
        Verdict{sat, enumerations});
}

VerdictCache::Stats VerdictCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out = stats_;
  out.entries = map_.size();
  return out;
}

}  // namespace faure::smt
