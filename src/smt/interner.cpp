#include "smt/interner.hpp"

#include <algorithm>
#include <iterator>

namespace faure::smt {

namespace {

/// Structural equality between a candidate table entry and a node being
/// interned. Children are compared by pointer: they were interned first
/// (Formula's factories build bottom-up), so structural equality of kids
/// is exactly node identity.
bool sameNode(const FormulaNode& a, const FormulaNode& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case FormulaNode::Kind::True:
    case FormulaNode::Kind::False:
      return true;
    case FormulaNode::Kind::Cmp:
      return a.op == b.op && a.lhs == b.lhs && a.rhs == b.rhs;
    case FormulaNode::Kind::Lin:
      return a.op == b.op && a.lin == b.lin;
    case FormulaNode::Kind::And:
    case FormulaNode::Kind::Or:
    case FormulaNode::Kind::Not:
      if (a.kids.size() != b.kids.size()) return false;
      for (size_t i = 0; i < a.kids.size(); ++i) {
        if (&a.kids[i].node() != &b.kids[i].node()) return false;
      }
      return true;
  }
  return false;
}

}  // namespace

FormulaInterner& FormulaInterner::instance() {
  static FormulaInterner interner;
  return interner;
}

void FormulaInterner::sweep(Shard& shard) {
  for (auto it = shard.buckets.begin(); it != shard.buckets.end();) {
    auto& vec = it->second;
    vec.erase(std::remove_if(vec.begin(), vec.end(),
                             [](const std::weak_ptr<const FormulaNode>& w) {
                               return w.expired();
                             }),
              vec.end());
    it = vec.empty() ? shard.buckets.erase(it) : std::next(it);
  }
  ++shard.sweeps;
  shard.sweepAt = std::max(kSweepFloor, shard.buckets.size() * 2);
}

FormulaInterner::Shard& FormulaInterner::shardFor(size_t hash) {
  // Spread the hash before picking a shard: the low bits also select the
  // unordered_map bucket, so reusing them raw would correlate the two.
  return shards_[(hash ^ (hash >> 17)) % kShards];
}

std::shared_ptr<const FormulaNode> FormulaInterner::intern(FormulaNode&& node) {
  size_t h = node.hash;
  Shard& shard = shardFor(h);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto& vec = shard.buckets[h];
  for (auto it = vec.begin(); it != vec.end();) {
    if (auto sp = it->lock()) {
      if (sameNode(*sp, node)) {
        ++shard.hits;
        return sp;
      }
      ++it;
    } else {
      it = vec.erase(it);  // lazy cleanup while we are here anyway
    }
  }
  node.complement.seq_ = nextSeq_.fetch_add(1, std::memory_order_relaxed);
  auto sp = std::make_shared<const FormulaNode>(std::move(node));
  vec.push_back(sp);
  ++shard.misses;
  if (shard.buckets.size() >= shard.sweepAt) sweep(shard);
  return sp;
}

std::shared_ptr<const FormulaNode> FormulaInterner::negation(
    const FormulaNode& node) {
  const ComplementLink& link = node.complement;
  std::shared_ptr<const FormulaNode> neg;
  switch (link.state_.load(std::memory_order_acquire)) {
    case ComplementLink::kStrong:
      neg = link.strong_;
      break;
    case ComplementLink::kWeak:
      neg = link.weak_.lock();
      break;
    default:
      return nullptr;
  }
  if (neg != nullptr) {
    shardFor(node.hash).negHits.fetch_add(1, std::memory_order_relaxed);
  }
  return neg;
}

std::shared_ptr<const FormulaNode> FormulaInterner::linkNegation(
    const FormulaNode& node, std::shared_ptr<const FormulaNode> neg) {
  const ComplementLink& link = node.complement;
  Shard& shard = shardFor(node.hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  ++shard.negMisses;
  // Readers hold no lock, so a published field is never written again:
  // kUnset may become kWeak or kStrong, and kWeak (once its target has
  // been freed) kStrong.
  const uint8_t state = link.state_.load(std::memory_order_relaxed);
  if (state == ComplementLink::kStrong) return link.strong_;
  if (state == ComplementLink::kWeak) {
    if (auto linked = link.weak_.lock()) return linked;
  }
  // Strong only toward the newer node. Kid edges lead to strictly lower
  // formulas and negation never raises a formula's height, so every
  // strong cycle would have to be complement links alone, each one
  // increasing the sequence number: impossible.
  if (neg->complement.seq_ > link.seq_) {
    link.strong_ = neg;
    link.state_.store(ComplementLink::kStrong, std::memory_order_release);
  } else if (state == ComplementLink::kUnset) {
    link.weak_ = neg;
    link.state_.store(ComplementLink::kWeak, std::memory_order_release);
  }
  return neg;
}

FormulaInterner::Stats FormulaInterner::stats() const {
  Stats total;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total.hits += shard.hits;
    total.misses += shard.misses;
    total.sweeps += shard.sweeps;
    total.negHits += shard.negHits.load(std::memory_order_relaxed);
    total.negMisses += shard.negMisses;
    for (const auto& [h, vec] : shard.buckets) {
      (void)h;
      for (const auto& w : vec) {
        if (!w.expired()) ++total.entries;
      }
    }
  }
  return total;
}

void FormulaInterner::recordStats(obs::Registry& metrics) const {
  const Stats s = stats();
  metrics.gauge("smt.interner.calls")
      .set(static_cast<double>(s.hits + s.misses));
  metrics.gauge("smt.interner.new_nodes").set(static_cast<double>(s.misses));
  metrics.gauge("smt.interner.live_nodes").set(static_cast<double>(s.entries));
  metrics.gauge("smt.interner.neg_hits").set(static_cast<double>(s.negHits));
  metrics.gauge("smt.interner.neg_misses")
      .set(static_cast<double>(s.negMisses));
}

}  // namespace faure::smt
