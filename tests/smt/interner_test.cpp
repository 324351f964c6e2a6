// Hash-consing and the memoised complement link (smt/interner.hpp): a
// memoised neg() is the node a fresh De Morgan negation interns,
// conj/disj (and conj2/disj2) build the kid list their contract names,
// the links form no shared_ptr cycles, and concurrent lanes agree with a
// serial run.
#include "smt/interner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <random>
#include <vector>

#include "smt/formula.hpp"
#include "util/thread_pool.hpp"

namespace faure::smt {
namespace {

using faure::Value;

/// Negation computed from scratch, bypassing neg()'s memo at every level
/// (the smart constructors still intern the result).
Formula freshNeg(const Formula& f) {
  const FormulaNode& n = f.node();
  switch (f.kind()) {
    case Formula::Kind::True:
      return Formula::bottom();
    case Formula::Kind::False:
      return Formula::top();
    case Formula::Kind::Cmp:
      return Formula::cmp(n.lhs, negateOp(n.op), n.rhs);
    case Formula::Kind::Lin:
      return Formula::lin(n.lin, negateOp(n.op));
    case Formula::Kind::Not:
      return n.kids[0];
    case Formula::Kind::And:
    case Formula::Kind::Or: {
      std::vector<Formula> kids;
      for (const auto& k : n.kids) kids.push_back(freshNeg(k));
      return f.kind() == Formula::Kind::And ? Formula::disj(std::move(kids))
                                            : Formula::conj(std::move(kids));
    }
  }
  return f;
}

class InternerTest : public ::testing::Test {
 protected:
  CVarRegistry reg_;
  std::vector<CVarId> vars_ = {
      reg_.declare("x_", ValueType::Int), reg_.declare("y_", ValueType::Int),
      reg_.declare("z_", ValueType::Int), reg_.declare("w_", ValueType::Int)};

  /// A random NNF formula: Cmp and Lin atoms under nested And/Or. Atom
  /// constants start at `base`, so a test can build formulas no other
  /// test holds.
  Formula random(std::mt19937& rng, int depth, int64_t base = 0) {
    auto pick = [&](int n) { return static_cast<int>(rng() % n); };
    if (depth == 0 || pick(3) == 0) {
      CVarId v = vars_[pick(4)];
      CVarId u = vars_[pick(4)];
      auto op = static_cast<CmpOp>(pick(6));
      switch (pick(3)) {
        case 0:
          return Formula::cmp(Value::cvar(v), op,
                              Value::fromInt(base + pick(3)));
        case 1:
          return Formula::cmp(Value::cvar(v), op, Value::cvar(u));
        default:
          return Formula::lin(
              LinTerm::make({{v, 2}, {u, 1 + pick(2)}}, base + pick(3)), op);
      }
    }
    std::vector<Formula> kids;
    for (int i = 0, n = 2 + pick(3); i < n; ++i) {
      kids.push_back(random(rng, depth - 1, base));
    }
    return pick(2) == 0 ? Formula::conj(std::move(kids))
                        : Formula::disj(std::move(kids));
  }

  std::vector<Formula> corpus(uint32_t seed, size_t n, int64_t base = 0) {
    std::mt19937 rng(seed);
    std::vector<Formula> out;
    for (size_t i = 0; i < n; ++i) out.push_back(random(rng, 3, base));
    return out;
  }
};

TEST_F(InternerTest, MemoisedNegationIsTheFreshDeMorganNode) {
  for (const Formula& f : corpus(7, 300)) {
    Formula fresh = freshNeg(f);
    EXPECT_EQ(Formula::neg(f), fresh) << f.toString(&reg_);
    EXPECT_EQ(Formula::neg(f), fresh) << "second call answers from the link";
  }
}

TEST_F(InternerTest, DoubleNegationIsIdentityOnNnf) {
  for (const Formula& f : corpus(11, 300)) {
    EXPECT_EQ(Formula::neg(Formula::neg(f)), f) << f.toString(&reg_);
  }
}

TEST_F(InternerTest, NegationCountsHitsAndMisses) {
  Formula f = Formula::cmp(Value::cvar(vars_[0]), CmpOp::Lt,
                           Value::fromInt(4711));
  FormulaInterner::Stats before = FormulaInterner::instance().stats();
  Formula n1 = Formula::neg(f);
  FormulaInterner::Stats mid = FormulaInterner::instance().stats();
  Formula n2 = Formula::neg(f);
  FormulaInterner::Stats after = FormulaInterner::instance().stats();
  EXPECT_EQ(n1, n2);
  EXPECT_EQ(mid.negMisses, before.negMisses + 1);
  EXPECT_EQ(after.negMisses, mid.negMisses);
  EXPECT_EQ(after.negHits, mid.negHits + 1);
  EXPECT_EQ(after.hits + after.misses, mid.hits + mid.misses)
      << "a memo hit makes no interner call";
}

TEST_F(InternerTest, LinkIsStrongTowardNewerAndWeakTowardOlder) {
  FormulaInterner& interner = FormulaInterner::instance();
  const Value x = Value::cvar(vars_[0]);
  std::optional<Formula> older =
      Formula::cmp(x, CmpOp::Lt, Value::fromInt(12345));
  Formula newer = Formula::cmp(x, CmpOp::Ge, Value::fromInt(12345));
  EXPECT_EQ(Formula::neg(newer), *older);  // links newer -> older, weakly
  const size_t withBoth = interner.stats().entries;
  older.reset();
  EXPECT_EQ(interner.stats().entries, withBoth - 1) << "a weak link frees";
  // The link expired with its target: neg() recomputes it, and the new
  // complement is newer, so the link now keeps it alive.
  const uint64_t misses = interner.stats().negMisses;
  std::optional<Formula> again = Formula::neg(newer);
  EXPECT_EQ(again->toString(&reg_), "x_ < 12345");
  EXPECT_EQ(interner.stats().negMisses, misses + 1);
  again.reset();
  EXPECT_EQ(interner.stats().entries, withBoth) << "a strong link holds";
}

/// The kids conj (kind And) or disj (kind Or) of `parts` must have,
/// written the slow way: flatten one level, keep each formula's first
/// occurrence, stable-sort by hash. Null when a constant or an exact
/// complement pair absorbs the junction.
std::optional<std::vector<Formula>> contractKids(
    Formula::Kind kind, const std::vector<Formula>& parts) {
  const bool isAnd = kind == Formula::Kind::And;
  std::vector<Formula> kids;
  auto add = [&](const Formula& f) {
    for (const auto& k : kids) {
      if (k == f) return;
    }
    kids.push_back(f);
  };
  for (const auto& p : parts) {
    if (isAnd ? p.isFalse() : p.isTrue()) return std::nullopt;
    if (isAnd ? p.isTrue() : p.isFalse()) continue;
    if (p.kind() == kind) {
      for (const auto& k : p.node().kids) add(k);
    } else {
      add(p);
    }
  }
  for (const auto& k : kids) {
    Formula nk = freshNeg(k);
    for (const auto& other : kids) {
      if (other == nk) return std::nullopt;
    }
  }
  std::stable_sort(kids.begin(), kids.end(),
                   [](const Formula& a, const Formula& b) {
                     return a.hash() < b.hash();
                   });
  return kids;
}

void expectContract(Formula::Kind kind, const Formula& got,
                    const std::vector<Formula>& parts) {
  const bool isAnd = kind == Formula::Kind::And;
  std::optional<std::vector<Formula>> kids = contractKids(kind, parts);
  if (!kids) {
    EXPECT_EQ(got, Formula::boolean(!isAnd)) << got.toString();
  } else if (kids->empty()) {
    EXPECT_EQ(got, Formula::boolean(isAnd));
  } else if (kids->size() == 1) {
    EXPECT_EQ(got, kids->front());
  } else {
    ASSERT_EQ(got.kind(), kind) << got.toString();
    EXPECT_EQ(got.node().kids, *kids) << got.toString();
  }
}

void expectSameJoin(const Formula& a, const Formula& b) {
  Formula c2 = Formula::conj2(a, b);
  Formula c = Formula::conj({a, b});
  EXPECT_EQ(c2, c) << a.toString() << " AND " << b.toString();
  EXPECT_EQ(c2.toString(), c.toString());
  expectContract(Formula::Kind::And, c, {a, b});
  Formula d2 = Formula::disj2(a, b);
  Formula d = Formula::disj({a, b});
  EXPECT_EQ(d2, d) << a.toString() << " OR " << b.toString();
  EXPECT_EQ(d2.toString(), d.toString());
  expectContract(Formula::Kind::Or, d, {a, b});
}

TEST_F(InternerTest, JunctionsKeepTheirContractOnRandomLists) {
  // Lists with repeats, constants and nested junctions of both kinds.
  std::vector<Formula> fs = corpus(23, 60);
  fs.push_back(Formula::top());
  fs.push_back(Formula::bottom());
  std::mt19937 rng(29);
  for (int round = 0; round < 400; ++round) {
    std::vector<Formula> parts;
    for (size_t i = 0, n = 1 + rng() % 6; i < n; ++i) {
      const Formula& f = fs[rng() % fs.size()];
      parts.push_back(rng() % 4 == 0 ? Formula::neg(f) : f);
    }
    if (rng() % 3 == 0) parts.push_back(parts.front());
    expectContract(Formula::Kind::And, Formula::conj(parts), parts);
    expectContract(Formula::Kind::Or, Formula::disj(parts), parts);
  }
}

TEST_F(InternerTest, BinaryJoinsMatchVectorJoinsOnRandomPairs) {
  std::vector<Formula> fs = corpus(13, 120);
  fs.push_back(Formula::top());
  fs.push_back(Formula::bottom());
  for (size_t i = 0; i < fs.size(); ++i) {
    for (size_t j = 0; j < fs.size(); j += 7) expectSameJoin(fs[i], fs[j]);
    expectSameJoin(fs[i], fs[i]);
  }
}

TEST_F(InternerTest, BinaryJoinsFoldComplements) {
  for (const Formula& f : corpus(17, 100)) {
    if (f.isTrue() || f.isFalse()) continue;
    Formula nf = Formula::neg(f);
    // Only an exact complement among the flattened operands folds: the
    // kids of a compound f's negation are not f's complements.
    if (f.isAtom()) {
      EXPECT_TRUE(Formula::conj2(f, nf).isFalse()) << f.toString(&reg_);
      EXPECT_TRUE(Formula::disj2(nf, f).isTrue()) << f.toString(&reg_);
    }
    expectSameJoin(f, nf);
    expectSameJoin(nf, f);
  }
  // One operand complements a kid of the other junction, in both orders.
  Formula a =
      Formula::cmp(Value::cvar(vars_[0]), CmpOp::Eq, Value::fromInt(1));
  Formula b =
      Formula::cmp(Value::cvar(vars_[1]), CmpOp::Eq, Value::fromInt(2));
  Formula ab = Formula::conj2(a, b);
  EXPECT_TRUE(Formula::conj2(ab, Formula::neg(b)).isFalse());
  EXPECT_TRUE(Formula::conj2(Formula::neg(a), ab).isFalse());
  Formula aOrB = Formula::disj2(a, b);
  EXPECT_TRUE(Formula::disj2(aOrB, Formula::neg(a)).isTrue());
  EXPECT_TRUE(Formula::disj2(Formula::neg(b), aOrB).isTrue());
  expectSameJoin(ab, Formula::neg(b));
  expectSameJoin(Formula::neg(a), aOrB);
}

TEST_F(InternerTest, BinaryJoinsKeepStableOrderOnHashCollisions) {
  // LinTerm::hash folds each entry as (h * P) ^ (var << 17) ^ coef, so
  // these two terms differ only in a last entry that hashes the same.
  const CVarId x = vars_[0], z = vars_[2], w = vars_[3];
  const int64_t c = static_cast<int64_t>((uint64_t{z} << 17) ^ 1 ^
                                         (uint64_t{w} << 17));
  Formula p = Formula::lin(LinTerm::make({{x, 2}, {z, 1}}, 0), CmpOp::Lt);
  Formula q = Formula::lin(LinTerm::make({{x, 2}, {w, c}}, 0), CmpOp::Lt);
  ASSERT_EQ(p.kind(), Formula::Kind::Lin);
  ASSERT_EQ(q.kind(), Formula::Kind::Lin);
  ASSERT_NE(p, q);
  ASSERT_EQ(p.hash(), q.hash());
  Formula r = Formula::cmp(Value::cvar(x), CmpOp::Eq, Value::fromInt(9));
  for (const Formula& e : {p, q}) {
    const Formula& other = e == p ? q : p;
    Formula withOther = Formula::conj2(r, other);
    expectSameJoin(withOther, e);
    expectSameJoin(e, withOther);
    Formula orOther = Formula::disj2(r, other);
    expectSameJoin(orOther, e);
    expectSameJoin(e, orOther);
  }
  // Tied kids keep their operand order, as stable_sort leaves them.
  EXPECT_NE(Formula::conj2(p, q), Formula::conj2(q, p));
  EXPECT_EQ(Formula::conj2(p, q).node().kids[0], p);
  EXPECT_EQ(Formula::conj2(Formula::conj2(r, p), q),
            Formula::conj({r, p, q}));
  EXPECT_EQ(Formula::conj2(q, Formula::conj2(r, p)),
            Formula::conj({q, r, p}));
}

TEST_F(InternerTest, ComplementLinksFormNoCycles) {
  // The boolean constants are created on first use and live forever.
  (void)Formula::top();
  (void)Formula::bottom();
  const size_t start = FormulaInterner::instance().stats().entries;
  {
    std::vector<Formula> fs = corpus(19, 200, /*base=*/900000);
    std::vector<Formula> derived;
    for (size_t i = 0; i < fs.size(); ++i) {
      Formula nf = Formula::neg(fs[i]);
      derived.push_back(Formula::neg(nf));
      derived.push_back(Formula::disj2(fs[i], fs[(i + 1) % fs.size()]));
      derived.push_back(Formula::conj2(nf, fs[(i + 3) % fs.size()]));
      derived.push_back(Formula::neg(derived.back()));
    }
    EXPECT_GT(FormulaInterner::instance().stats().entries, start);
  }
  EXPECT_EQ(FormulaInterner::instance().stats().entries, start);
}

TEST_F(InternerTest, ConcurrentNegateAndMergeMatchesSerial) {
  // Fresh formulas per round (distinct atom constants), so the lanes race
  // to set links that no one has set yet.
  for (int64_t round = 0; round < 4; ++round) {
    std::vector<Formula> fs = corpus(23 + round, 150, 700000 + 100 * round);
    const size_t n = fs.size();
    auto work = [&](size_t i) {
      Formula f = fs[i];
      Formula g = fs[(i + 1) % n];
      return std::vector<Formula>{
          Formula::neg(f), Formula::neg(Formula::neg(f)),
          Formula::disj2(f, g), Formula::conj2(Formula::neg(g), f),
          Formula::disj2(Formula::disj2(f, g), Formula::neg(f))};
    };
    constexpr size_t kLanes = 4;
    std::vector<std::vector<std::vector<Formula>>> got(kLanes);
    std::vector<std::function<void(size_t)>> tasks;
    for (size_t t = 0; t < kLanes; ++t) {
      tasks.push_back([&, t](size_t) {
        got[t].resize(n);
        // Each lane walks the set from its own offset.
        for (size_t s = 0; s < n; ++s) {
          size_t i = (s + t * n / kLanes) % n;
          got[t][i] = work(i);
        }
      });
    }
    util::ThreadPool pool(kLanes);
    pool.run(std::move(tasks));
    for (size_t i = 0; i < n; ++i) {
      std::vector<Formula> serial = work(i);
      for (size_t t = 0; t < kLanes; ++t) {
        ASSERT_EQ(got[t][i], serial) << "lane " << t << ", formula " << i;
      }
      EXPECT_EQ(serial[0], freshNeg(fs[i]));
    }
  }
}

}  // namespace
}  // namespace faure::smt
