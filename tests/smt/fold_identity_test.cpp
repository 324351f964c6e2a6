// The fold identity the c-table data-part table rests on (DESIGN.md §12
// "The data-part table"): folding a sequence left to right with the
// binary Formula::disj2 builds the very node (pointer-equal, since nodes
// are hash-consed) that the n-ary Formula::disj builds over the whole
// sequence. The dual holds for conj2 / conj. Checked over seeded random
// sequences that mix atoms, Or- and And-valued members, duplicates,
// exact complements, `true` and `false`.
#include <gtest/gtest.h>

#include <vector>

#include "smt/formula.hpp"
#include "util/rng.hpp"

namespace faure::smt {
namespace {

class FoldIdentityTest : public ::testing::Test {
 protected:
  CVarRegistry reg_;
  std::vector<CVarId> vars_;

  void SetUp() override {
    for (int i = 0; i < 6; ++i) {
      vars_.push_back(reg_.declareInt("v" + std::to_string(i) + "_", 0, 3));
    }
  }

  Formula atom(util::Rng& rng) {
    const Value v = Value::cvar(vars_[rng.below(vars_.size())]);
    const Value k = Value::fromInt(rng.range(0, 3));
    return Formula::cmp(v, rng.chance(0.5) ? CmpOp::Eq : CmpOp::Ne, k);
  }

  /// One sequence member. `earlier` holds the members drawn so far, so a
  /// pick can repeat one of them or be its exact complement.
  Formula member(util::Rng& rng, const std::vector<Formula>& earlier) {
    switch (rng.below(9)) {
      case 0:
        return Formula::top();
      case 1:
        return Formula::bottom();
      case 2:
        if (!earlier.empty()) return earlier[rng.below(earlier.size())];
        return atom(rng);
      case 3:
        if (!earlier.empty()) {
          return Formula::neg(earlier[rng.below(earlier.size())]);
        }
        return atom(rng);
      case 4:
        return Formula::disj({atom(rng), atom(rng), atom(rng)});
      case 5:
        return Formula::conj({atom(rng), atom(rng)});
      default:
        return atom(rng);
    }
  }

  std::vector<Formula> sequence(util::Rng& rng, size_t len,
                                bool allowConstants) {
    std::vector<Formula> seq;
    while (seq.size() < len) {
      Formula f = member(rng, seq);
      if (!allowConstants && (f.isTrue() || f.isFalse())) continue;
      seq.push_back(std::move(f));
    }
    return seq;
  }
};

TEST_F(FoldIdentityTest, Disj2FoldIsTheNodeDisjBuilds) {
  size_t absorbed = 0;
  size_t junctions = 0;
  for (uint64_t seed = 1; seed <= 3000; ++seed) {
    util::Rng rng(seed);
    // Constants are rare in c-table rows (only setCondition writes a
    // `false`), so most sequences leave them out and reach long
    // junctions; a third mix them in.
    const std::vector<Formula> seq =
        sequence(rng, 1 + rng.below(12), seed % 3 == 0);
    Formula folded = Formula::bottom();
    for (const Formula& f : seq) folded = Formula::disj2(folded, f);
    const Formula whole = Formula::disj(seq);
    ASSERT_EQ(folded, whole) << "seed " << seed << ": fold "
                             << folded.toString(&reg_) << " vs disj "
                             << whole.toString(&reg_);
    absorbed += whole.isTrue();
    junctions += whole.kind() == Formula::Kind::Or;
  }
  // The sequences reach both outcomes the identity must preserve.
  EXPECT_GT(absorbed, 300u);
  EXPECT_GT(junctions, 500u);
}

TEST_F(FoldIdentityTest, Conj2FoldIsTheNodeConjBuilds) {
  for (uint64_t seed = 1; seed <= 3000; ++seed) {
    util::Rng rng(seed ^ 0x5eedULL);
    const std::vector<Formula> seq =
        sequence(rng, 1 + rng.below(12), seed % 3 == 0);
    Formula folded = Formula::top();
    for (const Formula& f : seq) folded = Formula::conj2(folded, f);
    ASSERT_EQ(folded, Formula::conj(seq)) << "seed " << seed;
  }
}

TEST_F(FoldIdentityTest, EdgeSequences) {
  const Formula a = Formula::cmp(Value::cvar(vars_[0]), CmpOp::Eq,
                                 Value::fromInt(1));
  const Formula b = Formula::cmp(Value::cvar(vars_[1]), CmpOp::Eq,
                                 Value::fromInt(2));
  const Formula c = Formula::cmp(Value::cvar(vars_[2]), CmpOp::Ne,
                                 Value::fromInt(0));
  const Formula ab = Formula::disj2(a, b);
  const std::vector<std::vector<Formula>> cases = {
      {},
      {Formula::bottom()},
      {Formula::bottom(), a, Formula::bottom()},
      {a, a, a},
      {a, Formula::neg(a)},
      {ab, c, Formula::neg(b)},
      {ab, Formula::disj2(b, c), a},
      {a, Formula::top(), b},
      {Formula::conj2(a, b), Formula::neg(Formula::conj2(a, b))},
      {ab, Formula::neg(ab)},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    Formula folded = Formula::bottom();
    for (const Formula& f : cases[i]) folded = Formula::disj2(folded, f);
    EXPECT_EQ(folded, Formula::disj(cases[i])) << "case " << i;
  }
}

}  // namespace
}  // namespace faure::smt
