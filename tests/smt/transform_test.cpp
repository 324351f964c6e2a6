// Tests for substitution and DNF conversion (smt/transform.hpp).
#include "smt/transform.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace faure::smt {
namespace {

class TransformTest : public ::testing::Test {
 protected:
  CVarRegistry reg_;
  CVarId x_ = reg_.declareInt("x_", 0, 1);
  CVarId y_ = reg_.declareInt("y_", 0, 1);
  CVarId z_ = reg_.declareInt("z_", 0, 1);

  Formula eq(CVarId v, int64_t k) {
    return Formula::cmp(Value::cvar(v), CmpOp::Eq, Value::fromInt(k));
  }
};

TEST_F(TransformTest, SubstituteFoldsAtom) {
  Formula f = eq(x_, 1);
  EXPECT_TRUE(substitute(f, {{x_, Value::fromInt(1)}}).isTrue());
  EXPECT_TRUE(substitute(f, {{x_, Value::fromInt(0)}}).isFalse());
  EXPECT_EQ(substitute(f, {{y_, Value::fromInt(0)}}), f);
}

TEST_F(TransformTest, SubstituteIntoLinear) {
  Formula f = Formula::lin(LinTerm::make({{x_, 1}, {y_, 1}, {z_, 1}}, -1),
                           CmpOp::Eq);  // x+y+z = 1
  Formula g = substitute(f, {{x_, Value::fromInt(0)}});
  // y + z = 1 remains.
  EXPECT_EQ(g, Formula::lin(LinTerm::make({{y_, 1}, {z_, 1}}, -1), CmpOp::Eq));
  Formula h = substitute(
      g, {{y_, Value::fromInt(1)}, {z_, Value::fromInt(0)}});
  EXPECT_TRUE(h.isTrue());
}

TEST_F(TransformTest, SubstitutePartialAndIntoBoolean) {
  Formula f = Formula::disj2(Formula::conj2(eq(x_, 1), eq(y_, 1)),
                             eq(z_, 0));
  Formula g = substitute(f, {{z_, Value::fromInt(1)}});
  EXPECT_EQ(g, Formula::conj2(eq(x_, 1), eq(y_, 1)));
  Formula h = substitute(g, {{x_, Value::fromInt(1)}});
  EXPECT_EQ(h, eq(y_, 1));
}

TEST_F(TransformTest, DnfOfAtomIsSingleton) {
  auto dnf = toDnf(eq(x_, 1), 10);
  ASSERT_TRUE(dnf.has_value());
  ASSERT_EQ(dnf->size(), 1u);
  EXPECT_EQ((*dnf)[0].size(), 1u);
}

TEST_F(TransformTest, DnfDistributes) {
  // (a | b) & (c | d) -> 4 cubes.
  Formula f = Formula::conj2(Formula::disj2(eq(x_, 0), eq(x_, 1)),
                             Formula::disj2(eq(y_, 0), eq(y_, 1)));
  auto dnf = toDnf(f, 10);
  ASSERT_TRUE(dnf.has_value());
  EXPECT_EQ(dnf->size(), 4u);
}

TEST_F(TransformTest, DnfRespectsBudget) {
  // (a|b) & (c|d) & (e|f) -> 8 cubes; budget 4 must fail.
  Formula f = Formula::conj(
      {Formula::disj2(eq(x_, 0), eq(x_, 1)),
       Formula::disj2(eq(y_, 0), eq(y_, 1)),
       Formula::disj2(eq(z_, 0), eq(z_, 1))});
  EXPECT_FALSE(toDnf(f, 4).has_value());
  EXPECT_TRUE(toDnf(f, 8).has_value());
}

TEST_F(TransformTest, FromDnfRoundTrip) {
  Formula f = Formula::disj2(Formula::conj2(eq(x_, 1), eq(y_, 0)), eq(z_, 1));
  auto dnf = toDnf(f, 100);
  ASSERT_TRUE(dnf.has_value());
  EXPECT_EQ(fromDnf(*dnf), f);
}

TEST_F(TransformTest, DnfOfFalseIsEmpty) {
  auto dnf = toDnf(Formula::bottom(), 10);
  ASSERT_TRUE(dnf.has_value());
  EXPECT_TRUE(dnf->empty());
}

TEST_F(TransformTest, DnfFitsOnEdgeCases) {
  Formula f = Formula::conj(
      {Formula::disj2(eq(x_, 0), eq(y_, 1)),
       Formula::disj2(eq(y_, 0), eq(z_, 1)),
       Formula::disj2(eq(z_, 0), eq(x_, 1))});  // 8 cubes
  EXPECT_FALSE(dnfFits(f, 7));
  EXPECT_TRUE(dnfFits(f, 8));
  EXPECT_TRUE(dnfFits(Formula::bottom(), 0));  // no cube at all
  EXPECT_TRUE(dnfFits(Formula::top(), 1));
  EXPECT_FALSE(dnfFits(Formula::top(), 0));
  EXPECT_FALSE(dnfFits(eq(x_, 1), 0));
}

/// Random nested junctions over link bits, wide enough that many exceed
/// the budgets below.
Formula randomJunction(util::Rng& rng, const std::vector<CVarId>& bits,
                       int depth) {
  if (depth == 0 || rng.chance(0.25)) {
    CVarId v = bits[rng.below(bits.size())];
    CmpOp op = rng.chance(0.5) ? CmpOp::Eq : CmpOp::Ne;
    return Formula::cmp(Value::cvar(v), op, Value::fromInt(rng.range(0, 1)));
  }
  std::vector<Formula> kids;
  size_t n = 2 + rng.below(4);
  for (size_t i = 0; i < n; ++i) {
    kids.push_back(randomJunction(rng, bits, depth - 1));
  }
  return rng.chance(0.5) ? Formula::conj(std::move(kids))
                         : Formula::disj(std::move(kids));
}

TEST(DnfFitsProperty, EqualsToDnfSucceeding) {
  CVarRegistry reg;
  std::vector<CVarId> bits;
  for (int i = 0; i < 8; ++i) {
    bits.push_back(reg.declareInt("l" + std::to_string(i) + "_", 0, 1));
  }
  util::Rng rng(4096);
  size_t fits = 0;
  size_t over = 0;
  for (int trial = 0; trial < 600; ++trial) {
    Formula f = randomJunction(rng, bits, 1 + static_cast<int>(rng.below(5)));
    for (size_t m : {size_t{1}, size_t{4}, size_t{64}, size_t{4096}}) {
      const bool want = toDnf(f, m).has_value();
      ASSERT_EQ(dnfFits(f, m), want)
          << "budget " << m << " on " << f.toString(&reg);
      ++(want ? fits : over);
    }
    // Around the exact cube count, where an off-by-one would show.
    if (auto dnf = toDnf(f, 4096); dnf.has_value() && !dnf->empty()) {
      for (size_t m = dnf->size() - 1; m <= dnf->size() + 1; ++m) {
        ASSERT_EQ(dnfFits(f, m), toDnf(f, m).has_value())
            << "budget " << m << " on " << f.toString(&reg);
      }
    }
  }
  // Both outcomes occur often enough for the comparison to mean something.
  EXPECT_GE(fits, 1000u);
  EXPECT_GE(over, 300u);
}

TEST(ForEachDnfCube, VisitsToDnfCubesInOrderAndStopsEarly) {
  CVarRegistry reg;
  std::vector<CVarId> bits;
  for (int i = 0; i < 8; ++i) {
    bits.push_back(reg.declareInt("l" + std::to_string(i) + "_", 0, 1));
  }
  util::Rng rng(77);
  size_t compared = 0;
  for (int trial = 0; trial < 400; ++trial) {
    Formula f = randomJunction(rng, bits, 1 + static_cast<int>(rng.below(4)));
    auto dnf = toDnf(f, 4096);
    if (!dnf.has_value()) continue;
    std::vector<Cube> walked;
    const bool stopped = forEachDnfCube(f, [&](const CubeView& cube) {
      Cube c;
      for (const Formula* atom : cube) c.push_back(*atom);
      walked.push_back(std::move(c));
      return false;
    });
    EXPECT_FALSE(stopped);
    ASSERT_EQ(walked, *dnf) << f.toString(&reg);
    ++compared;
    // Stopping at cube k visits exactly k + 1 cubes.
    if (dnf->size() > 1) {
      const size_t k = rng.below(dnf->size());
      size_t visits = 0;
      EXPECT_TRUE(forEachDnfCube(f, [&](const CubeView&) {
        return visits++ == k;
      }));
      EXPECT_EQ(visits, k + 1);
    }
  }
  EXPECT_GE(compared, 300u);
}

}  // namespace
}  // namespace faure::smt
