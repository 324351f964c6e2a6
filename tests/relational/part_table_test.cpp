// Differential test of the c-table data-part table (DESIGN.md §12 "The
// data-part table"). Seeded random sequences of insert, append,
// setCondition (false included), pruneIf, eraseWithData, consolidate and
// copy-then-write run against a CTable; after every step its lookups
// are compared with the definitions computed straight from rows():
//
//   conditionOf(d)  == Formula::disj of the conditions of d's rows;
//   rowsWithData(d) == every row index carrying d, ascending;
//   consolidate()   == one row per data part, at the part's first row
//                      with a non-false condition, carrying the disj of
//                      all its rows (parts with no such row dropped);
//
// and a copy taken before a write still renders as it did.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "relational/ctable.hpp"
#include "util/rng.hpp"

namespace faure::rel {
namespace {

using smt::CmpOp;
using smt::Formula;

class PartTableTest : public ::testing::Test {
 protected:
  CVarRegistry reg_;
  std::vector<CVarId> bits_;
  CVarId wild_ = reg_.declare("w_", ValueType::Int);

  void SetUp() override {
    for (int i = 0; i < 5; ++i) {
      bits_.push_back(reg_.declareInt("b" + std::to_string(i) + "_", 0, 2));
    }
  }

  static Schema schema() {
    return Schema("T", {{"a", ValueType::Int}, {"b", ValueType::Int}});
  }

  /// A data part among `parts` distinct ones; a few carry a c-variable.
  std::vector<Value> data(util::Rng& rng, size_t parts) {
    const auto k = static_cast<int64_t>(rng.below(parts));
    if (k % 97 == 5) return {Value::fromInt(k), Value::cvar(wild_)};
    return {Value::fromInt(k), Value::fromInt(k % 3)};
  }

  Formula cond(util::Rng& rng) {
    const Formula a = Formula::cmp(Value::cvar(bits_[rng.below(bits_.size())]),
                                   CmpOp::Eq, Value::fromInt(rng.range(0, 2)));
    switch (rng.below(6)) {
      case 0:
        return Formula::top();
      case 1:
        return Formula::neg(a);
      case 2:
        return Formula::disj2(a, cond(rng));
      default:
        return a;
    }
  }

  /// Row indices grouped by data part, in first-occurrence order.
  using Groups = std::vector<std::vector<size_t>>;
  static Groups group(const CTable& t) {
    Groups g;
    std::unordered_map<size_t, std::vector<size_t>> byHash;  // -> part ids
    const std::vector<Row>& rows = t.rows();
    for (size_t i = 0; i < rows.size(); ++i) {
      std::vector<size_t>& ids = byHash[hashValues(rows[i].vals)];
      size_t id = SIZE_MAX;
      for (size_t c : ids) {
        if (rows[g[c].front()].vals == rows[i].vals) id = c;
      }
      if (id == SIZE_MAX) {
        id = g.size();
        ids.push_back(id);
        g.emplace_back();
      }
      g[id].push_back(i);
    }
    return g;
  }

  static Formula disjOf(const CTable& t, const std::vector<size_t>& rows) {
    std::vector<Formula> conds;
    for (size_t r : rows) conds.push_back(t.rows()[r].cond);
    return Formula::disj(std::move(conds));
  }

  /// Every lookup agrees with its definition over rows(); `probe` is a
  /// data part that may or may not be present.
  void expectLookupsMatch(const CTable& t, const std::vector<Value>& probe,
                          const std::string& where) {
    const Groups g = group(t);
    bool probeFound = false;
    for (const std::vector<size_t>& rows : g) {
      const std::vector<Value>& vals = t.rows()[rows.front()].vals;
      ASSERT_EQ(t.rowsWithData(vals), rows) << where;
      ASSERT_EQ(t.conditionOf(vals), disjOf(t, rows)) << where;
      probeFound = probeFound || vals == probe;
    }
    if (!probeFound) {
      ASSERT_TRUE(t.rowsWithData(probe).empty()) << where;
      ASSERT_TRUE(t.conditionOf(probe).isFalse()) << where;
    }
  }

  /// consolidate() against its definition computed from rows().
  void expectConsolidateMatches(CTable& t, const std::string& where) {
    const Groups g = group(t);
    std::vector<std::pair<size_t, size_t>> leads;  // (row, part)
    for (size_t p = 0; p < g.size(); ++p) {
      for (size_t r : g[p]) {
        if (!t.rows()[r].cond.isFalse()) {
          leads.emplace_back(r, p);
          break;
        }
      }
    }
    std::sort(leads.begin(), leads.end());
    std::vector<Row> want;
    for (const auto& [r, p] : leads) {
      want.emplace_back(t.rows()[r].vals, disjOf(t, g[p]));
    }
    t.consolidate();
    ASSERT_EQ(t.size(), want.size()) << where;
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(t.rows()[i].vals, want[i].vals) << where << " row " << i;
      ASSERT_EQ(t.rows()[i].cond, want[i].cond) << where << " row " << i;
    }
  }

  /// One random step on `t`; returns the step's name.
  std::string step(CTable& t, util::Rng& rng, size_t parts) {
    const uint64_t op = rng.below(100);
    if (op < 35) {
      t.append(data(rng, parts), cond(rng));
      return "append";
    }
    if (op < 60) {
      t.insert(data(rng, parts), cond(rng));
      return "insert";
    }
    if (op < 75 && !t.empty()) {
      const size_t r = rng.below(t.size());
      t.setCondition(r, rng.chance(0.3) ? Formula::bottom() : cond(rng));
      return "setCondition";
    }
    if (op < 82 && !t.empty()) {
      // Whole parts (by data) or some rows of a part (by condition).
      const int64_t mod = rng.range(5, 40);
      const int64_t rem = rng.range(0, mod - 1);
      const Formula atom = cond(rng);
      const bool byData = rng.chance(0.5);
      t.pruneIf([&](const Row& row) {
        if (row.cond.isFalse()) return true;
        if (!byData) {
          return row.cond == atom || row.cond.kind() == Formula::Kind::Or;
        }
        return row.vals[0].isConstant() && row.vals[0].asInt() % mod == rem;
      });
      return "pruneIf";
    }
    if (op < 92) {
      std::vector<Value> vals = !t.empty() && rng.chance(0.8)
                                    ? t.rows()[rng.below(t.size())].vals
                                    : data(rng, parts);
      t.eraseWithData(vals);
      return "eraseWithData";
    }
    if (op < 95) {
      expectConsolidateMatches(t, "consolidate");
      return "consolidate";
    }
    t.append(data(rng, parts), cond(rng));
    return "append";
  }

  /// Runs `steps` random steps, checking after each; every few steps a
  /// copy is taken and must keep rendering as it did while either side
  /// is written.
  size_t run(uint64_t seed, size_t steps, size_t parts, size_t minRows) {
    util::Rng rng(seed);
    CTable t(schema());
    // Fill first so the table starts with `minRows` rows.
    while (t.size() < minRows) t.append(data(rng, parts), cond(rng));
    size_t maxParts = group(t).size();
    for (size_t i = 0; i < steps; ++i) {
      std::string where = "seed " + std::to_string(seed) + " step " +
                          std::to_string(i);
      if (rng.chance(0.1)) {
        // Copy-then-write, on the original or on the copy.
        CTable copy = t;
        const std::string before = t.toString();
        const bool writeCopy = rng.chance(0.5);
        CTable& written = writeCopy ? copy : t;
        CTable& other = writeCopy ? t : copy;
        where += " (copy-then-write " + step(written, rng, parts) + ")";
        EXPECT_EQ(other.toString(), before) << where;
        expectLookupsMatch(other, data(rng, parts), where + " other");
        if (::testing::Test::HasFatalFailure()) return maxParts;
        expectLookupsMatch(written, data(rng, parts), where + " written");
        if (writeCopy) t = copy;
      } else {
        where += " " + step(t, rng, parts);
        expectLookupsMatch(t, data(rng, parts), where);
      }
      if (::testing::Test::HasFatalFailure()) return maxParts;
      maxParts = std::max(maxParts, group(t).size());
    }
    expectConsolidateMatches(t, "final consolidate");
    return maxParts;
  }
};

TEST_F(PartTableTest, SmallTablesMatchTheirDefinitions) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    run(seed, 300, 40, 0);
    if (HasFatalFailure()) return;
  }
}

TEST_F(PartTableTest, LargeTableGrowsAndWrapsItsSlotArray) {
  // Over 2k data parts: the slot array doubles several times and linear
  // probes wrap around its end.
  const size_t maxParts = run(7, 400, 6000, 4000);
  EXPECT_GE(maxParts, 2000u);
}

TEST_F(PartTableTest, FalseFirstRowLandsAtTheFirstNonFalseRow) {
  CTable t(schema());
  const std::vector<Value> d = {Value::fromInt(1), Value::fromInt(1)};
  const std::vector<Value> e = {Value::fromInt(2), Value::fromInt(2)};
  const Formula a = Formula::cmp(Value::cvar(bits_[0]), CmpOp::Eq,
                                 Value::fromInt(1));
  const Formula b = Formula::cmp(Value::cvar(bits_[1]), CmpOp::Eq,
                                 Value::fromInt(2));
  t.append(d, a);  // row 0
  t.append(e, a);  // row 1
  t.append(d, b);  // row 2
  t.setCondition(0, Formula::bottom());
  EXPECT_EQ(t.conditionOf(d), b);
  EXPECT_EQ(t.rowsWithData(d), (std::vector<size_t>{0, 2}));
  t.consolidate();
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t.rows()[0].vals, e);
  EXPECT_EQ(t.rows()[1].vals, d);
  EXPECT_EQ(t.rows()[1].cond, b);
  // A part whose every row is false is dropped.
  t.setCondition(0, Formula::bottom());
  t.consolidate();
  ASSERT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.conditionOf(e).isFalse());
  EXPECT_EQ(t.conditionOf(d), b);
}

}  // namespace
}  // namespace faure::rel
