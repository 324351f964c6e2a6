// Unit tests for c-tables (relational/ctable.hpp).
#include "relational/ctable.hpp"

#include <gtest/gtest.h>

#include <functional>

#include "relational/database.hpp"
#include "util/error.hpp"

namespace faure::rel {
namespace {

using smt::CmpOp;
using smt::Formula;

class CTableTest : public ::testing::Test {
 protected:
  CVarRegistry reg_;
  CVarId x_ = reg_.declare("x_", ValueType::Path);

  Schema pathSchema() {
    return Schema("P", {{"dest", ValueType::Prefix}, {"path", ValueType::Path}});
  }
  Value dest(const char* s) { return Value::parsePrefix(s); }
  Value path(std::initializer_list<const char*> names) {
    return Value::path(std::vector<std::string>(names.begin(), names.end()));
  }
};

TEST_F(CTableTest, InsertAndLookup) {
  CTable t(pathSchema());
  EXPECT_TRUE(t.insertConcrete({dest("1.2.3.4"), path({"ABC"})}));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.conditionOf({dest("1.2.3.4"), path({"ABC"})}).isTrue());
  EXPECT_TRUE(t.conditionOf({dest("1.2.3.5"), path({"ABC"})}).isFalse());
}

TEST_F(CTableTest, DuplicateInsertIsNoChange) {
  CTable t(pathSchema());
  EXPECT_TRUE(t.insertConcrete({dest("1.2.3.4"), path({"ABC"})}));
  EXPECT_FALSE(t.insertConcrete({dest("1.2.3.4"), path({"ABC"})}));
  EXPECT_EQ(t.size(), 1u);
}

TEST_F(CTableTest, ConditionsMergeWithOr) {
  CTable t(pathSchema());
  Formula c1 = Formula::cmp(Value::cvar(x_), CmpOp::Eq, path({"ABC"}));
  Formula c2 = Formula::cmp(Value::cvar(x_), CmpOp::Eq, path({"ADEC"}));
  EXPECT_TRUE(t.insert({dest("1.2.3.4"), Value::cvar(x_)}, c1));
  EXPECT_TRUE(t.insert({dest("1.2.3.4"), Value::cvar(x_)}, c2));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.conditionOf({dest("1.2.3.4"), Value::cvar(x_)}),
            Formula::disj2(c1, c2));
  // Re-inserting an already-covered condition changes nothing.
  EXPECT_FALSE(t.insert({dest("1.2.3.4"), Value::cvar(x_)}, c1));
}

TEST_F(CTableTest, FalseConditionRowsAreDropped) {
  CTable t(pathSchema());
  EXPECT_FALSE(t.insert({dest("1.2.3.4"), path({"ABC"})}, Formula::bottom()));
  EXPECT_TRUE(t.empty());
}

TEST_F(CTableTest, ArityMismatchThrows) {
  CTable t(pathSchema());
  EXPECT_THROW(t.insertConcrete({dest("1.2.3.4")}), EvalError);
}

TEST_F(CTableTest, TypeMismatchThrows) {
  CTable t(pathSchema());
  EXPECT_THROW(t.insertConcrete({Value::fromInt(5), path({"ABC"})}),
               TypeError);
}

TEST_F(CTableTest, CVarEntriesBypassTypeCheck) {
  CTable t(pathSchema());
  EXPECT_TRUE(t.insertConcrete({dest("1.2.3.4"), Value::cvar(x_)}));
}

TEST_F(CTableTest, AppendKeepsDuplicates) {
  CTable t(pathSchema());
  Formula c1 = Formula::cmp(Value::cvar(x_), CmpOp::Eq, path({"ABC"}));
  Formula c2 = Formula::cmp(Value::cvar(x_), CmpOp::Eq, path({"ADEC"}));
  EXPECT_TRUE(t.append({dest("1.2.3.4"), path({"X"})}, c1));
  EXPECT_TRUE(t.append({dest("1.2.3.4"), path({"X"})}, c2));
  EXPECT_EQ(t.size(), 2u);
  // conditionOf ORs duplicates.
  EXPECT_EQ(t.conditionOf({dest("1.2.3.4"), path({"X"})}),
            Formula::disj2(c1, c2));
  EXPECT_EQ(t.rowsWithData({dest("1.2.3.4"), path({"X"})}).size(), 2u);
  t.consolidate();
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.conditionOf({dest("1.2.3.4"), path({"X"})}),
            Formula::disj2(c1, c2));
}

TEST_F(CTableTest, PruneIf) {
  CTable t(pathSchema());
  t.insertConcrete({dest("1.2.3.4"), path({"A"})});
  t.insertConcrete({dest("1.2.3.5"), path({"B"})});
  t.insertConcrete({dest("1.2.3.6"), path({"C"})});
  size_t removed = t.pruneIf([&](const Row& r) {
    return r.vals[0] == dest("1.2.3.5");
  });
  EXPECT_EQ(removed, 1u);
  EXPECT_EQ(t.size(), 2u);
  // Index is rebuilt correctly.
  EXPECT_TRUE(t.conditionOf({dest("1.2.3.5"), path({"B"})}).isFalse());
  EXPECT_TRUE(t.conditionOf({dest("1.2.3.6"), path({"C"})}).isTrue());
}

TEST_F(CTableTest, CollectVars) {
  CTable t(pathSchema());
  t.insert({dest("1.2.3.4"), Value::cvar(x_)},
           Formula::cmp(Value::cvar(x_), CmpOp::Eq, path({"ABC"})));
  auto vars = t.collectVars();
  ASSERT_EQ(vars.size(), 1u);
  EXPECT_EQ(vars[0], x_);
}

TEST_F(CTableTest, EraseWithData) {
  CTable t(pathSchema());
  t.insertConcrete({dest("1.2.3.4"), path({"ABC"})});
  t.insert({dest("1.2.3.4"), Value::cvar(x_)},
           Formula::cmp(Value::cvar(x_), CmpOp::Eq, path({"ABC"})));
  t.insertConcrete({dest("5.6.7.8"), path({"D"})});
  // Retraction is by exact data part, whatever the row's condition.
  EXPECT_EQ(t.eraseWithData({dest("1.2.3.4"), Value::cvar(x_)}), 1u);
  EXPECT_EQ(t.size(), 2u);
  // A miss is 0, not an error — and leaves the table alone.
  EXPECT_EQ(t.eraseWithData({dest("9.9.9.9"), path({"Z"})}), 0u);
  EXPECT_EQ(t.size(), 2u);
  // Survivors are still findable through the rebuilt index.
  EXPECT_EQ(t.rowsWithData({dest("1.2.3.4"), path({"ABC"})}).size(), 1u);
  // Arity violations go through the usual row check.
  EXPECT_THROW(t.eraseWithData({dest("1.2.3.4")}), EvalError);
}

TEST_F(CTableTest, SchemaHelpers) {
  Schema s = pathSchema();
  EXPECT_EQ(s.indexOf("dest"), 0u);
  EXPECT_EQ(s.indexOf("path"), 1u);
  EXPECT_EQ(s.indexOf("nope"), SIZE_MAX);
  Schema r = s.renamed("Q");
  EXPECT_EQ(r.name(), "Q");
  EXPECT_EQ(r.arity(), 2u);
}

// ---- copy-on-write bodies and the content stamp ----

TEST_F(CTableTest, CopiesShareAStampAndNewTablesGetFreshOnes) {
  CTable t(pathSchema());
  t.insertConcrete({dest("1.2.3.4"), path({"ABC"})});
  CTable copy = t;
  CTable assigned;
  assigned = t;
  EXPECT_EQ(copy.stamp(), t.stamp());
  EXPECT_EQ(assigned.stamp(), t.stamp());
  CTable moved = std::move(assigned);
  EXPECT_EQ(moved.stamp(), t.stamp());
  // Two tables built the same way are still distinct contents.
  CTable other(pathSchema());
  other.insertConcrete({dest("1.2.3.4"), path({"ABC"})});
  EXPECT_NE(other.stamp(), t.stamp());
  EXPECT_NE(CTable(pathSchema()).stamp(), CTable(pathSchema()).stamp());
}

TEST_F(CTableTest, EveryMutationTakesAFreshStamp) {
  Formula c1 = Formula::cmp(Value::cvar(x_), CmpOp::Eq, path({"ABC"}));
  Formula c2 = Formula::cmp(Value::cvar(x_), CmpOp::Eq, path({"ADEC"}));
  CTable t(pathSchema());
  t.insertConcrete({dest("1.2.3.4"), path({"ABC"})});
  // Each mutator runs on a fresh copy: the copy must move to a stamp no
  // table has had, and the original keeps its own.
  auto fresh = [&](const std::function<void(CTable&)>& mutate) {
    CTable copy = t;
    uint64_t before = copy.stamp();
    mutate(copy);
    EXPECT_NE(copy.stamp(), before);
    EXPECT_EQ(t.stamp(), before);
  };
  fresh([&](CTable& c) { c.insertConcrete({dest("5.6.7.8"), path({"D"})}); });
  fresh([&](CTable& c) { c.insert({dest("1.2.3.5"), Value::cvar(x_)}, c1); });
  fresh([&](CTable& c) { c.append({dest("1.2.3.4"), path({"ABC"})}, c1); });
  fresh([&](CTable& c) { c.pruneIf([](const Row&) { return true; }); });
  fresh([&](CTable& c) { c.eraseWithData({dest("1.2.3.4"), path({"ABC"})}); });
  fresh([&](CTable& c) { c.setCondition(0, c2); });
  fresh([&](CTable& c) { c = CTable(Schema("Q", pathSchema().attributes())); });
  fresh([&](CTable& c) {
    c.append({dest("1.2.3.4"), path({"ABC"})}, c1);
    uint64_t appended = c.stamp();
    c.consolidate();  // merges the duplicate data part
    EXPECT_NE(c.stamp(), appended);
  });
  // A condition that grows on an existing data part is a change too.
  CTable cond(pathSchema());
  cond.insert({dest("1.2.3.4"), Value::cvar(x_)}, c1);
  uint64_t before = cond.stamp();
  EXPECT_TRUE(cond.insert({dest("1.2.3.4"), Value::cvar(x_)}, c2));
  EXPECT_NE(cond.stamp(), before);
}

TEST_F(CTableTest, NoOpMutationsKeepTheStampAndTheSharing) {
  CTable t(pathSchema());
  t.insertConcrete({dest("1.2.3.4"), path({"ABC"})});
  CTable copy = t;
  const Row* shared = &t.rows()[0];
  EXPECT_FALSE(copy.insertConcrete({dest("1.2.3.4"), path({"ABC"})}));
  EXPECT_FALSE(copy.insert({dest("5.6.7.8"), path({"D"})}, Formula::bottom()));
  EXPECT_EQ(copy.pruneIf([](const Row&) { return false; }), 0u);
  EXPECT_EQ(copy.eraseWithData({dest("9.9.9.9"), path({"Z"})}), 0u);
  copy.consolidate();  // nothing merges
  EXPECT_EQ(copy.stamp(), t.stamp());
  EXPECT_EQ(&copy.rows()[0], shared);  // still one body
}

TEST_F(CTableTest, WritesThroughACloneNeverShowThroughTheBase) {
  Database base;
  base.create(pathSchema()).insertConcrete({dest("1.2.3.4"), path({"ABC"})});
  const std::string before = base.table("P").toString();
  Database fork = base.clone();
  EXPECT_EQ(fork.table("P").stamp(), base.table("P").stamp());
  fork.table("P").insertConcrete({dest("5.6.7.8"), path({"D"})});
  fork.table("P").setCondition(
      0, Formula::cmp(Value::cvar(x_), CmpOp::Eq, path({"ABC"})));
  EXPECT_EQ(base.table("P").toString(), before);
  EXPECT_EQ(base.table("P").size(), 1u);
  EXPECT_EQ(fork.table("P").size(), 2u);
  EXPECT_NE(fork.table("P").stamp(), base.table("P").stamp());
}

TEST_F(CTableTest, WritesThroughTheBaseNeverShowThroughAClone) {
  Database base;
  base.create(pathSchema()).insertConcrete({dest("1.2.3.4"), path({"ABC"})});
  Database fork = base.clone();
  const std::string forked = fork.table("P").toString();
  const uint64_t stamp = fork.table("P").stamp();
  base.table("P").insertConcrete({dest("5.6.7.8"), path({"D"})});
  base.table("P").eraseWithData({dest("1.2.3.4"), path({"ABC"})});
  EXPECT_EQ(fork.table("P").toString(), forked);
  EXPECT_EQ(fork.table("P").stamp(), stamp);
  EXPECT_EQ(fork.table("P").rowsWithData({dest("1.2.3.4"), path({"ABC"})}),
            (std::vector<size_t>{0}));
  EXPECT_TRUE(
      base.table("P").rowsWithData({dest("1.2.3.4"), path({"ABC"})}).empty());
}

TEST_F(CTableTest, EnsureJoinIndexOnASharedTableLeavesTheOtherCopyIntact) {
  CTable t(pathSchema());
  t.insertConcrete({dest("1.2.3.4"), path({"ABC"})});
  t.insertConcrete({dest("5.6.7.8"), path({"ABC"})});
  t.insert({dest("9.9.9.9"), Value::cvar(x_)},
           Formula::cmp(Value::cvar(x_), CmpOp::Eq, path({"D"})));
  const std::string before = t.toString();
  CTable copy = t;
  CTable::IndexUpkeep upkeep;
  const JoinIndex& idx = copy.ensureJoinIndex({1}, &upkeep);
  EXPECT_EQ(upkeep, CTable::IndexUpkeep::Built);
  size_t h = JoinIndex::hashStep(JoinIndex::hashInit(), path({"ABC"}));
  ASSERT_NE(idx.bucket(h), nullptr);
  EXPECT_EQ(*idx.bucket(h), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(idx.wildRows(), (std::vector<size_t>{2}));
  // The index is a cache in the shared body: the other copy probes the
  // same rows, and its rows, stamp and text did not move.
  const JoinIndex& same = t.ensureJoinIndex({1}, &upkeep);
  EXPECT_EQ(upkeep, CTable::IndexUpkeep::None);
  EXPECT_EQ(&same, &idx);
  EXPECT_EQ(t.toString(), before);
  EXPECT_EQ(t.stamp(), copy.stamp());
  // A write detaches the writer with its own copy of the index; the
  // other copy keeps probing the original rows.
  copy.insertConcrete({dest("1.1.1.1"), path({"ABC"})});
  EXPECT_EQ(*copy.ensureJoinIndex({1}).bucket(h),
            (std::vector<size_t>{0, 1, 3}));
  EXPECT_EQ(*t.ensureJoinIndex({1}).bucket(h), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.toString(), before);
  JoinIndexStats stats;
  ASSERT_TRUE(t.joinIndexStats({1}, stats));
  EXPECT_EQ(stats.builtUpTo, 3u);
  EXPECT_EQ(stats.indexedRows, 2u);
  EXPECT_EQ(stats.wildCount, 1u);
  EXPECT_FALSE(t.joinIndexStats({0}, stats));
}

TEST_F(CTableTest, MovedFromTableReadsEmpty) {
  CTable t(pathSchema());
  t.insertConcrete({dest("1.2.3.4"), path({"ABC"})});
  CTable moved = std::move(t);
  EXPECT_EQ(moved.size(), 1u);
  // NOLINTNEXTLINE(bugprone-use-after-move): the state is specified.
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.schema().arity(), 0u);
  t = moved;
  EXPECT_EQ(t.size(), 1u);
}

}  // namespace
}  // namespace faure::rel
