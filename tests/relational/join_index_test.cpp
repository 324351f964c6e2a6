// Unit tests for persistent secondary join indexes (rel::JoinIndex,
// relational/ctable.hpp): lazy watermark builds, wild-row handling for
// c-variable key columns, in-place remaps under pruneIf/eraseWithData,
// the consolidate rebuild dropping indexes, and cross-copy persistence
// (the incremental engine retains tables — and their indexes — by
// copying them across epochs).
#include <gtest/gtest.h>

#include "relational/ctable.hpp"

namespace faure::rel {
namespace {

using smt::CmpOp;
using smt::Formula;

class JoinIndexTest : public ::testing::Test {
 protected:
  CVarRegistry reg_;
  CVarId u_ = reg_.declareInt("u_", 0, 9);

  Schema schema() {
    return Schema("E", {{"a", ValueType::Int}, {"b", ValueType::Int}});
  }
  Value v(int64_t n) { return Value::fromInt(n); }
  static size_t hashOf(const Value& val) {
    return JoinIndex::hashStep(JoinIndex::hashInit(), val);
  }
};

TEST_F(JoinIndexTest, LazyBuildBucketsByKeyColumn) {
  CTable t(schema());
  t.insertConcrete({v(1), v(10)});
  t.insertConcrete({v(2), v(10)});
  t.insertConcrete({v(3), v(20)});
  const JoinIndex& idx = t.ensureJoinIndex({1});
  EXPECT_EQ(idx.keyArgs(), (std::vector<size_t>{1}));
  EXPECT_EQ(idx.builtUpTo(), 3u);
  EXPECT_EQ(idx.indexedRows(), 3u);
  EXPECT_EQ(idx.wildCount(), 0u);
  const std::vector<size_t>* b10 = idx.bucket(hashOf(v(10)));
  ASSERT_NE(b10, nullptr);
  EXPECT_EQ(*b10, (std::vector<size_t>{0, 1}));  // ascending
  const std::vector<size_t>* b20 = idx.bucket(hashOf(v(20)));
  ASSERT_NE(b20, nullptr);
  EXPECT_EQ(*b20, (std::vector<size_t>{2}));
  EXPECT_EQ(idx.bucket(hashOf(v(99))), nullptr);
  EXPECT_EQ(t.joinIndexCount(), 1u);
}

TEST_F(JoinIndexTest, WatermarkExtensionCoversOnlyNewRows) {
  CTable t(schema());
  t.insertConcrete({v(1), v(10)});
  t.ensureJoinIndex({1});
  t.insertConcrete({v(2), v(10)});
  t.insertConcrete({v(3), v(30)});
  // joinIndexStats never builds: the watermark is stale until ensure.
  JoinIndexStats stale;
  ASSERT_TRUE(t.joinIndexStats({1}, stale));
  EXPECT_EQ(stale.builtUpTo, 1u);
  const JoinIndex& idx = t.ensureJoinIndex({1});
  EXPECT_EQ(idx.builtUpTo(), 3u);
  EXPECT_EQ(*idx.bucket(hashOf(v(10))), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(*idx.bucket(hashOf(v(30))), (std::vector<size_t>{2}));
}

TEST_F(JoinIndexTest, CVarKeyColumnsLandInWildRows) {
  CTable t(schema());
  t.insertConcrete({v(1), v(10)});
  t.insertConcrete({v(2), Value::cvar(u_)});
  t.insertConcrete({v(3), v(10)});
  const JoinIndex& idx = t.ensureJoinIndex({1});
  EXPECT_EQ(idx.indexedRows(), 2u);
  EXPECT_EQ(idx.wildRows(), (std::vector<size_t>{1}));
  // A c-variable in a non-key column does not make the row wild.
  const JoinIndex& byA = t.ensureJoinIndex({0});
  EXPECT_EQ(byA.wildCount(), 0u);
  EXPECT_EQ(byA.indexedRows(), 3u);
  EXPECT_EQ(t.joinIndexCount(), 2u);
}

TEST_F(JoinIndexTest, PruneIfRemapsAllIndexesInPlace) {
  CTable t(schema());
  for (int i = 0; i < 6; ++i) t.insertConcrete({v(i), v(i % 2)});
  t.insertConcrete({v(6), Value::cvar(u_)});
  t.ensureJoinIndex({1});
  t.ensureJoinIndex({0});
  // Drop rows 1 and 3 (a=1, a=3); survivors shift down monotonically.
  size_t removed = t.pruneIf([](const Row& r) {
    return r.vals[0] == Value::fromInt(1) || r.vals[0] == Value::fromInt(3);
  });
  EXPECT_EQ(removed, 2u);
  CTable::IndexUpkeep upkeep;
  const JoinIndex* idx = &t.ensureJoinIndex({1}, &upkeep);
  EXPECT_EQ(upkeep, CTable::IndexUpkeep::None);  // remapped, not rebuilt
  // Old rows {0,2,4} (b=0) -> new {0,1,2}; old {5} (b=1) -> {3}; the
  // wild row 6 -> 4. The watermark still covers the whole table.
  EXPECT_EQ(*idx->bucket(hashOf(v(0))), (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(*idx->bucket(hashOf(v(1))), (std::vector<size_t>{3}));
  EXPECT_EQ(idx->wildRows(), (std::vector<size_t>{4}));
  EXPECT_EQ(idx->builtUpTo(), t.size());
  EXPECT_EQ(idx->indexedRows(), 4u);
}

TEST_F(JoinIndexTest, EmptiedBucketsAreErased) {
  CTable t(schema());
  t.insertConcrete({v(1), v(10)});
  t.insertConcrete({v(2), v(20)});
  t.ensureJoinIndex({1});
  t.eraseWithData({v(1), v(10)});
  CTable::IndexUpkeep upkeep;
  const JoinIndex* idx = &t.ensureJoinIndex({1}, &upkeep);
  EXPECT_EQ(upkeep, CTable::IndexUpkeep::None);  // remapped, not rebuilt
  EXPECT_EQ(idx->bucket(hashOf(v(10))), nullptr);
  EXPECT_EQ(*idx->bucket(hashOf(v(20))), (std::vector<size_t>{0}));
  EXPECT_EQ(idx->builtUpTo(), 1u);
}

TEST_F(JoinIndexTest, ConsolidateRebuildDropsIndexes) {
  CTable t(schema());
  Formula c1 = Formula::cmp(Value::cvar(u_), CmpOp::Eq, v(1));
  Formula c2 = Formula::cmp(Value::cvar(u_), CmpOp::Eq, v(2));
  t.append({v(1), v(10)}, c1);
  t.append({v(1), v(10)}, c2);  // duplicate data part -> merge on consolidate
  t.ensureJoinIndex({1});
  t.consolidate();
  EXPECT_EQ(t.size(), 1u);
  // The merge renumbered rows; stale indexes would probe wrong rows, so
  // the rebuild drops them and the next ensure starts fresh.
  EXPECT_EQ(t.joinIndexCount(), 0u);
  EXPECT_EQ(t.ensureJoinIndex({1}).builtUpTo(), 1u);
}

TEST_F(JoinIndexTest, ConsolidateWithoutMergeKeepsIndexes) {
  CTable t(schema());
  t.insertConcrete({v(1), v(10)});
  t.insertConcrete({v(2), v(20)});
  t.ensureJoinIndex({1});
  t.consolidate();  // nothing merges: rows (and indexes) untouched
  EXPECT_EQ(t.joinIndexCount(), 1u);
  JoinIndexStats st;
  ASSERT_TRUE(t.joinIndexStats({1}, st));
  EXPECT_EQ(st.builtUpTo, 2u);
}

TEST_F(JoinIndexTest, CopiesCarryIndexesAcrossEpochs) {
  CTable t(schema());
  t.insertConcrete({v(1), v(10)});
  t.ensureJoinIndex({1});
  CTable copy = t;  // the incremental engine's epoch retention
  JoinIndexStats st;
  ASSERT_TRUE(copy.joinIndexStats({1}, st));
  EXPECT_EQ(st.builtUpTo, 1u);
  // The copy's index is independent: extending it leaves the original's
  // watermark alone.
  copy.insertConcrete({v(2), v(10)});
  copy.ensureJoinIndex({1});
  ASSERT_TRUE(copy.joinIndexStats({1}, st));
  EXPECT_EQ(st.builtUpTo, 2u);
  ASSERT_TRUE(t.joinIndexStats({1}, st));
  EXPECT_EQ(st.builtUpTo, 1u);
}

}  // namespace
}  // namespace faure::rel
