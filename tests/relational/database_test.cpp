// Tests for the Database container (relational/database.hpp).
#include "relational/database.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "util/error.hpp"

namespace faure::rel {
namespace {

Schema s(const std::string& name, size_t arity) {
  std::vector<Attribute> attrs(arity);
  for (size_t i = 0; i < arity; ++i) {
    attrs[i] = Attribute{"a" + std::to_string(i), ValueType::Any};
  }
  return Schema(name, attrs);
}

TEST(DatabaseTest, CreateAndLookup) {
  Database db;
  CTable& t = db.create(s("T", 2));
  EXPECT_TRUE(db.has("T"));
  EXPECT_FALSE(db.has("U"));
  EXPECT_EQ(&db.table("T"), &t);
  EXPECT_EQ(db.find("T"), &t);
  EXPECT_EQ(db.find("U"), nullptr);
  EXPECT_THROW(db.table("U"), EvalError);
  EXPECT_THROW(db.create(s("T", 2)), EvalError);
}

TEST(DatabaseTest, PutInsertsOrReplaces) {
  Database db;
  CTable fresh(s("T", 1));
  fresh.insertConcrete({Value::fromInt(1)});
  db.put(fresh);
  EXPECT_EQ(db.table("T").size(), 1u);

  CTable replacement(s("T", 1));
  replacement.insertConcrete({Value::fromInt(2)});
  replacement.insertConcrete({Value::fromInt(3)});
  db.put(replacement);
  EXPECT_EQ(db.table("T").size(), 2u);
  EXPECT_TRUE(db.table("T").conditionOf({Value::fromInt(1)}).isFalse());
}

TEST(DatabaseTest, MoveTransfersEverything) {
  Database a;
  a.cvars().declareInt("x_", 0, 1);
  a.create(s("T", 1)).insertConcrete({Value::fromInt(7)});
  Database b = std::move(a);
  EXPECT_TRUE(b.has("T"));
  EXPECT_EQ(b.cvars().size(), 1u);
}

TEST(DatabaseTest, ToStringListsTables) {
  Database db;
  db.create(s("B", 1)).insertConcrete({Value::fromInt(1)});
  db.create(s("A", 1));
  std::string out = db.toString();
  // Tables print in name order with their rows.
  EXPECT_NE(out.find("A(a0)"), std::string::npos);
  EXPECT_NE(out.find("B(a0)"), std::string::npos);
  EXPECT_LT(out.find("A(a0)"), out.find("B(a0)"));
}

TEST(DatabaseTest, RegistryAssignmentPreservesIds) {
  CVarRegistry reg;
  CVarId x = reg.declareInt("x_", 0, 1);
  Database db;
  db.cvars() = reg;
  EXPECT_EQ(db.cvars().find("x_"), x);
  // The copy is independent.
  db.cvars().declare("extra_", ValueType::Sym);
  EXPECT_EQ(reg.find("extra_"), CVarRegistry::kNotFound);
}

/// What one scenario lane observes of its fork: every table's text, the
/// rows each join index returns for every key present, and the text
/// after its own write.
std::vector<std::string> probeFork(const Database& base) {
  Database fork = base.clone();
  std::vector<std::string> seen;
  for (const auto& [name, table] : fork.tables()) {
    for (size_t col = 0; col < table.schema().arity(); ++col) {
      const JoinIndex& idx = table.ensureJoinIndex({col});
      std::string probes = name + "[" + std::to_string(col) + "]:";
      for (const Row& row : table.rows()) {
        size_t h = JoinIndex::hashStep(JoinIndex::hashInit(), row.vals[col]);
        const std::vector<size_t>* bucket = idx.bucket(h);
        probes += " " + std::to_string(bucket != nullptr ? bucket->size() : 0);
      }
      probes += " wild " + std::to_string(idx.wildCount());
      seen.push_back(std::move(probes));
    }
    seen.push_back(table.toString(&fork.cvars()));
  }
  // A write detaches this fork's table from the shared body while the
  // other lanes keep probing and rendering it.
  CTable& t = fork.table("T");
  t.insertConcrete({Value::fromInt(-1), Value::fromInt(-2)});
  t.ensureJoinIndex({0});
  seen.push_back(t.toString(&fork.cvars()));
  return seen;
}

Database conditionalBase() {
  Database base;
  CVarId x = base.cvars().declareInt("x_", 0, 3);
  CTable& t = base.create(s("T", 2));
  CTable& u = base.create(s("U", 2));
  for (int i = 0; i < 400; ++i) {
    Value a = Value::fromInt(i % 37);
    Value b = i % 11 == 0 ? Value::cvar(x) : Value::fromInt(i % 5);
    t.insert({a, b}, smt::Formula::cmp(Value::cvar(x), smt::CmpOp::Ne,
                                       Value::fromInt(i % 4)));
    u.insertConcrete({Value::fromInt(i), Value::fromInt(i % 7)});
  }
  return base;
}

TEST(DatabaseTest, ConcurrentClonesShareIndexesAndRenderAsSerial) {
  const std::vector<std::string> serial = probeFork(conditionalBase());

  // Four lanes clone one base whose bodies have no indexes yet, then
  // build, probe and render the indexes of the bodies they share, all
  // at once.
  const Database base = conditionalBase();
  const std::string before = base.toString();
  constexpr size_t kLanes = 4;
  std::vector<std::vector<std::string>> lanes(kLanes);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kLanes; ++i) {
    threads.emplace_back([&, i] { lanes[i] = probeFork(base); });
  }
  for (std::thread& th : threads) th.join();
  for (size_t i = 0; i < kLanes; ++i) EXPECT_EQ(lanes[i], serial) << i;
  // No lane's write reached the base.
  EXPECT_EQ(base.toString(), before);
  EXPECT_EQ(base.table("T").joinIndexCount(), 2u);
}

}  // namespace
}  // namespace faure::rel
