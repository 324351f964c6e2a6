// Thread-count invariance of a single evaluation (DESIGN.md §7): the
// fixpoint is serial, and EvalOptions::threads is only the scenario
// fan-out width, so for any threads value the evaluator must produce
// the same rows in the same order with the same conditions and the
// same logical counters (EvalStats and solver.* stats), and a budget
// trip, cancellation or strict-budget throw must surface the same
// machine-readable reason as threads = 1.
#include <gtest/gtest.h>

#include "datalog/parser.hpp"
#include "faurelog/eval.hpp"
#include "util/error.hpp"

namespace faure::fl {
namespace {

rel::Schema anySchema(const std::string& name, size_t arity) {
  std::vector<rel::Attribute> attrs(arity);
  for (size_t i = 0; i < arity; ++i) {
    attrs[i] = rel::Attribute{"a" + std::to_string(i), ValueType::Any};
  }
  return rel::Schema(name, attrs);
}

struct EvalRun {
  EvalResult res;
  smt::SolverStats solver;
};

class ParallelEvalTest : public ::testing::Test {
 protected:
  rel::Database db_;

  dl::Program parse(const char* text) {
    return dl::parseProgram(text, db_.cvars());
  }

  EvalRun eval(const char* text, unsigned threads, EvalOptions opts = {}) {
    smt::NativeSolver solver(db_.cvars());
    opts.threads = threads;
    EvalRun r;
    r.res = evalFaure(parse(text), db_, &solver, opts);
    r.solver = solver.stats();
    return r;
  }

  /// Byte-level result identity: same relations, same rows in the same
  /// order, identical condition formulas, identical logical counters.
  static void expectIdentical(const EvalRun& serial, const EvalRun& parallel,
                              const char* label) {
    SCOPED_TRACE(label);
    const EvalResult& a = serial.res;
    const EvalResult& b = parallel.res;
    ASSERT_EQ(a.idb.size(), b.idb.size());
    for (const auto& [name, table] : a.idb) {
      auto it = b.idb.find(name);
      ASSERT_NE(it, b.idb.end()) << "missing relation " << name;
      const auto& rows = table.rows();
      const auto& other = it->second.rows();
      ASSERT_EQ(rows.size(), other.size()) << "size of " << name;
      for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].vals, other[i].vals)
            << name << " row " << i << " data";
        EXPECT_EQ(rows[i].cond, other[i].cond)
            << name << " row " << i << " condition";
      }
    }
    EXPECT_EQ(a.stats.derivations, b.stats.derivations);
    EXPECT_EQ(a.stats.inserted, b.stats.inserted);
    EXPECT_EQ(a.stats.prunedUnsat, b.stats.prunedUnsat);
    EXPECT_EQ(a.stats.subsumed, b.stats.subsumed);
    EXPECT_EQ(a.stats.iterations, b.stats.iterations);
    EXPECT_EQ(a.stats.solverChecks, b.stats.solverChecks);
    EXPECT_EQ(a.incomplete, b.incomplete);
    EXPECT_EQ(a.tripped, b.tripped);
    EXPECT_EQ(a.degradeReason, b.degradeReason);
    // The logical solver stream is identical too.
    EXPECT_EQ(serial.solver.checks, parallel.solver.checks);
    EXPECT_EQ(serial.solver.unsat, parallel.solver.unsat);
    EXPECT_EQ(serial.solver.unknown, parallel.solver.unknown);
    EXPECT_EQ(serial.solver.enumerations, parallel.solver.enumerations);
  }

  void expectDeterministicAcrossThreadCounts(const char* program,
                                             EvalOptions opts = {}) {
    EvalRun serial = eval(program, 1, opts);
    for (unsigned threads : {2u, 8u}) {
      EvalRun par = eval(program, threads, opts);
      expectIdentical(serial, par,
                      ("threads=" + std::to_string(threads)).c_str());
    }
  }

  /// A chain graph 0 -> 1 -> ... -> n with a c-variable condition on
  /// every third edge, so closure derives condition-bearing tuples.
  void loadChain(int n) {
    CVarId x = db_.cvars().declareInt("x_", 0, 1);
    auto& e = db_.create(anySchema("E", 2));
    for (int i = 0; i < n; ++i) {
      if (i % 3 == 0) {
        e.insert({Value::fromInt(i), Value::fromInt(i + 1)},
                 smt::Formula::cmp(Value::cvar(x), smt::CmpOp::Eq,
                                   Value::fromInt(i % 2)));
      } else {
        e.insertConcrete({Value::fromInt(i), Value::fromInt(i + 1)});
      }
    }
  }
};

TEST_F(ParallelEvalTest, RecursiveClosureIsThreadCountInvariant) {
  loadChain(24);
  expectDeterministicAcrossThreadCounts(
      "R(x,y) :- E(x,y).\n"
      "R(x,y) :- E(x,z), R(z,y).\n");
}

TEST_F(ParallelEvalTest, NegationAndComparisonsAreThreadCountInvariant) {
  loadChain(16);
  // Three strata: closure, a comparison filter, closed-world negation
  // over the lower stratum.
  expectDeterministicAcrossThreadCounts(
      "R(x,y) :- E(x,y).\n"
      "R(x,y) :- E(x,z), R(z,y).\n"
      "Far(x,y) :- R(x,y), x < y, y > 8.\n"
      "Stuck(x,y) :- E(x,y), !Far(x,y).\n");
}

TEST_F(ParallelEvalTest, LargeRelationPartitioningIsThreadCountInvariant) {
  // A 2048-row relation: a long single-literal scan and a self-join.
  CVarId x = db_.cvars().declareInt("x_", 0, 1);
  auto& e = db_.create(anySchema("E", 2));
  for (int i = 0; i < 2048; ++i) {
    if (i % 97 == 0) {
      e.insert({Value::fromInt(i), Value::fromInt(i + 1)},
               smt::Formula::cmp(Value::cvar(x), smt::CmpOp::Eq,
                                 Value::fromInt(0)));
    } else {
      e.insertConcrete({Value::fromInt(i), Value::fromInt(i + 1)});
    }
  }
  expectDeterministicAcrossThreadCounts(
      "Q(x,y) :- E(x,y), x < y, y < 2000.\n"
      "P(x,z) :- E(x,y), E(y,z), x < 100.\n");
}

TEST_F(ParallelEvalTest, NaiveModeAndNoSolverModeStayInvariant) {
  loadChain(12);
  EvalOptions naive;
  naive.semiNaive = false;
  expectDeterministicAcrossThreadCounts(
      "R(x,y) :- E(x,y).\n"
      "R(x,y) :- E(x,z), R(z,y).\n",
      naive);

  EvalOptions noSolver;
  noSolver.pruneWithSolver = false;
  expectDeterministicAcrossThreadCounts(
      "S(x,y) :- E(x,y), x < 6.\n", noSolver);
}

TEST_F(ParallelEvalTest, TupleBudgetTripDegradesWithTheSerialReason) {
  // The degradation contract: a budget tripped under threads = 4 must
  // surface the same machine-readable `kind(limit=N)` reason as
  // threads = 1 — not crash, not hang, not a different reason.
  loadChain(12);
  ResourceLimits limits;
  limits.maxTuples = 20;
  const char* kClosure =
      "R(x,y) :- E(x,y).\n"
      "R(x,y) :- E(x,z), R(z,y).\n";

  ResourceGuard serialGuard(limits);
  EvalOptions serialOpts;
  serialOpts.guard = &serialGuard;
  EvalRun serial = eval(kClosure, 1, serialOpts);

  ResourceGuard parGuard(limits);
  EvalOptions parOpts;
  parOpts.guard = &parGuard;
  EvalRun par = eval(kClosure, 4, parOpts);

  EXPECT_TRUE(serial.res.incomplete);
  EXPECT_TRUE(par.res.incomplete);
  EXPECT_EQ(par.res.tripped, Budget::Tuples);
  EXPECT_EQ(par.res.degradeReason, "tuples(limit=20)");
  EXPECT_EQ(par.res.degradeReason, serial.res.degradeReason);
  EXPECT_EQ(par.res.stats.budgetTrips, 1u);
}

TEST_F(ParallelEvalTest, SolverCheckBudgetTripDegradesWithTheSerialReason) {
  loadChain(12);
  ResourceLimits limits;
  limits.maxSolverChecks = 3;
  const char* kProgram =
      "R(x,y) :- E(x,y).\n"
      "R(x,y) :- E(x,z), R(z,y).\n";

  ResourceGuard serialGuard(limits);
  EvalOptions serialOpts;
  serialOpts.guard = &serialGuard;
  EvalRun serial = eval(kProgram, 1, serialOpts);

  ResourceGuard parGuard(limits);
  EvalOptions parOpts;
  parOpts.guard = &parGuard;
  EvalRun par = eval(kProgram, 4, parOpts);

  EXPECT_TRUE(serial.res.incomplete);
  EXPECT_TRUE(par.res.incomplete);
  EXPECT_EQ(par.res.tripped, Budget::SolverChecks);
  EXPECT_EQ(par.res.degradeReason, "solver-checks(limit=3)");
  EXPECT_EQ(par.res.degradeReason, serial.res.degradeReason);
}

TEST_F(ParallelEvalTest, CancellationStopsParallelEvaluation) {
  loadChain(12);
  ResourceLimits limits;
  limits.maxSteps = 1u << 30;  // active guard, no budget will trip
  ResourceGuard guard(limits);
  guard.cancel();
  EvalOptions opts;
  opts.guard = &guard;
  EvalRun r = eval(
      "R(x,y) :- E(x,y).\n"
      "R(x,y) :- E(x,z), R(z,y).\n",
      4, opts);
  EXPECT_TRUE(r.res.incomplete);
  EXPECT_EQ(r.res.tripped, Budget::Cancelled);
  EXPECT_EQ(r.res.degradeReason, "cancelled");
}

TEST_F(ParallelEvalTest, ThrowOnBudgetPropagatesFromWorkers) {
  loadChain(12);
  ResourceLimits limits;
  limits.maxTuples = 5;
  ResourceGuard guard(limits);
  EvalOptions opts;
  opts.guard = &guard;
  opts.throwOnBudget = true;
  try {
    eval(
        "R(x,y) :- E(x,y).\n"
        "R(x,y) :- E(x,z), R(z,y).\n",
        4, opts);
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.reason(), "tuples(limit=5)");
  }
}
}  // namespace
}  // namespace faure::fl
