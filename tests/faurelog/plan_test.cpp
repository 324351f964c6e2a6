// Cost-based join planning (faurelog/plan.hpp, DESIGN.md §11): unit
// tests for the rule-shape analysis and the greedy planner, and the
// byte-identity contract end to end — for any plan mode, thread count
// and workload shape (reordered literals, wild c-variable rows, large
// first literals, recursive delta pinning) the evaluator must produce
// results bit-identical to the pristine program-order path, including
// the logical counters. Also pins that a persistent index is built once
// per (relation, key-set, epoch), never once per firing.
#include "faurelog/plan.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "datalog/analysis.hpp"
#include "datalog/parser.hpp"
#include "faurelog/eval.hpp"
#include "faurelog/incremental.hpp"
#include "faurelog/textio.hpp"
#include "obs/trace.hpp"

namespace faure::fl {
namespace {

RuleShape analyzeFirstRule(const dl::Program& program) {
  const dl::Rule& rule = program.rules.at(0);
  std::vector<std::string> vars = dl::ruleVariables(rule);
  std::unordered_map<std::string, size_t> slotOf;
  for (size_t i = 0; i < vars.size(); ++i) slotOf[vars[i]] = i;
  return RuleShape::analyze(rule, slotOf);
}

class PlanShapeTest : public ::testing::Test {
 protected:
  rel::Database db_;

  RuleShape shape(const char* text) {
    return analyzeFirstRule(dl::parseProgram(text, db_.cvars()));
  }
};

TEST_F(PlanShapeTest, MirrorsSerialBoundProgression) {
  RuleShape s = shape("T(x,z) :- A(x,y), B(y,z), C(z).\n");
  ASSERT_EQ(s.lits.size(), 3u);
  // A(x,y): both args bind; nothing is hashable yet.
  EXPECT_EQ(s.lits[0].args[0].kind, RuleShape::Arg::Kind::FreeVar);
  EXPECT_EQ(s.lits[0].args[1].kind, RuleShape::Arg::Kind::FreeVar);
  EXPECT_TRUE(s.lits[0].serialKeyArgs.empty());
  // B(y,z): y was bound by A -> the serial evaluator hashes on arg 0.
  EXPECT_EQ(s.lits[1].args[0].kind, RuleShape::Arg::Kind::BoundVar);
  EXPECT_TRUE(s.lits[1].args[0].boundBefore);
  EXPECT_EQ(s.lits[1].serialKeyArgs, (std::vector<size_t>{0}));
  // C(z): z was bound by B.
  EXPECT_EQ(s.lits[2].serialKeyArgs, (std::vector<size_t>{0}));
  // y's binder is A's second argument; it occurs in A and B.
  size_t ySlot = s.lits[0].args[1].slot;
  EXPECT_EQ(s.binders[ySlot].lit, 0u);
  EXPECT_EQ(s.binders[ySlot].arg, 1u);
  EXPECT_EQ(s.occurrences[ySlot].size(), 2u);
}

TEST_F(PlanShapeTest, SameLiteralRepeatIsBoundButNotHashable) {
  // A(x,x): the second x is bound *by this row*, so the serial
  // evaluator cannot hash on it (boundBefore == false).
  RuleShape s = shape("S(x) :- A(x,x).\n");
  ASSERT_EQ(s.lits.size(), 1u);
  EXPECT_EQ(s.lits[0].args[1].kind, RuleShape::Arg::Kind::BoundVar);
  EXPECT_FALSE(s.lits[0].args[1].boundBefore);
  EXPECT_TRUE(s.lits[0].serialKeyArgs.empty());
}

TEST_F(PlanShapeTest, ConstantsAreFixedKeysAndNegationIsSkipped) {
  RuleShape s = shape("P(x) :- A(7, x), !B(x).\n");
  ASSERT_EQ(s.lits.size(), 1u);  // only positive literals
  EXPECT_EQ(s.lits[0].args[0].kind, RuleShape::Arg::Kind::Fixed);
  EXPECT_EQ(s.lits[0].args[0].value, Value::fromInt(7));
  EXPECT_EQ(s.lits[0].serialKeyArgs, (std::vector<size_t>{0}));
}

class PlanRuleTest : public PlanShapeTest {};

TEST_F(PlanRuleTest, DeltaLiteralIsPinnedFirst) {
  RuleShape s = shape("T(x,z) :- A(x,y), B(y,z), C(z).\n");
  std::vector<LitStats> stats = {{nullptr, 100}, {nullptr, 100},
                                 {nullptr, 2}};
  RulePlan plan = planRule(s, /*deltaLit=*/1, stats);
  ASSERT_EQ(plan.order.size(), 3u);
  EXPECT_EQ(plan.order[0].lit, 1u);
  EXPECT_TRUE(plan.reordered);
}

TEST_F(PlanRuleTest, GreedyPlacesSelectiveLiteralFirst) {
  RuleShape s = shape("T(x,z) :- A(x,y), B(y,z), C(z).\n");
  std::vector<LitStats> stats = {{nullptr, 100}, {nullptr, 100},
                                 {nullptr, 2}};
  RulePlan plan = planRule(s, SIZE_MAX, stats);
  EXPECT_EQ(plan.order[0].lit, 2u);
  EXPECT_TRUE(plan.reordered);
}

TEST_F(PlanRuleTest, TiesKeepProgramOrderUnreordered) {
  RuleShape s = shape("T(x,z) :- A(x,y), B(y,z), C(z).\n");
  std::vector<LitStats> stats = {{nullptr, 10}, {nullptr, 10},
                                 {nullptr, 10}};
  RulePlan plan = planRule(s, SIZE_MAX, stats);
  EXPECT_FALSE(plan.reordered);
  for (size_t i = 0; i < plan.order.size(); ++i) {
    EXPECT_EQ(plan.order[i].lit, i);
  }
}

TEST_F(PlanRuleTest, NonBinderOccurrencesAreNeverJoinedToEachOther) {
  // y binds in A; B and C carry later occurrences. When B and C are
  // both placed before A, C must NOT probe on B's y value — serial
  // evaluation links each occurrence to the *binder*, not pairwise, so
  // keying C on B could drop combinations serial keeps.
  RuleShape s = shape("T(x) :- A(x,y), B(p,y), C(q,y).\n");
  std::vector<LitStats> stats = {{nullptr, 50}, {nullptr, 1}, {nullptr, 2}};
  RulePlan plan = planRule(s, SIZE_MAX, stats);
  ASSERT_EQ(plan.order.size(), 3u);
  EXPECT_EQ(plan.order[0].lit, 1u);  // B: cheapest scan
  EXPECT_EQ(plan.order[1].lit, 2u);  // C: y from B is NOT probe-able
  EXPECT_TRUE(plan.order[1].probes.empty());
  // A (the binder) may probe: equality is symmetric, any placed
  // occurrence feeds the binder column — the first in visit order (B).
  EXPECT_EQ(plan.order[2].lit, 0u);
  ASSERT_EQ(plan.order[2].probes.size(), 1u);
  EXPECT_EQ(plan.order[2].probes[0].arg, 1u);
  EXPECT_FALSE(plan.order[2].probes[0].fixed);
  EXPECT_EQ(plan.order[2].probes[0].srcLit, 1u);
}

TEST(PlanModeTest, ResolutionPrefersExplicitThenEnv) {
  EXPECT_EQ(resolvePlanMode(PlanMode::Off), PlanMode::Off);
  setenv("FAURE_PLAN", "off", 1);
  EXPECT_EQ(resolvePlanMode(std::nullopt), PlanMode::Off);
  EXPECT_EQ(resolvePlanMode(PlanMode::On), PlanMode::On);  // flag wins
  setenv("FAURE_PLAN", "0", 1);
  EXPECT_EQ(resolvePlanMode(std::nullopt), PlanMode::Off);
  setenv("FAURE_PLAN", "explain", 1);
  EXPECT_EQ(resolvePlanMode(std::nullopt), PlanMode::Explain);
  setenv("FAURE_PLAN", "on", 1);
  EXPECT_EQ(resolvePlanMode(std::nullopt), PlanMode::On);
  unsetenv("FAURE_PLAN");
  EXPECT_EQ(resolvePlanMode(std::nullopt), PlanMode::On);  // default
}

/// End-to-end byte identity: every workload below is evaluated with the
/// planner off (serial program order — the pristine baseline) and
/// compared bit for bit against planner-on runs at several thread
/// counts.
class PlanIdentityTest : public ::testing::Test {
 protected:
  struct EvalRun {
    EvalResult res;
    smt::SolverStats solver;
  };

  EvalRun eval(const std::string& dbText, const char* progText,
               PlanMode plan, unsigned threads) {
    rel::Database db = parseDatabase(dbText);
    dl::Program program = dl::parseProgram(progText, db.cvars());
    smt::NativeSolver solver(db.cvars());
    EvalOptions opts;
    opts.plan = plan;
    opts.threads = threads;
    EvalRun r;
    r.res = evalFaure(program, db, &solver, opts);
    r.solver = solver.stats();
    return r;
  }

  static void expectIdentical(const EvalRun& off, const EvalRun& on,
                              const std::string& label) {
    SCOPED_TRACE(label);
    const EvalResult& a = off.res;
    const EvalResult& b = on.res;
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
    // Logical counters: the planner must not change which candidates
    // are derived or which conditions reach the solver — only how the
    // rows were found.
    EXPECT_EQ(a.stats.derivations, b.stats.derivations);
    EXPECT_EQ(a.stats.inserted, b.stats.inserted);
    EXPECT_EQ(a.stats.prunedUnsat, b.stats.prunedUnsat);
    EXPECT_EQ(a.stats.subsumed, b.stats.subsumed);
    EXPECT_EQ(a.stats.iterations, b.stats.iterations);
    EXPECT_EQ(off.solver.checks, on.solver.checks);
    EXPECT_EQ(off.solver.unsat, on.solver.unsat);
    EXPECT_EQ(off.solver.enumerations, on.solver.enumerations);
  }

  void expectPlanInvisible(const std::string& dbText, const char* progText) {
    EvalRun baseline = eval(dbText, progText, PlanMode::Off, 1);
    for (unsigned threads : {1u, 2u, 8u}) {
      EvalRun planned = eval(dbText, progText, PlanMode::On, threads);
      expectIdentical(baseline, planned,
                      "plan=on threads=" + std::to_string(threads));
      EvalRun unplanned = eval(dbText, progText, PlanMode::Off, threads);
      expectIdentical(baseline, unplanned,
                      "plan=off threads=" + std::to_string(threads));
    }
  }
};

TEST_F(PlanIdentityTest, SelectiveLastLiteralReordersInvisibly) {
  // Program order A x B is the wrong order; the 2-row C should drive.
  std::string db =
      "table A(x int, y int)\n"
      "table B(y int, z int)\n"
      "table C(z int)\n";
  for (int i = 0; i < 40; ++i) {
    db += "row A " + std::to_string(i) + " " + std::to_string(i % 4) + "\n";
    db += "row B " + std::to_string(i % 4) + " " + std::to_string(i) + "\n";
  }
  db += "row C 0\nrow C 20\n";
  expectPlanInvisible(db, "T(x,z) :- A(x,y), B(y,z), C(z).\n");
}

TEST_F(PlanIdentityTest, WildRowsAndConditionsSurviveReordering) {
  std::string db =
      "var u_ int 0 3\n"
      "var w_ int 0 1\n"
      "table A(x int, y int)\n"
      "table B(y int, z int)\n"
      "table C(z int)\n";
  for (int i = 0; i < 24; ++i) {
    db += "row A " + std::to_string(i) + " " + std::to_string(i % 4) + "\n";
    db += "row B " + std::to_string(i % 4) + " " + std::to_string(i) + "\n";
  }
  // Wild rows (c-variable key columns) and conditional rows: index
  // probes must still visit them in serial row order.
  db += "row A 100 u_\n";
  db += "row A 101 2 | w_ = 1\n";
  db += "row B u_ 7\n";
  db += "row C 4\nrow C 7\n";
  expectPlanInvisible(db, "T(x,z) :- A(x,y), B(y,z), C(z).\n");
}

TEST_F(PlanIdentityTest, NonBinderOccurrencesAreNotOverPruned) {
  // The over-pruning trap: A's wild row binds y := u_; B carries y=2
  // and C carries y=3. Serial derives the candidate with condition
  // u_ = 2 AND u_ = 3 and lets the *solver* prune it. A planner that
  // joined B's and C's y occurrences directly would never enumerate
  // the combination — visible as a derivations/solver-checks drift.
  std::string db =
      "var u_ int 0 9\n"
      "table A(x int, y int)\n"
      "table B(p int, y int)\n"
      "table C(q int, y int)\n"
      "row A 1 u_\n"
      "row A 2 5\n"
      "row A 3 2\n"
      "row B 7 2\n"
      "row C 8 3\n"
      "row C 9 2\n";
  expectPlanInvisible(db, "T(x) :- A(x,y), B(p,y), C(q,y).\n");
}

TEST_F(PlanIdentityTest, RecursiveClosureKeepsDeltaSemantics) {
  // Chain closure: the semi-naive delta literal is pinned first by the
  // planner, and the final fixpoint round runs with an empty delta.
  std::string db =
      "var x_ int 0 1\n"
      "table E(a int, b int)\n";
  for (int i = 0; i < 24; ++i) {
    db += "row E " + std::to_string(i) + " " + std::to_string(i + 1);
    if (i % 3 == 0) db += " | x_ = " + std::to_string(i % 2);
    db += "\n";
  }
  expectPlanInvisible(db,
                      "R(x,y) :- E(x,y).\n"
                      "R(x,y) :- E(x,z), R(z,y).\n");
}

TEST_F(PlanIdentityTest, ChunkedParallelRoundsStayCanonical) {
  // 1100 rows in the first literal, eight rows per join key: the
  // planned join must reproduce the program-order stream at every
  // thread count; the first round's delta is the full range.
  std::string db =
      "table E(x int, y int)\n"
      "table E2(y int, z int)\n";
  for (int i = 0; i < 1100; ++i) {
    db += "row E " + std::to_string(i) + " " + std::to_string(i % 8) + "\n";
  }
  db += "row E2 3 0\nrow E2 5 1\n";
  expectPlanInvisible(db, "T(x,z) :- E(x,y), E2(y,z).\n");
}

TEST_F(PlanIdentityTest, ExplainModeMatchesAndDumpsPlans) {
  std::string db =
      "table A(x int, y int)\n"
      "table B(y int, z int)\n"
      "row A 1 2\nrow A 3 4\n"
      "row B 2 5\nrow B 4 6\n";
  const char* prog = "T(x,z) :- A(x,y), B(y,z).\n";
  EvalRun baseline = eval(db, prog, PlanMode::Off, 1);
  testing::internal::CaptureStderr();
  EvalRun explained = eval(db, prog, PlanMode::Explain, 1);
  std::string dump = testing::internal::GetCapturedStderr();
  expectIdentical(baseline, explained, "plan=explain");
  EXPECT_NE(dump.find("plan T(x, z)"), std::string::npos) << dump;
  EXPECT_NE(dump.find("probe["), std::string::npos) << dump;
}

/// Regression: one persistent index build per (relation, key-set,
/// epoch) — every firing of the epoch shares the index instead of
/// rebuilding it, and a later epoch extends rather than rebuilds.
TEST_F(PlanIdentityTest, IndexBuiltOncePerRelationKeysetAndEpoch) {
  std::string dbText =
      "table E(x int, y int)\n"
      "table E2(y int, z int)\n";
  for (int i = 0; i < 1100; ++i) {
    dbText +=
        "row E " + std::to_string(i) + " " + std::to_string(i % 8) + "\n";
  }
  dbText += "row E2 3 0\nrow E2 5 1\n";
  rel::Database db = parseDatabase(dbText);
  dl::Program program =
      dl::parseProgram("T(x,z) :- E(x,y), E2(y,z).\n", db.cvars());
  smt::NativeSolver solver(db.cvars());
  obs::Tracer tracer;
  EvalOptions opts;
  opts.plan = PlanMode::On;
  opts.tracer = &tracer;
  IncrementalEngine eng(std::move(program), db, &solver, opts);
  eng.setIncremental(true);
  eng.reevaluate();
  auto counter = [&](const std::string& name) -> uint64_t {
    for (const auto& [key, value] : tracer.metrics().snapshot().counters) {
      if (key == name) return value;
    }
    return 0;
  };
  auto builds = [&] { return counter("eval.plan.index_builds"); };
  // The tiny E2 is reordered first and E probes its y column (the
  // binder keyed by E2's placed occurrence): exactly one index build.
  EXPECT_EQ(builds(), 1u);
  // Second epoch: the edit grows the probed E; the retained index is
  // extended by watermark, not rebuilt.
  std::vector<Edit> edits = parseEditScript("+E(2000, 3)\n", db);
  eng.apply(edits.at(0));
  eng.reevaluate();
  EXPECT_EQ(builds(), 1u);
  EXPECT_GE(counter("eval.plan.index_extensions"), 1u);
}

}  // namespace
}  // namespace faure::fl
