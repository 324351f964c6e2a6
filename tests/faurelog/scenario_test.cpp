// Tests for the concurrent scenario service (faurelog/scenario.hpp):
// the fork-isolation contract (scenarios editing the same relation
// divergently never observe each other, and a budget-tripped scenario
// degrades alone), the fork-vs-fresh byte-identity contract at every
// fan-out width (including under seeded chaos), the scenarios-file
// split, the Database::clone() snapshot the forks are built on, and the
// fan-out width rules of resolveThreads (explicit > FAURE_THREADS env >
// 1, 0 = hardware).
#include "faurelog/scenario.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "datalog/parser.hpp"
#include "faurelog/textio.hpp"
#include "util/fault_plan.hpp"
#include "util/thread_pool.hpp"

namespace faure::fl {
namespace {

// The two-team shape from data/whatif_reach.fl: recursive reachability
// units ({R}, {Deliver}) and policy units ({Open}, {Lockdown}).
constexpr const char* kDb =
    "var l_ int 0 1\n"
    "table F(flow sym, from int, to int)\n"
    "table Acl(app sym, port int)\n"
    "row F f0 1 2 | l_ = 1\n"
    "row F f0 1 4 | l_ = 0\n"
    "row F f0 4 2\n"
    "row F f0 2 3\n"
    "row Acl web 80\n"
    "row Acl legacy 8080\n";

constexpr const char* kProgram =
    "R(f,a,b) :- F(f,a,b).\n"
    "R(f,a,b) :- F(f,a,c), R(f,c,b).\n"
    "Deliver(f) :- R(f,1,3).\n"
    "Open(app,p) :- Acl(app,p), p < 1024.\n"
    "Lockdown(app) :- Acl(app,p), !Open(app,p).\n";

ScenarioSet makeSet(ScenarioSetOptions opts = {}) {
  rel::Database db = parseDatabase(kDb);
  dl::Program program = dl::parseProgram(kProgram, db.cvars());
  return ScenarioSet(std::move(program), std::move(db), std::move(opts));
}

/// The fork-vs-fresh oracle: the scenario replayed through its own
/// single-scenario set (fresh parse, fresh epoch 0, serial, no chaos).
ScenarioOutcome freshRun(const Scenario& s, int mode = -1) {
  ScenarioSetOptions opts;
  opts.eval.threads = 1;
  opts.mode = mode;
  ScenarioSet one = makeSet(std::move(opts));
  return one.evaluate({s}).front();
}

TEST(ParseScenarioFile, SplitsOnDelimiterLines) {
  std::vector<Scenario> s = parseScenarioFile(
      "+F(f0, 2, 3)\n---\n-Acl(web, 80)\n+Acl(web, 81)\n");
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0].id, "1");
  EXPECT_EQ(s[0].edits, "+F(f0, 2, 3)\n");
  EXPECT_EQ(s[1].id, "2");
  EXPECT_EQ(s[1].edits, "-Acl(web, 80)\n+Acl(web, 81)\n\n");
}

TEST(ParseScenarioFile, OuterEmptyBlocksDropInteriorOnesStay) {
  // Leading/trailing delimiters are formatting; an *interior* empty
  // block is a real epoch-0-only scenario.
  std::vector<Scenario> s =
      parseScenarioFile("---\n+F(f0, 2, 3)\n---\n\n---\n-Acl(web, 80)\n---\n");
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].edits, "+F(f0, 2, 3)\n");
  EXPECT_EQ(s[1].edits, "\n");
  EXPECT_EQ(s[2].edits, "-Acl(web, 80)\n");
}

TEST(ParseScenarioFile, WhitespaceOnlyFileHasNoScenarios) {
  EXPECT_TRUE(parseScenarioFile("").empty());
  EXPECT_TRUE(parseScenarioFile("\n  \n---\n\n").empty());
}

TEST(DatabaseClone, ForkEditsNeverReachTheOriginal) {
  rel::Database db = parseDatabase(kDb);
  const std::string before = db.table("F").toString(&db.cvars());
  rel::Database fork = db.clone();
  // Registry ids survive the copy: a formula minted against the base
  // registry renders identically against the fork's.
  EXPECT_EQ(db.cvars().size(), fork.cvars().size());
  for (const Edit& e : parseEditScript("-F(f0, 2, 3)\n+F(f0, 2, 9)\n", fork)) {
    if (e.kind == Edit::Kind::Insert) {
      fork.table(e.pred).insert(e.vals, e.cond);
    } else {
      fork.table(e.pred).eraseWithData(e.vals);
    }
  }
  EXPECT_EQ(db.table("F").toString(&db.cvars()), before);
  EXPECT_NE(fork.table("F").toString(&fork.cvars()), before);
}

TEST(ScenarioSetTest, DivergentEditsToTheSameRelationStayIsolated) {
  // Two scenarios pull the same link in opposite directions; a third
  // leaves the reachability team alone entirely. Each must match its
  // fresh single-scenario run byte for byte, and the base snapshot must
  // come through untouched.
  std::vector<Scenario> scenarios = {
      {"drop", "-F(f0, 2, 3)\n"},
      {"reroute", "-F(f0, 2, 3)\n+F(f0, 2, 9)\n+F(f0, 9, 3)\n"},
      {"policy", "+Acl(web, 8443)\n-Acl(legacy, 8080)\n"},
  };
  ScenarioSet set = makeSet();
  const std::string baseBefore =
      set.base().table("F").toString(&set.base().cvars());
  std::vector<ScenarioOutcome> out = set.evaluate(scenarios);
  ASSERT_EQ(out.size(), 3u);
  for (size_t i = 0; i < scenarios.size(); ++i) {
    ScenarioOutcome fresh = freshRun(scenarios[i]);
    EXPECT_EQ(out[i].id, scenarios[i].id);
    EXPECT_EQ(out[i].exitCode, 0) << out[i].message;
    EXPECT_EQ(out[i].output, fresh.output) << "scenario " << scenarios[i].id;
  }
  EXPECT_EQ(set.base().table("F").toString(&set.base().cvars()), baseBefore);
}

TEST(ScenarioSetTest, EmptyScriptIsServedFromTheSharedSnapshot) {
  ScenarioSet set = makeSet();
  std::vector<ScenarioOutcome> out = set.evaluate({{"base", ""}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].exitCode, 0);
  EXPECT_EQ(out[0].epochs, 1u);
  EXPECT_EQ(out[0].output.rfind("== epoch 0: initial ==\n", 0), 0u);
}

TEST(ScenarioSetTest, ParseErrorReportsExitOneWithoutOutput) {
  ScenarioSet set = makeSet();
  std::vector<ScenarioOutcome> out =
      set.evaluate({{"bad", "+Nope(1, 2)\n"}, {"good", "+Acl(db, 5432)\n"}});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].exitCode, 1);
  EXPECT_TRUE(out[0].output.empty());
  EXPECT_NE(out[0].message.find("undeclared table"), std::string::npos);
  EXPECT_EQ(out[1].exitCode, 0) << out[1].message;
}

TEST(ScenarioSetTest, BudgetTrippedScenarioDegradesAlone) {
  // maxTuples = 40 clears epoch 0 (< 20 tuples on this fixture) and the
  // light scenarios, but the cycle-building scenario's later epochs
  // derive well past it under the full-recompute oracle. The degraded
  // scenario must report exit-code-2 semantics by itself — siblings
  // evaluated in the same batch stay byte-identical to unguarded runs.
  std::vector<Scenario> scenarios = {
      {"heavy", "+F(f0, 3, 5)\n+F(f0, 5, 1)\n"},
      {"light", "-Acl(legacy, 8080)\n"},
      {"base", ""},
  };
  ScenarioSetOptions opts;
  opts.eval.threads = 2;
  opts.mode = 0;  // full recompute: per-epoch tuple counts are fixed
  opts.limits.maxTuples = 40;
  ScenarioSet set = makeSet(std::move(opts));
  std::vector<ScenarioOutcome> out = set.evaluate(scenarios);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].exitCode, 2);
  EXPECT_NE(out[0].message.find("tuples(limit=40)"), std::string::npos)
      << out[0].message;
  // Partial output: the epochs before the trip are retained.
  EXPECT_NE(out[0].output.find("== epoch 1: "), std::string::npos);
  EXPECT_EQ(out[1].exitCode, 0) << out[1].message;
  EXPECT_EQ(out[2].exitCode, 0) << out[2].message;
  EXPECT_EQ(out[1].output, freshRun(scenarios[1], /*mode=*/0).output);
  EXPECT_EQ(out[2].output, freshRun(scenarios[2], /*mode=*/0).output);
}

TEST(ScenarioSetTest, ForkMatchesFreshAtWidthEightUnderChaos) {
  // The widest isolation claim in one go: eight divergent scenarios
  // fanned out at threads=8, forks supervised with a seeded chaos plan
  // (primary faults + native failover) — every outcome must still be
  // byte-identical to a serial, chaos-free single-scenario run.
  std::vector<Scenario> scenarios;
  for (int i = 0; i < 8; ++i) {
    const std::string port = std::to_string(1000 + i * 7);
    std::string edits;
    if (i % 2 == 0) {
      edits = "-F(f0, 2, 3)\n+F(f0, 2, " + std::to_string(10 + i) + ")\n";
    } else {
      edits = "+Acl(app" + std::to_string(i) + ", " + port + ")\n";
    }
    scenarios.push_back({std::to_string(i + 1), std::move(edits)});
  }
  ScenarioSetOptions opts;
  opts.eval.threads = 8;
  opts.solver.supervision.enabled = true;
  opts.solver.supervision.failover = true;
  opts.solver.supervision.chaos = util::FaultPlan::defaultChaos(20260807);
  ScenarioSet set = makeSet(std::move(opts));
  std::vector<ScenarioOutcome> out = set.evaluate(scenarios);
  ASSERT_EQ(out.size(), scenarios.size());
  for (size_t i = 0; i < scenarios.size(); ++i) {
    ScenarioOutcome fresh = freshRun(scenarios[i]);
    EXPECT_EQ(out[i].exitCode, 0) << out[i].message;
    EXPECT_EQ(out[i].output, fresh.output) << "scenario " << scenarios[i].id;
  }
}

TEST(ScenarioSetTest, BatchesReuseOnePreparedSnapshot) {
  ScenarioSet set = makeSet();
  const EvalResult& base = set.prepare();
  EXPECT_FALSE(base.incomplete);
  // Two batches over the same set: the second must not re-derive epoch
  // 0 (prepare is idempotent) and must produce identical bytes.
  std::vector<ScenarioOutcome> a = set.evaluate({{"x", "-F(f0, 2, 3)\n"}});
  std::vector<ScenarioOutcome> b = set.evaluate({{"x", "-F(f0, 2, 3)\n"}});
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].output, b[0].output);
  EXPECT_EQ(a[0].exitCode, 0);
}

TEST(ResolveThreadsTest, ExplicitEnvAndHardwareRules) {
  EvalOptions opts;

  // Unset + no env: serial.
  ::unsetenv("FAURE_THREADS");
  EXPECT_EQ(resolveThreads(opts), 1u);

  // Unset + env: the environment decides (the TSan CI job relies on
  // forcing scenario fan-out into every test through this knob).
  ::setenv("FAURE_THREADS", "3", 1);
  EXPECT_EQ(resolveThreads(opts), 3u);

  // Explicit threads override the environment entirely.
  opts.threads = 1;
  EXPECT_EQ(resolveThreads(opts), 1u);
  opts.threads = 5;
  EXPECT_EQ(resolveThreads(opts), 5u);

  // 0 means hardware concurrency, from either source.
  opts.threads = 0;
  EXPECT_EQ(resolveThreads(opts), util::ThreadPool::hardwareConcurrency());
  opts.threads.reset();
  ::setenv("FAURE_THREADS", "0", 1);
  EXPECT_EQ(resolveThreads(opts), util::ThreadPool::hardwareConcurrency());

  ::unsetenv("FAURE_THREADS");
}

}  // namespace
}  // namespace faure::fl
