// Tests for the high-level Session facade (faure/faure.hpp).
#include "faure/faure.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

#include "util/error.hpp"

namespace faure {
namespace {

TEST(SessionTest, LoadRunCheckRoundTrip) {
  Session s;
  s.load(
      "var x_ int 0 1\n"
      "table F(flow sym, from int, to int)\n"
      "row F f0 1 2 | x_ = 1\n"
      "row F f0 2 3\n");
  auto res = s.run(
      "R(f,a,b) :- F(f,a,b).\n"
      "R(f,a,b) :- F(f,a,c), R(f,c,b).\n");
  EXPECT_EQ(res.relation("R").size(), 3u);
  // Derived relations are stored back into the database.
  EXPECT_TRUE(s.db().has("R"));

  // A follow-up program can build on R.
  auto res2 = s.run("Pair(a,b) :- R('f0', a, b).");
  EXPECT_EQ(res2.relation("Pair").size(), 3u);

  // Constraint check: 1 -> 3 requires x_ = 1.
  auto check = s.check("panic :- !R('f0', 1, 3).");
  EXPECT_EQ(check.verdict, verify::Verdict::ConditionallyViolated);
  CVarId x = s.vars().find("x_");
  smt::NativeSolver judge(s.vars());
  EXPECT_TRUE(judge.equivalent(
      check.condition,
      smt::Formula::cmp(Value::cvar(x), smt::CmpOp::Eq, Value::fromInt(0))));
}

TEST(SessionTest, IncrementalLoads) {
  Session s;
  s.load("var x_ int 0 1\ntable T(a int)\n");
  s.load("row T 1 | x_ = 1\n");
  s.load("row T 2\n");
  EXPECT_EQ(s.db().table("T").size(), 2u);
  // Redeclaring a table throws.
  EXPECT_THROW(s.load("table T(a int)\n"), EvalError);
  // Redeclaring a c-variable throws.
  EXPECT_THROW(s.load("var x_ int 0 1\n"), TypeError);
}

TEST(SessionTest, SubsumptionThroughSession) {
  Session s;
  auto t1 = s.constraint("T1", "panic :- R(Mkt, CS, p_), !Fw(Mkt, CS).");
  auto cs = s.constraint(
      "Cs",
      "panic :- Vs(x, y, p).\n"
      "Vs(xs_, ys_, ps_) :- R(xs_, ys_, ps_), !Fw(xs_, ys_).\n");
  EXPECT_EQ(s.subsumed(t1, {cs}), verify::Verdict::Holds);
  EXPECT_EQ(s.subsumed(cs, {t1}), verify::Verdict::Unknown);
}

TEST(SessionTest, UpdatePathThroughSession) {
  Session s;
  s.vars().declare("y_", ValueType::Sym,
                   {Value::sym("CS"), Value::sym("GS")});
  auto t2 = s.constraint("T2", "panic :- R(R&D, y_, 7000), !Lb(R&D, y_).");
  auto clb = s.constraint(
      "Clb",
      "panic :- Vt(x, y, p).\n"
      "Vt(xt_, CS, pt_) :- R(xt_, CS, pt_), !Lb(xt_, CS).\n");
  verify::Update u;
  u.insert("Lb", {dl::Term::constant_(Value::sym("R&D")),
                  dl::Term::constant_(Value::sym("GS"))});
  EXPECT_EQ(s.subsumed(t2, {clb}), verify::Verdict::Unknown);
  EXPECT_EQ(s.subsumedAfterUpdate(t2, {clb}, u), verify::Verdict::Holds);
}

TEST(SessionTest, OptionsApply) {
  Session s;
  s.load(
      "var x_ int 0 1\n"
      "table E(a int)\n"
      "table F(a int)\n"
      "row E 7 | x_ = 0\n"
      "row F 7 | x_ = 1\n");
  s.options().simplifyResults = true;
  auto res = s.run("Q(v) :- E(v).\nQ(v) :- F(v).\n");
  ASSERT_EQ(res.relation("Q").size(), 1u);
  EXPECT_TRUE(res.relation("Q").rows()[0].cond.isTrue());
}

TEST(SessionTest, ResourceLimitsGovernEveryOperation) {
  Session s;
  s.load(
      "table E(a int, b int)\n"
      "row E 1 2\nrow E 2 3\nrow E 3 4\nrow E 4 5\n");
  ResourceLimits limits;
  limits.maxTuples = 3;
  s.setResourceLimits(limits);
  auto res = s.run(
      "R(x,y) :- E(x,y).\n"
      "R(x,y) :- E(x,z), R(z,y).\n");
  EXPECT_TRUE(res.incomplete);
  EXPECT_EQ(res.tripped, Budget::Tuples);
  EXPECT_TRUE(s.guard().tripped());

  // Each governed operation re-arms the guard: a check after the
  // degraded run gets a fresh budget (and 3 tuples suffice here).
  auto check = s.check("panic :- E(9, 9).");
  EXPECT_EQ(check.verdict, verify::Verdict::Holds);
  EXPECT_FALSE(check.incomplete);

  // Disarming restores ungoverned behaviour.
  s.setResourceLimits(ResourceLimits{});
  auto full = s.run(
      "S(x,y) :- E(x,y).\n"
      "S(x,y) :- E(x,z), S(z,y).\n");
  EXPECT_FALSE(full.incomplete);
  EXPECT_EQ(full.relation("S").size(), 10u);
}

TEST(SessionTest, Z3BackendIfAvailable) {
  if (!smt::z3Available()) {
    EXPECT_THROW(Session s(Session::Backend::Z3), SolverBackendError);
    return;
  }
  Session s(Session::Backend::Z3);
  s.load(
      "var x_ int 0 1\n"
      "table T(a int)\n"
      "row T 1 | x_ = 1\n");
  auto res = s.run("Q(v) :- T(v), x_ = 0.");
  EXPECT_TRUE(res.relation("Q").empty());  // pruned by Z3
}

TEST(SessionTest, TracerRecordsSpansMetricsAndBudgetTrips) {
  Session s;
  obs::Tracer tracer;
  s.setTracer(&tracer);
  EXPECT_EQ(s.tracer(), &tracer);
  s.load(
      "table E(a int, b int)\n"
      "row E 1 2\nrow E 2 3\nrow E 3 4\n");
  auto res = s.run(
      "R(x,y) :- E(x,y).\n"
      "R(x,y) :- E(x,z), R(z,y).\n");
  EXPECT_EQ(res.relation("R").size(), 6u);

  // session.run -> eval -> stratum -> rule nesting.
  auto spans = tracer.spans();
  bool sawRun = false, sawEval = false, sawRule = false;
  for (const auto& sp : spans) {
    if (sp.name == "session.run") sawRun = true;
    if (sp.name == "eval") sawEval = true;
    if (sp.name.rfind("rule[", 0) == 0) sawRule = true;
  }
  EXPECT_TRUE(sawRun);
  EXPECT_TRUE(sawEval);
  EXPECT_TRUE(sawRule);
  obs::MetricsSnapshot snap = tracer.metrics().snapshot();
  EXPECT_EQ(snap.counter("eval.inserted"), 6u);
  EXPECT_GT(snap.counter("solver.checks"), 0u);

  // A governed, starved operation surfaces its trip as a budget.trip
  // event carrying the guard's reason.
  ResourceLimits limits;
  limits.maxTuples = 1;
  s.setResourceLimits(limits);
  auto degraded = s.run(
      "S(x,y) :- E(x,y).\n"
      "S(x,y) :- E(x,z), S(z,y).\n");
  EXPECT_TRUE(degraded.incomplete);
  // Under ambient chaos (tools/ci.sh exports FAURE_CHAOS_SEED) the
  // supervised solver also records supervise.* fault events; they are
  // fault telemetry, not part of the budget contract.
  auto budgetEvents = [&] {
    std::vector<obs::EventRecord> out;
    for (const auto& e : tracer.events()) {
      if (e.name.rfind("supervise.", 0) != 0) out.push_back(e);
    }
    return out;
  };
  auto events = budgetEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "budget.trip");
  EXPECT_EQ(events[0].detail, "tuples(limit=1)");

  // Detaching stops recording.
  s.setTracer(nullptr);
  s.setResourceLimits(ResourceLimits{});
  s.run("T(x) :- E(x, y).");
  EXPECT_EQ(budgetEvents().size(), 1u);
  EXPECT_EQ(tracer.metrics().snapshot().counter("eval.evaluations"), 2u);
}

TEST(SessionTest, ResetStatsZeroesSolverAndRegistry) {
  Session s;
  obs::Tracer tracer;
  s.setTracer(&tracer);
  s.load("table E(a int, b int)\nrow E 1 2\n");
  s.run("R(x,y) :- E(x,y).");
  EXPECT_GT(s.solver().stats().checks, 0u);
  EXPECT_GT(tracer.metrics().snapshot().counter("solver.checks"), 0u);
  s.resetStats();
  EXPECT_EQ(s.solver().stats().checks, 0u);
  EXPECT_EQ(tracer.metrics().snapshot().counter("solver.checks"), 0u);
  EXPECT_EQ(tracer.metrics().snapshot().counter("eval.evaluations"), 0u);
}

TEST(SessionTest, PerOperationResetMakesStatsPerCall) {
  Session s;
  s.load(
      "table E(a int, b int)\n"
      "row E 1 2\nrow E 2 3\nrow E 3 4\n");

  // Default: stats accumulate across operations.
  s.run("R(x,y) :- E(x,y).");
  uint64_t afterFirst = s.solver().stats().checks;
  EXPECT_GT(afterFirst, 0u);
  s.run("S(x,y) :- E(x,y).");
  EXPECT_GT(s.solver().stats().checks, afterFirst);

  // Per-operation mode: each call starts from zero.
  s.resetStatsPerOperation(true);
  s.run("T(x,y) :- E(x,y).");
  uint64_t perOp = s.solver().stats().checks;
  EXPECT_GT(perOp, 0u);
  s.run("U(x,y) :- E(x,y).");
  EXPECT_EQ(s.solver().stats().checks, perOp);  // same work, fresh counter

  // Switching back restores accumulation.
  s.resetStatsPerOperation(false);
  uint64_t base = s.solver().stats().checks;
  s.run("V(x,y) :- E(x,y).");
  EXPECT_GT(s.solver().stats().checks, base);
}

constexpr const char* kSupervisionDb =
    "var x_ int 0 1\n"
    "table F(flow sym, from int, to int)\n"
    "row F f0 1 2 | x_ = 1\n"
    "row F f0 2 3\n";
constexpr const char* kSupervisionProgram =
    "R(f,a,b) :- F(f,a,b).\n"
    "R(f,a,b) :- F(f,a,c), R(f,c,b).\n";

/// Clears the supervision env knobs: sessions constructed afterwards
/// are plain. The suite may itself run under ambient chaos (tools/ci.sh
/// chaos stage exports FAURE_CHAOS_SEED), so tests that assert the
/// *unsupervised* structure of a Session must own these variables.
void clearSupervisionEnv() {
  for (const char* var : {"FAURE_RETRIES", "FAURE_SOLVER_TIMEOUT_MS",
                          "FAURE_FAILOVER", "FAURE_CHAOS_SEED"}) {
    ::unsetenv(var);
  }
}

TEST(SessionTest, SetSupervisionWrapsAndUnwrapsWithoutChangingResults) {
  clearSupervisionEnv();
  Session plain;
  plain.load(kSupervisionDb);
  auto want = plain.run(kSupervisionProgram);

  Session s;
  s.load(kSupervisionDb);
  EXPECT_EQ(s.supervisedSolver(), nullptr);
  smt::SupervisionOptions sup;
  sup.enabled = true;
  sup.maxRetries = 2;
  sup.failover = true;
  s.setSupervision(sup);
  ASSERT_NE(s.supervisedSolver(), nullptr);
  EXPECT_EQ(s.supervisedSolver()->backends(), 2u);  // native + fallback
  // The session cache moved into the wrapper rather than being lost.
  EXPECT_EQ(s.solver().verdictCache(), s.solverCache());

  auto res = s.run(kSupervisionProgram);
  EXPECT_EQ(res.relation("R").size(), want.relation("R").size());
  auto check = s.check("panic :- !R('f0', 1, 3).");
  EXPECT_EQ(check.verdict, verify::Verdict::ConditionallyViolated);

  // Disabling unwraps back to the bare backend, cache intact.
  s.setSupervision(smt::SupervisionOptions{});
  EXPECT_EQ(s.supervisedSolver(), nullptr);
  EXPECT_EQ(s.solver().verdictCache(), s.solverCache());
  auto res2 = s.run(kSupervisionProgram);
  EXPECT_EQ(res2.relation("R").size(), want.relation("R").size());
}

TEST(SessionTest, SupervisionEnvironmentActivatesAtConstruction) {
  clearSupervisionEnv();
  ::setenv("FAURE_CHAOS_SEED", "20260807", 1);
  ::setenv("FAURE_RETRIES", "2", 1);
  Session chaotic;
  clearSupervisionEnv();

  ASSERT_NE(chaotic.supervisedSolver(), nullptr);
  ASSERT_NE(chaotic.supervisedSolver()->supervision().chaos, nullptr);
  EXPECT_EQ(chaotic.supervisedSolver()->supervision().chaos->seed(),
            20260807u);

  // Chaos with the native fallback is output-transparent: the run and
  // the verdict match an unsupervised session bit for bit.
  Session plain;
  plain.load(kSupervisionDb);
  chaotic.load(kSupervisionDb);
  auto want = plain.run(kSupervisionProgram);
  auto got = chaotic.run(kSupervisionProgram);
  ASSERT_EQ(got.relation("R").size(), want.relation("R").size());
  for (size_t i = 0; i < want.relation("R").rows().size(); ++i) {
    EXPECT_EQ(got.relation("R").rows()[i].vals,
              want.relation("R").rows()[i].vals);
    EXPECT_EQ(got.relation("R").rows()[i].cond,
              want.relation("R").rows()[i].cond);
  }
  EXPECT_EQ(chaotic.check("panic :- !R('f0', 1, 3).").verdict,
            plain.check("panic :- !R('f0', 1, 3).").verdict);

  // A session constructed with a clean environment stays unsupervised.
  Session normal;
  EXPECT_EQ(normal.supervisedSolver(), nullptr);
}

TEST(SessionTest, ScenariosInheritTheSessionSupervision) {
  clearSupervisionEnv();
  const char* db =
      "var x_ int 0 1\n"
      "var y_ int 0 2\n"
      "table F(flow sym, from int, to int)\n"
      "row F f0 1 2 | x_ = 1\n"
      "row F f0 2 3 | y_ = 1\n"
      "row F f0 3 4 | x_ = 0\n"
      "row F f0 4 5 | y_ = 2\n"
      "row F f0 5 6\n"
      "row F f0 2 5 | y_ = 0\n";
  const std::vector<fl::Scenario> scenarios = {
      {"1", "-F(f0, 5, 6)\n"},
      {"2", "+F(f0, 6, 1)\n"},
      {"3", "-F(f0, 2, 3)\n+F(f0, 1, 3)\n"}};

  Session plain;
  plain.load(db);
  auto want = plain.scenarios(kSupervisionProgram).evaluate(scenarios);

  ::setenv("FAURE_CHAOS_SEED", "20260807", 1);
  Session chaotic;
  clearSupervisionEnv();
  chaotic.load(db);
  obs::Tracer tracer;
  chaotic.setTracer(&tracer);
  auto got = chaotic.scenarios(kSupervisionProgram).evaluate(scenarios);

  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].exitCode, 0) << got[i].message;
    EXPECT_EQ(got[i].output, want[i].output) << "scenario " << want[i].id;
  }
  // The forks ran supervised: the session's chaos plan reached them.
  EXPECT_GT(tracer.metrics().snapshot().counter(
                "solver.supervise.faults_injected"),
            0u);
}

TEST(SessionTest, WatchDeltaApiReevaluatesIncrementally) {
  Session s;
  s.load(
      "var x_ int 0 1\n"
      "table F(flow sym, from int, to int)\n"
      "table Acl(app sym, port int)\n"
      "row F f0 1 2 | x_ = 1\n"
      "row F f0 2 3\n"
      "row Acl web 80\n");
  auto res = s.watch(
      "R(f,a,b) :- F(f,a,b).\n"
      "R(f,a,b) :- F(f,a,c), R(f,c,b).\n"
      "Open(app,p) :- Acl(app,p), p < 1024.\n");
  EXPECT_EQ(res.idb.at("R").size(), 3u);
  ASSERT_NE(s.incrementalEngine(), nullptr);

  // Security-team edit: the reachability unit is reused verbatim.
  s.incrementalEngine()->setIncremental(true);
  s.insertFact("Acl", {Value::sym("mail"), Value::fromInt(25)});
  auto res2 = s.reevaluate();
  EXPECT_EQ(res2.idb.at("Open").size(), 2u);
  EXPECT_EQ(res2.idb.at("R").size(), 3u);
  EXPECT_GT(s.incrementalEngine()->stats().reusedStrata, 0u);

  // Script-driven edits go through the same engine.
  s.applyEdits("-F(f0, 2, 3)\n+Acl(db, 5432)\n");
  auto res3 = s.reevaluate();
  EXPECT_EQ(res3.idb.at("R").size(), 1u);
  EXPECT_EQ(res3.idb.at("Open").size(), 2u);  // db:5432 not < 1024

  // Watched evaluation never stores derived tables into the database.
  EXPECT_FALSE(s.db().has("R"));
}

TEST(SessionTest, WatchEndsOnLoadRunOrSupervisionChange) {
  Session s;
  s.load("table T(a int)\nrow T 1\n");
  s.watch("U(a) :- T(a).");
  ASSERT_NE(s.incrementalEngine(), nullptr);
  s.load("row T 2\n");  // out-of-band mutation invalidates the watch
  EXPECT_EQ(s.incrementalEngine(), nullptr);
  EXPECT_THROW(s.reevaluate(), EvalError);
  EXPECT_THROW(s.insertFact("T", {Value::fromInt(3)}), EvalError);

  s.watch("U(a) :- T(a).");
  ASSERT_NE(s.incrementalEngine(), nullptr);
  s.run("V(a) :- T(a).");  // run() stores IDB back — also out-of-band
  EXPECT_EQ(s.incrementalEngine(), nullptr);

  s.watch("U(a) :- T(a).");
  smt::SupervisionOptions sup;
  sup.enabled = true;
  s.setSupervision(sup);  // replaces the solver the engine points at
  EXPECT_EQ(s.incrementalEngine(), nullptr);
}

}  // namespace
}  // namespace faure
