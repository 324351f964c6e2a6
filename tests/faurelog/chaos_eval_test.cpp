// Chaos contract of supervised evaluation (DESIGN.md §9): with a
// supervised solver stack, results must be bit-identical to an
// unsupervised run when no faults fire; with a seeded FaultPlan and a
// native fallback, injected faults must change *no* result bits either
// (the default plan only ever faults the primary, which fails over) —
// at any thread count, with the verdict cache on or off, for the same
// seed every time.
#include <gtest/gtest.h>

#include "datalog/parser.hpp"
#include "faurelog/eval.hpp"
#include "smt/solver_stack.hpp"
#include "util/fault_plan.hpp"

namespace faure::fl {
namespace {

rel::Schema anySchema(const std::string& name, size_t arity) {
  std::vector<rel::Attribute> attrs(arity);
  for (size_t i = 0; i < arity; ++i) {
    attrs[i] = rel::Attribute{"a" + std::to_string(i), ValueType::Any};
  }
  return rel::Schema(name, attrs);
}

constexpr const char* kClosure =
    "R(x,y) :- E(x,y).\n"
    "R(x,y) :- E(x,z), R(z,y).\n"
    "Far(x,y) :- R(x,y), x < y, y > 8.\n"
    "Stuck(x,y) :- E(x,y), !Far(x,y).\n";

class ChaosEvalTest : public ::testing::Test {
 protected:
  rel::Database db_;

  void SetUp() override {
    // A chain graph with a c-variable condition on every third edge, so
    // closure derives condition-bearing tuples and the solver step has
    // real work to fault.
    CVarId x = db_.cvars().declareInt("x_", 0, 1);
    auto& e = db_.create(anySchema("E", 2));
    for (int i = 0; i < 18; ++i) {
      if (i % 3 == 0) {
        e.insert({Value::fromInt(i), Value::fromInt(i + 1)},
                 smt::Formula::cmp(Value::cvar(x), smt::CmpOp::Eq,
                                   Value::fromInt(i % 2)));
      } else {
        e.insertConcrete({Value::fromInt(i), Value::fromInt(i + 1)});
      }
    }
  }

  struct Run {
    EvalResult res;
    smt::SolverStats solver;
  };

  Run eval(const smt::SupervisionOptions& sup, unsigned threads,
           bool cache) {
    smt::SolverStackOptions stackOpts;
    stackOpts.cacheEntries = cache ? 4096 : 0;
    stackOpts.supervision = sup;
    smt::SolverStack stack = smt::buildSolverStack(db_.cvars(), stackOpts);
    EvalOptions opts;
    opts.threads = threads;
    Run r;
    r.res = evalFaure(dl::parseProgram(kClosure, db_.cvars()), db_,
                      stack.solver.get(), opts);
    r.solver = stack.solver->stats();
    return r;
  }

  static void expectIdentical(const Run& a, const Run& b,
                              const std::string& label) {
    SCOPED_TRACE(label);
    ASSERT_EQ(a.res.idb.size(), b.res.idb.size());
    for (const auto& [name, table] : a.res.idb) {
      auto it = b.res.idb.find(name);
      ASSERT_NE(it, b.res.idb.end()) << "missing relation " << name;
      const auto& rows = table.rows();
      const auto& other = it->second.rows();
      ASSERT_EQ(rows.size(), other.size()) << "size of " << name;
      for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].vals, other[i].vals) << name << " row " << i;
        EXPECT_EQ(rows[i].cond, other[i].cond) << name << " row " << i;
      }
    }
    EXPECT_EQ(a.res.stats.derivations, b.res.stats.derivations);
    EXPECT_EQ(a.res.stats.inserted, b.res.stats.inserted);
    EXPECT_EQ(a.res.stats.prunedUnsat, b.res.stats.prunedUnsat);
    EXPECT_EQ(a.res.stats.subsumed, b.res.stats.subsumed);
    EXPECT_EQ(a.res.stats.iterations, b.res.stats.iterations);
    EXPECT_EQ(a.res.incomplete, b.res.incomplete);
  }

  static smt::SupervisionOptions chaosOptions(uint64_t seed) {
    smt::SupervisionOptions sup;
    sup.enabled = true;
    sup.failover = true;
    sup.seed = seed;
    sup.chaos = util::FaultPlan::defaultChaos(seed);
    return sup;
  }
};

TEST_F(ChaosEvalTest, SupervisionWithZeroFaultsIsBitIdentical) {
  Run plain = eval({}, 1, /*cache=*/true);
  smt::SupervisionOptions sup;
  sup.enabled = true;
  sup.maxRetries = 3;
  sup.failover = true;
  for (unsigned threads : {1u, 4u}) {
    Run run = eval(sup, threads, /*cache=*/true);
    expectIdentical(plain, run,
                    "zero-fault threads=" + std::to_string(threads));
    // Including the logical solver stream — supervision must not add,
    // drop, or re-order a single check.
    EXPECT_EQ(run.solver.checks, plain.solver.checks);
    EXPECT_EQ(run.solver.unsat, plain.solver.unsat);
    EXPECT_EQ(run.solver.unknown, plain.solver.unknown);
    EXPECT_EQ(run.solver.enumerations, plain.solver.enumerations);
  }
}

TEST_F(ChaosEvalTest, SeededChaosWithFailoverChangesNoResultBits) {
  Run plain = eval({}, 1, /*cache=*/true);
  for (uint64_t seed : {1ull, 20260807ull, 64206ull}) {
    smt::SupervisionOptions chaotic = chaosOptions(seed);
    for (unsigned threads : {1u, 2u, 8u}) {
      for (bool cache : {true, false}) {
        Run run = eval(chaotic, threads, cache);
        expectIdentical(plain, run,
                        "seed=" + std::to_string(seed) +
                            " threads=" + std::to_string(threads) +
                            " cache=" + (cache ? "on" : "off"));
      }
    }
  }
}

TEST_F(ChaosEvalTest, PermanentPrimaryCrashCompletesViaFailover) {
  // Every attempt against the primary dies; the native fallback carries
  // the whole run and the results still match a healthy evaluation.
  util::FaultSpec spec;
  spec.crash = 1.0;
  spec.clearsOnRetry = false;
  auto plan = std::make_shared<util::FaultPlan>(13);
  plan->configure(std::string(util::FaultPlan::kPrimaryTag), spec);

  Run plain = eval({}, 1, /*cache=*/true);
  smt::SupervisionOptions dying;
  dying.enabled = true;
  dying.maxRetries = 1;
  dying.failover = true;
  dying.chaos = plan;
  for (unsigned threads : {1u, 4u}) {
    Run run = eval(dying, threads, /*cache=*/true);
    expectIdentical(plain, run,
                    "dead-primary threads=" + std::to_string(threads));
    EXPECT_FALSE(run.res.incomplete);
  }
}

TEST_F(ChaosEvalTest, SameSeedReplaysTheSameDegradedRun) {
  // Chain of one (no fallback): injected faults that exhaust retries
  // degrade checks to Unknown. Degraded or not, a fixed seed must give
  // byte-identical results at every thread count.
  util::FaultSpec spec;
  spec.spuriousUnknown = 0.25;
  spec.clearsOnRetry = false;  // retries cannot clear it: some degrade
  auto plan = std::make_shared<util::FaultPlan>(7);
  plan->configure(std::string(util::FaultPlan::kPrimaryTag), spec);

  smt::SupervisionOptions degraded;
  degraded.enabled = true;
  degraded.maxRetries = 1;
  degraded.chaos = plan;

  Run first = eval(degraded, 1, /*cache=*/true);
  for (unsigned threads : {1u, 2u, 8u}) {
    Run replay = eval(degraded, threads, /*cache=*/true);
    expectIdentical(first, replay,
                    "replay threads=" + std::to_string(threads));
  }
  // And the degradation is real: spurious Unknowns leave tuples that a
  // healthy run would have pruned.
  Run plain = eval({}, 1, /*cache=*/true);
  EXPECT_GE(first.res.stats.inserted, plain.res.stats.inserted);
}

}  // namespace
}  // namespace faure::fl
