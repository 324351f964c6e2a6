// Tests for the solver-stack builder (smt/solver_stack.hpp): the chain
// it builds for every cache × supervision combination, cache adoption,
// the unknown-backend error, and the guard/tracer attachment.
#include "smt/solver_stack.hpp"

#include <gtest/gtest.h>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace faure::smt {
namespace {

enum class Supervision { Off, On, Failover };

class SolverStackTest : public ::testing::Test {
 protected:
  CVarRegistry reg_;
  CVarId x_ = reg_.declareInt("x_", 0, 1);

  SolverStackOptions options(bool cache, Supervision sup) const {
    SolverStackOptions opts;
    opts.cacheEntries = cache ? 64 : 0;
    opts.supervision.enabled = sup != Supervision::Off;
    opts.supervision.failover = sup == Supervision::Failover;
    return opts;
  }

  Formula contradiction() const {
    return Formula::conj2(
        Formula::cmp(Value::cvar(x_), CmpOp::Eq, Value::fromInt(0)),
        Formula::cmp(Value::cvar(x_), CmpOp::Eq, Value::fromInt(1)));
  }
};

TEST_F(SolverStackTest, ChainShapeForEveryCacheAndSupervisionSetting) {
  for (bool cache : {false, true}) {
    for (Supervision sup :
         {Supervision::Off, Supervision::On, Supervision::Failover}) {
      SCOPED_TRACE("cache=" + std::to_string(cache) +
                   " supervision=" + std::to_string(static_cast<int>(sup)));
      SolverStack stack = buildSolverStack(reg_, options(cache, sup));
      ASSERT_NE(stack.solver, nullptr);
      // The cache, when built, is owned by the stack and sits on the
      // outermost layer only.
      EXPECT_EQ(stack.cache != nullptr, cache);
      EXPECT_EQ(stack.solver->verdictCache(), stack.cache.get());

      auto* supervised = dynamic_cast<SupervisedSolver*>(stack.solver.get());
      if (sup == Supervision::Off) {
        EXPECT_EQ(supervised, nullptr);
        EXPECT_NE(dynamic_cast<NativeSolver*>(stack.solver.get()), nullptr);
      } else {
        ASSERT_NE(supervised, nullptr);
        const size_t want = sup == Supervision::Failover ? 2u : 1u;
        ASSERT_EQ(supervised->backends(), want);
        EXPECT_EQ(supervised->backendName(0), "native");
        for (size_t i = 0; i < supervised->backends(); ++i) {
          EXPECT_EQ(supervised->backend(i).verdictCache(), nullptr);
        }
      }
      EXPECT_EQ(stack.solver->check(contradiction()), Sat::Unsat);
    }
  }
}

TEST_F(SolverStackTest, SharedCacheIsAdoptedNotCreated) {
  VerdictCache shared(reg_, 32);
  for (Supervision sup : {Supervision::Off, Supervision::Failover}) {
    SolverStack stack = buildSolverStack(reg_, options(true, sup), &shared);
    EXPECT_EQ(stack.cache, nullptr);
    EXPECT_EQ(stack.solver->verdictCache(), &shared);
  }
}

TEST_F(SolverStackTest, NativeOptionsReachTheBackend) {
  SolverStackOptions opts = options(false, Supervision::Off);
  opts.native.maxDnfCubes = 7;
  opts.native.maxEnum = 9;
  SolverStack stack = buildSolverStack(reg_, opts);
  auto* native = dynamic_cast<NativeSolver*>(stack.solver.get());
  ASSERT_NE(native, nullptr);
  EXPECT_EQ(native->options().maxDnfCubes, 7u);
  EXPECT_EQ(native->options().maxEnum, 9u);
}

TEST_F(SolverStackTest, UnknownBackendNameIsAnError) {
  SolverStackOptions opts;
  opts.backend = "cvc5";
  try {
    buildSolverStack(reg_, opts);
    FAIL() << "expected EvalError";
  } catch (const EvalError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown solver 'cvc5'"),
              std::string::npos);
  }
}

TEST_F(SolverStackTest, AttachedGuardTripsBecomeTraceEvents) {
  SolverStack stack = buildSolverStack(reg_, options(false, Supervision::On));
  obs::Tracer tracer;
  ResourceGuard unarmed;
  attachGuardAndTracer(*stack.solver, unarmed, &tracer);
  EXPECT_EQ(stack.solver->tracer(), &tracer);
  EXPECT_EQ(stack.solver->guard(), nullptr);  // unarmed: governs nothing

  ResourceLimits limits;
  limits.maxSolverChecks = 1;
  ResourceGuard guard(limits);
  attachGuardAndTracer(*stack.solver, guard, &tracer);
  EXPECT_EQ(stack.solver->guard(), &guard);
  EXPECT_EQ(stack.solver->check(contradiction()), Sat::Unsat);
  EXPECT_EQ(stack.solver->check(contradiction()), Sat::Unknown);  // starved
  auto events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "budget.trip");
  EXPECT_EQ(events[0].detail, guard.reason());

  attachGuardAndTracer(*stack.solver, guard, nullptr);  // detach
  EXPECT_EQ(stack.solver->tracer(), nullptr);
}

}  // namespace
}  // namespace faure::smt
