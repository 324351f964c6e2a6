// Tests for the fault-tolerance layer (smt/supervised_solver.hpp):
// zero-fault bit-identity with the unwrapped backend, bounded retry,
// failover, circuit breaker, quarantine, deterministic chaos injection,
// cache-admission gating for supervision-shaped verdicts, and the typed
// SolverBackendError surface (requireZ3Solver).
#include "smt/supervised_solver.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "smt/verdict_cache.hpp"
#include "smt/z3_solver.hpp"
#include "util/error.hpp"
#include "util/fault_plan.hpp"
#include "util/resource_guard.hpp"
#include "value/value.hpp"

namespace faure::smt {
namespace {

/// A backend that raises SolverBackendError for its first `failFirst`
/// checks, then behaves exactly like NativeSolver. Gives the breaker /
/// retry / quarantine tests precise control without probability draws.
class FlakySolver : public NativeSolver {
 public:
  FlakySolver(const CVarRegistry& reg, int failFirst)
      : NativeSolver(reg), remainingFailures_(failFirst) {}

  int calls = 0;  // attempts that reached this backend

 protected:
  Sat checkUncached(const Formula& f) override {
    ++calls;
    if (remainingFailures_ != 0) {
      if (remainingFailures_ > 0) --remainingFailures_;
      throw SolverBackendError("flaky", "injected engine failure");
    }
    return NativeSolver::checkUncached(f);
  }

 private:
  int remainingFailures_;  // < 0: fail forever
};

class SupervisedSolverTest : public ::testing::Test {
 protected:
  CVarRegistry reg_;
  CVarId x_ = reg_.declareInt("x_", 0, 1);
  CVarId y_ = reg_.declareInt("y_", 0, 3);

  Formula eq(CVarId v, int64_t n) {
    return Formula::cmp(Value::cvar(v), CmpOp::Eq, Value::fromInt(n));
  }

  std::vector<Formula> sampleFormulas() {
    return {
        eq(x_, 0),                                          // Sat
        Formula::conj2(eq(x_, 0), eq(x_, 1)),               // Unsat
        Formula::conj2(eq(y_, 2), eq(x_, 1)),               // Sat
        Formula::disj2(eq(y_, 5), Formula::bottom()),       // Unsat (domain)
        Formula::conj2(eq(y_, 3), Formula::neg(eq(x_, 0))), // Sat
    };
  }

  /// Wrapper with one owned native backend and the given options.
  std::unique_ptr<SupervisedSolver> makeSupervised(SupervisionOptions opts) {
    auto sup = std::make_unique<SupervisedSolver>(reg_, std::move(opts));
    sup->addBackend("native", std::make_unique<NativeSolver>(reg_));
    return sup;
  }
};

TEST_F(SupervisedSolverTest, ZeroFaultsIsBitIdenticalToUnwrappedBackend) {
  NativeSolver bare(reg_);
  auto supPtr = makeSupervised({});
  SupervisedSolver& sup = *supPtr;
  for (const Formula& f : sampleFormulas()) {
    EXPECT_EQ(sup.check(f), bare.check(f));
  }
  // The logical counter stream matches field for field (seconds are
  // wall-clock and excluded by design).
  EXPECT_EQ(sup.stats().checks, bare.stats().checks);
  EXPECT_EQ(sup.stats().unsat, bare.stats().unsat);
  EXPECT_EQ(sup.stats().unknown, bare.stats().unknown);
  EXPECT_EQ(sup.stats().enumerations, bare.stats().enumerations);
  EXPECT_EQ(sup.stats().budgetTrips, bare.stats().budgetTrips);
  const SupervisionStats& s = sup.supervisionStats();
  EXPECT_EQ(s.retries, 0u);
  EXPECT_EQ(s.failovers, 0u);
  EXPECT_EQ(s.degradedUnknown, 0u);
}

TEST_F(SupervisedSolverTest, TransientBackendErrorIsRetriedToSuccess) {
  SupervisionOptions opts;
  opts.maxRetries = 2;
  SupervisedSolver sup(reg_, opts);
  auto flaky = std::make_unique<FlakySolver>(reg_, 1);
  FlakySolver* probe = flaky.get();
  sup.addBackend("flaky", std::move(flaky));

  EXPECT_EQ(sup.check(Formula::conj2(eq(x_, 0), eq(x_, 1))), Sat::Unsat);
  EXPECT_EQ(probe->calls, 2);  // one failure + one successful retry
  EXPECT_EQ(sup.supervisionStats().retries, 1u);
  EXPECT_EQ(sup.supervisionStats().failovers, 0u);
  EXPECT_EQ(sup.stats().checks, 1u);  // one *logical* check
  EXPECT_EQ(sup.stats().unsat, 1u);
}

TEST_F(SupervisedSolverTest, PermanentPrimaryFailureFailsOverToNative) {
  NativeSolver bare(reg_);
  SupervisionOptions opts;
  opts.maxRetries = 1;
  SupervisedSolver sup(reg_, opts);
  sup.addBackend("flaky", std::make_unique<FlakySolver>(reg_, -1));
  sup.addNativeFallback();

  for (const Formula& f : sampleFormulas()) {
    EXPECT_EQ(sup.check(f), bare.check(f));
  }
  EXPECT_GE(sup.supervisionStats().failovers, 1u);
  EXPECT_EQ(sup.supervisionStats().degradedUnknown, 0u);
  // Failed attempts do no solver work, so the logical stream still
  // matches a healthy backend's.
  EXPECT_EQ(sup.stats().checks, bare.stats().checks);
  EXPECT_EQ(sup.stats().unsat, bare.stats().unsat);
  EXPECT_EQ(sup.stats().enumerations, bare.stats().enumerations);
}

TEST_F(SupervisedSolverTest, ExhaustedChainDegradesToUnknownNeverThrows) {
  SupervisionOptions opts;
  opts.maxRetries = 1;
  SupervisedSolver sup(reg_, opts);
  sup.addBackend("flaky", std::make_unique<FlakySolver>(reg_, -1));

  Sat v = Sat::Sat;
  EXPECT_NO_THROW(v = sup.check(eq(x_, 0)));
  EXPECT_EQ(v, Sat::Unknown);
  EXPECT_EQ(sup.supervisionStats().degradedUnknown, 1u);
  EXPECT_EQ(sup.stats().unknown, 1u);
}

TEST_F(SupervisedSolverTest, BreakerOpensAndSkipsTheBackendDuringCooldown) {
  SupervisionOptions opts;
  opts.maxRetries = 0;
  opts.breakerThreshold = 2;
  opts.breakerCooldownChecks = 3;
  opts.quarantineThreshold = 100;  // keep quarantine out of the picture
  SupervisedSolver sup(reg_, opts);
  auto flaky = std::make_unique<FlakySolver>(reg_, -1);
  FlakySolver* probe = flaky.get();
  sup.addBackend("flaky", std::move(flaky));
  sup.addNativeFallback();

  Formula f = eq(x_, 0);
  sup.check(f);
  EXPECT_EQ(sup.breakerState(0), SupervisedSolver::BreakerState::Closed);
  sup.check(f);  // second consecutive failure trips the breaker
  EXPECT_EQ(sup.breakerState(0), SupervisedSolver::BreakerState::Open);
  EXPECT_EQ(sup.supervisionStats().breakerOpens, 1u);

  // While open, checks skip the backend entirely (and still answer via
  // the fallback).
  int callsWhenOpened = probe->calls;
  EXPECT_EQ(sup.check(f), Sat::Sat);
  EXPECT_EQ(sup.check(f), Sat::Sat);
  EXPECT_EQ(probe->calls, callsWhenOpened);

  // Cooldown spent: one half-open probe reaches the backend again; its
  // failure re-opens the breaker.
  sup.check(f);
  EXPECT_EQ(probe->calls, callsWhenOpened + 1);
  EXPECT_EQ(sup.breakerState(0), SupervisedSolver::BreakerState::Open);
  EXPECT_EQ(sup.supervisionStats().breakerOpens, 2u);
}

TEST_F(SupervisedSolverTest, HalfOpenProbeSuccessClosesTheBreaker) {
  SupervisionOptions opts;
  opts.maxRetries = 0;
  opts.breakerThreshold = 1;
  opts.breakerCooldownChecks = 2;
  SupervisedSolver sup(reg_, opts);
  sup.addBackend("flaky", std::make_unique<FlakySolver>(reg_, 1));
  sup.addNativeFallback();

  Formula f = eq(x_, 0);
  sup.check(f);  // fails once: breaker opens
  EXPECT_EQ(sup.breakerState(0), SupervisedSolver::BreakerState::Open);
  sup.check(f);  // cooldown
  sup.check(f);  // half-open probe: the backend recovered
  EXPECT_EQ(sup.breakerState(0), SupervisedSolver::BreakerState::Closed);
  EXPECT_EQ(sup.supervisionStats().breakerResets, 1u);
}

TEST_F(SupervisedSolverTest, QueriesThatKeepKillingABackendAreQuarantined) {
  SupervisionOptions opts;
  opts.maxRetries = 0;
  opts.breakerThreshold = 100;  // keep the breaker out of the picture
  opts.quarantineThreshold = 2;
  SupervisedSolver sup(reg_, opts);
  auto flaky = std::make_unique<FlakySolver>(reg_, -1);
  FlakySolver* probe = flaky.get();
  sup.addBackend("flaky", std::move(flaky));
  sup.addNativeFallback();

  Formula killer = Formula::conj2(eq(x_, 0), eq(y_, 1));
  sup.check(killer);
  sup.check(killer);  // second hard failure quarantines the query
  EXPECT_EQ(sup.supervisionStats().quarantined, 1u);

  int callsBefore = probe->calls;
  EXPECT_EQ(sup.check(killer), Sat::Sat);  // straight to the fallback
  EXPECT_EQ(probe->calls, callsBefore);
  EXPECT_EQ(sup.supervisionStats().quarantineSkips, 1u);
}

TEST_F(SupervisedSolverTest, SupervisionShapedVerdictsNeverEnterTheCache) {
  SupervisionOptions opts;
  opts.maxRetries = 0;
  SupervisedSolver sup(reg_, opts);
  sup.addBackend("flaky", std::make_unique<FlakySolver>(reg_, -1));
  sup.addNativeFallback();
  VerdictCache cache(reg_, 64);
  sup.setVerdictCache(&cache);

  Formula f = Formula::conj2(eq(x_, 0), eq(x_, 1));
  EXPECT_EQ(sup.check(f), Sat::Unsat);   // correct — but via failover
  EXPECT_EQ(cache.stats().entries, 0u);  // so it must not be memoized
  EXPECT_EQ(sup.check(f), Sat::Unsat);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_GE(sup.supervisionStats().failovers, 2u);
}

TEST_F(SupervisedSolverTest, CleanVerdictsAreStillCachedNormally) {
  auto supPtr = makeSupervised({});
  SupervisedSolver& sup = *supPtr;
  VerdictCache cache(reg_, 64);
  sup.setVerdictCache(&cache);

  Formula f = Formula::conj2(eq(x_, 0), eq(x_, 1));
  EXPECT_EQ(sup.check(f), Sat::Unsat);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(sup.check(f), Sat::Unsat);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST_F(SupervisedSolverTest, InjectedTimeoutsCountWatchdogTripsAndFailOver) {
  util::FaultSpec spec;
  spec.timeout = 1.0;  // every attempt against the primary times out
  spec.clearsOnRetry = false;
  auto plan = std::make_shared<util::FaultPlan>(42);
  plan->configure("flaky", spec);

  NativeSolver bare(reg_);
  SupervisionOptions opts;
  opts.maxRetries = 1;
  opts.chaos = plan;
  SupervisedSolver sup(reg_, opts);
  auto flaky = std::make_unique<FlakySolver>(reg_, 0);  // healthy, in fact
  FlakySolver* probe = flaky.get();
  sup.addBackend("flaky", std::move(flaky));
  sup.addNativeFallback();

  Formula f = eq(x_, 0);
  EXPECT_EQ(sup.check(f), bare.check(f));
  EXPECT_EQ(probe->calls, 0);  // faults fire before the backend is touched
  EXPECT_EQ(sup.supervisionStats().watchdogTrips, 2u);  // attempt + retry
  EXPECT_EQ(sup.supervisionStats().faultsInjected, 2u);
  EXPECT_EQ(sup.supervisionStats().failovers, 1u);
}

TEST_F(SupervisedSolverTest, SolverCheckBudgetDegradesExactlyLikeUnwrapped) {
  auto runWithBudget = [&](SolverBase& solver) {
    ResourceLimits limits;
    limits.maxSolverChecks = 2;
    ResourceGuard guard(limits);
    solver.setGuard(&guard);
    std::vector<Sat> out;
    for (const Formula& f : sampleFormulas()) out.push_back(solver.check(f));
    solver.setGuard(nullptr);
    return out;
  };
  NativeSolver bare(reg_);
  auto supPtr = makeSupervised({});
  SupervisedSolver& sup = *supPtr;
  EXPECT_EQ(runWithBudget(sup), runWithBudget(bare));
  EXPECT_EQ(sup.stats().budgetTrips, bare.stats().budgetTrips);
  EXPECT_EQ(sup.stats().unknown, bare.stats().unknown);
}

TEST_F(SupervisedSolverTest, BackoffSleepsAreDeterministicAndBounded) {
  std::vector<double> delays;
  SupervisionOptions opts;
  opts.maxRetries = 2;
  opts.backoffBaseMs = 4.0;
  opts.backoffMaxMs = 100.0;
  opts.sleeper = [&delays](double ms) { delays.push_back(ms); };
  auto run = [&] {
    SupervisedSolver sup(reg_, opts);
    sup.addBackend("flaky", std::make_unique<FlakySolver>(reg_, 2));
    EXPECT_EQ(sup.check(eq(x_, 0)), Sat::Sat);
  };
  run();
  ASSERT_EQ(delays.size(), 2u);
  EXPECT_GE(delays[0], 2.0);  // 4·2^0·[0.5, 1.0)
  EXPECT_LT(delays[0], 4.0);
  EXPECT_GE(delays[1], 4.0);  // 4·2^1·[0.5, 1.0)
  EXPECT_LT(delays[1], 8.0);

  std::vector<double> first = delays;
  delays.clear();
  run();  // same seed, same key, same attempts → same jitter
  EXPECT_EQ(delays, first);
}

TEST_F(SupervisedSolverTest, DefaultChaosPlanIsOutputTransparent) {
  // The CI chaos oracle: defaultChaos(seed) faults only the primary and
  // clears on retry, so with a native fallback every verdict matches a
  // fault-free run — only supervise counters differ.
  NativeSolver bare(reg_);
  SupervisionOptions opts;
  opts.chaos = util::FaultPlan::defaultChaos(20260807);
  opts.seed = 20260807;
  SupervisedSolver sup(reg_, opts);
  sup.addBackend("primary", std::make_unique<NativeSolver>(reg_));
  sup.addNativeFallback();

  std::vector<Formula> formulas;
  for (int i = 0; i <= 3; ++i) {
    formulas.push_back(eq(y_, i));
    formulas.push_back(Formula::conj2(eq(y_, i), eq(x_, 1)));
    formulas.push_back(Formula::conj2(eq(y_, i), Formula::neg(eq(y_, i))));
  }
  for (const Formula& f : formulas) {
    EXPECT_EQ(sup.check(f), bare.check(f));
  }
  EXPECT_EQ(sup.stats().checks, bare.stats().checks);
  EXPECT_EQ(sup.stats().unsat, bare.stats().unsat);
  EXPECT_EQ(sup.stats().unknown, bare.stats().unknown);
  EXPECT_EQ(sup.stats().enumerations, bare.stats().enumerations);
}

TEST_F(SupervisedSolverTest, FaultPlanDecisionsIgnoreCallOrder) {
  auto plan = util::FaultPlan::defaultChaos(7);
  const uint64_t keys[] = {11, 22, 33, 44, 55, 66, 77, 88};
  std::vector<util::FaultKind> forward;
  for (uint64_t k : keys) {
    forward.push_back(plan->decide(util::FaultPlan::kPrimaryTag, k, 0));
  }
  // Re-query in reverse and repeatedly: a pure function of the key, so
  // scheduling (call order, thread interleaving) cannot change it.
  for (int round = 0; round < 3; ++round) {
    for (size_t j = 8; j-- > 0;) {
      EXPECT_EQ(plan->decide(util::FaultPlan::kPrimaryTag, keys[j], 0),
                forward[j]);
    }
  }
}

TEST_F(SupervisedSolverTest, FromEnvReadsTheSupervisionVariables) {
  // The suite may itself run under ambient chaos (tools/ci.sh chaos
  // stage exports FAURE_CHAOS_SEED); this test owns the env knobs.
  for (const char* var : {"FAURE_RETRIES", "FAURE_SOLVER_TIMEOUT_MS",
                          "FAURE_FAILOVER", "FAURE_CHAOS_SEED"}) {
    ::unsetenv(var);
  }
  ::setenv("FAURE_RETRIES", "5", 1);
  ::setenv("FAURE_CHAOS_SEED", "99", 1);
  SupervisionOptions opts = SupervisionOptions::fromEnv();
  ::unsetenv("FAURE_RETRIES");
  ::unsetenv("FAURE_CHAOS_SEED");
  EXPECT_TRUE(opts.enabled);
  EXPECT_EQ(opts.maxRetries, 5);
  ASSERT_NE(opts.chaos, nullptr);
  EXPECT_EQ(opts.chaos->seed(), 99u);
  EXPECT_TRUE(opts.failover);  // chaos implies a native last resort

  SupervisionOptions off = SupervisionOptions::fromEnv();
  EXPECT_FALSE(off.enabled);
}

TEST_F(SupervisedSolverTest, PrimaryCacheIsAdoptedAtTheWrapper) {
  VerdictCache cache(reg_, 64);
  auto native = std::make_unique<NativeSolver>(reg_);
  native->setVerdictCache(&cache);

  SupervisedSolver sup(reg_, {});
  sup.addBackend("native", std::move(native));
  EXPECT_EQ(sup.verdictCache(), &cache);  // adopted at the wrapper
  EXPECT_EQ(sup.backend(0).verdictCache(), nullptr);
}

TEST_F(SupervisedSolverTest, RequireZ3SolverThrowsATypedErrorWithoutZ3) {
  if (z3Available()) {
    EXPECT_NE(requireZ3Solver(reg_), nullptr);
    return;
  }
  try {
    requireZ3Solver(reg_);
    FAIL() << "expected SolverBackendError";
  } catch (const SolverBackendError& e) {
    EXPECT_EQ(e.backend(), "z3");
    EXPECT_NE(std::string(e.what()).find("z3"), std::string::npos);
  }
}

}  // namespace
}  // namespace faure::smt
