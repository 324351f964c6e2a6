// Supervised solver execution: the fault-tolerance layer between
// SolverBase::check() and the backends (DESIGN.md §9).
//
// A SupervisedSolver owns a failover chain of backends (canonically
// Z3 → NativeSolver; a chain of one is just retry + watchdog). Each
// logical check() runs the chain until a backend produces a verdict:
//
//   * watchdog — every attempt runs under a per-call deadline (an inner
//     ResourceGuard armed with min(watchdogMs, the outer guard's
//     remaining time)), so one hung check cannot eat the whole budget;
//   * bounded retry — a failed attempt (SolverBackendError, watchdog
//     trip, injected fault) is retried up to maxRetries times with
//     deterministic exponential backoff + jitter seeded via util::Rng —
//     never wall-clock random;
//   * circuit breaker — per backend, closed → open after
//     breakerThreshold consecutive hard failures; while open, checks
//     skip the backend for breakerCooldownChecks calls (count-based,
//     not time-based, for determinism), then one half-open probe either
//     closes it again or re-opens it;
//   * quarantine — a query that keeps killing one backend is pinned on
//     that backend's quarantine list and never sent to it again, so a
//     poisoned formula cannot take down the run;
//   * failover — when a backend is exhausted (retries spent, breaker
//     open, query quarantined) the next backend in the chain takes the
//     check; when the whole chain is exhausted the verdict degrades to
//     Sat::Unknown — conservative for every caller, same contract as a
//     budget trip ("Unknown costs performance, never soundness").
//
// Invariants (enforced by tests/faurelog/chaos_eval_test.cpp and the
// ctest chaos suite):
//   * zero faults ⇒ results and logical solver.* counters bit-identical
//     to the unwrapped backend;
//   * a genuine Unknown from a backend is returned as-is — the chain
//     handles *failure*, not incompleteness, so supervision never
//     changes a verdict the backend would have produced;
//   * verdicts shaped by supervision (fault, failover, quarantine) are
//     never admitted into an attached VerdictCache (the
//     lastCheckCacheable_ gate in SolverBase::check/implies);
//   * with a FaultPlan attached, degraded results are a pure function
//     of the seed — fault decisions key on the formula hash, never on
//     call order, so every fork and fan-out width replays the same
//     schedule.
//
// The wrapper is itself a SolverBase: guards charge once per logical
// check at this level, a VerdictCache attaches at this level only
// (inner backends are stripped of theirs), metrics mirror under both
// solver.* and solver.supervise.*.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "smt/solver.hpp"
#include "util/fault_plan.hpp"

namespace faure::smt {

struct SupervisionOptions {
  /// Master switch for stack building: fromEnv() returns enabled=false
  /// when no supervision variable is set, and buildSolverStack()
  /// (smt/solver_stack.hpp) only wraps when it holds. A directly-constructed
  /// SupervisedSolver ignores it.
  bool enabled = false;
  /// Retry attempts after the first failure of one backend (so a
  /// backend sees at most 1 + maxRetries attempts per check).
  int maxRetries = 2;
  /// Per-attempt watchdog deadline in milliseconds; 0 disables. The
  /// effective deadline is min(watchdogMs, outer guard remaining).
  double watchdogMs = 0.0;
  /// Append a NativeSolver as the chain's last resort (buildSolverStack
  /// honors this when wrapping; addNativeFallback() does it directly).
  bool failover = false;
  /// Backoff before retry k sleeps backoffBaseMs · 2^k · (0.5 + 0.5·j),
  /// j a deterministic jitter from `seed`. 0 (default) skips sleeping
  /// entirely — retries are immediate and runs stay wall-clock-free.
  double backoffBaseMs = 0.0;
  double backoffMaxMs = 100.0;
  /// Seed for backoff jitter (and recorded for run reports).
  uint64_t seed = 0x5eedfa47eULL;
  /// Consecutive hard failures that open a backend's breaker.
  int breakerThreshold = 8;
  /// Checks that skip an open backend before one half-open probe.
  int breakerCooldownChecks = 64;
  /// Hard failures of one (backend, query) before quarantine.
  int quarantineThreshold = 2;
  /// Cap on quarantined queries per backend (beyond it, failures keep
  /// failing over without being recorded — bounded memory).
  size_t quarantineCapacity = 1024;
  /// Deterministic fault injection (util/fault_plan.hpp); null runs
  /// the chain fault-free.
  std::shared_ptr<const util::FaultPlan> chaos;
  /// Test hook: replaces the backoff sleep (argument: milliseconds).
  std::function<void(double)> sleeper;

  /// Reads FAURE_RETRIES, FAURE_SOLVER_TIMEOUT_MS, FAURE_FAILOVER and
  /// FAURE_CHAOS_SEED; `enabled` is true when any is set. A chaos seed
  /// implies failover (the default plan faults only the primary
  /// backend, so a native last resort keeps runs output-transparent).
  static SupervisionOptions fromEnv();
};

/// Supervision-layer counters, mirrored live under solver.supervise.*
/// when a tracer is attached.
struct SupervisionStats {
  uint64_t retries = 0;          // re-attempts after a failed attempt
  uint64_t failovers = 0;        // checks moved to a later backend
  uint64_t breakerOpens = 0;     // closed/half-open -> open transitions
  uint64_t breakerResets = 0;    // half-open -> closed transitions
  uint64_t quarantined = 0;      // queries added to a quarantine list
  uint64_t quarantineSkips = 0;  // checks that skipped a backend for it
  uint64_t watchdogTrips = 0;    // attempts cut off by the watchdog
  uint64_t faultsInjected = 0;   // FaultPlan decisions that fired
  uint64_t degradedUnknown = 0;  // checks the whole chain failed
};

class SupervisedSolver : public SolverBase {
 public:
  enum class BreakerState : uint8_t { Closed, Open, HalfOpen };

  SupervisedSolver(const CVarRegistry& reg, SupervisionOptions opts);

  /// Appends an owned backend to the failover chain. The first backend
  /// added is the primary; if it carries a VerdictCache the wrapper
  /// adopts it (caching lives at the supervision level so failed-over
  /// verdicts provably never reach it). Later backends are stripped of
  /// any cache.
  void addBackend(std::string name, std::unique_ptr<SolverBase> backend);

  /// Appends a NativeSolver last resort named "native".
  void addNativeFallback();

  size_t backends() const { return chain_.size(); }
  const std::string& backendName(size_t i) const { return chain_[i].name; }
  SolverBase& backend(size_t i) { return *chain_[i].solver; }

  const SupervisionOptions& supervision() const { return opts_; }
  const SupervisionStats& supervisionStats() const { return sup_; }
  BreakerState breakerState(size_t i) const { return chain_[i].breaker; }

  void setTracer(obs::Tracer* tracer) override;

 protected:
  Sat checkUncached(const Formula& f) override;

 private:
  struct Backend {
    std::string name;
    std::unique_ptr<SolverBase> solver;
    // Circuit breaker (count-based cooldown for determinism).
    BreakerState breaker = BreakerState::Closed;
    int consecutiveFailures = 0;
    int cooldownLeft = 0;
    // Quarantine: queries that repeatedly killed this backend. Keys are
    // hash-consed node identities; pins keep them alive.
    std::unordered_map<const FormulaNode*, int> hardFailures;
    std::unordered_set<const FormulaNode*> quarantine;
    std::vector<std::shared_ptr<const FormulaNode>> pins;
  };

  /// One attempt's outcome, as seen by the chain loop.
  struct Attempt {
    Sat verdict = Sat::Unknown;
    uint64_t enumerations = 0;
    bool failed = false;          // hard failure: retry / fail over
    bool outerBudget = false;     // the *outer* guard expired: degrade
    const char* failureKind = "";
  };

  void adoptCacheFrom(SolverBase& backend, bool isPrimary);
  Attempt runAttempt(Backend& be, size_t index, const Formula& f,
                     uint64_t key, uint32_t attempt);
  bool breakerAdmit(Backend& be);
  void recordFailure(Backend& be, const Formula& f);
  void recordSuccess(Backend& be);
  void backoff(const Backend& be, uint64_t key, uint32_t attempt);
  void bump(uint64_t SupervisionStats::* field, obs::Counter* handle);
  void superviseEvent(std::string_view name, const std::string& detail);

  SupervisionOptions opts_;
  SupervisionStats sup_;
  std::vector<Backend> chain_;
  struct SuperviseHandles {
    obs::Counter* retries = nullptr;
    obs::Counter* failovers = nullptr;
    obs::Counter* breakerOpen = nullptr;
    obs::Counter* quarantined = nullptr;
    obs::Counter* watchdogTrips = nullptr;
    obs::Counter* faultsInjected = nullptr;
  };
  SuperviseHandles superviseMetrics_;
};

}  // namespace faure::smt
