#include "smt/supervised_solver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <thread>

#include "smt/verdict_cache.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace faure::smt {

namespace {

bool envFlag(const char* name) {
  const char* s = std::getenv(name);
  return s != nullptr && *s != '\0' && *s != '0';
}

}  // namespace

SupervisionOptions SupervisionOptions::fromEnv() {
  SupervisionOptions opts;
  if (const char* s = std::getenv("FAURE_RETRIES"); s != nullptr && *s) {
    opts.maxRetries = static_cast<int>(std::strtol(s, nullptr, 10));
    opts.enabled = true;
  }
  if (const char* s = std::getenv("FAURE_SOLVER_TIMEOUT_MS");
      s != nullptr && *s) {
    opts.watchdogMs = std::strtod(s, nullptr);
    opts.enabled = true;
  }
  if (envFlag("FAURE_FAILOVER")) {
    opts.failover = true;
    opts.enabled = true;
  }
  if (auto chaos = util::FaultPlan::fromEnv(); chaos != nullptr) {
    opts.seed = chaos->seed();
    opts.chaos = std::move(chaos);
    // The default plan faults only the primary backend; a native last
    // resort keeps chaos runs output-transparent (DESIGN.md §9).
    opts.failover = true;
    opts.enabled = true;
  }
  return opts;
}

SupervisedSolver::SupervisedSolver(const CVarRegistry& reg,
                                   SupervisionOptions opts)
    : SolverBase(reg), opts_(std::move(opts)) {}

void SupervisedSolver::adoptCacheFrom(SolverBase& backend, bool isPrimary) {
  // Caching lives at the supervision level only: inner backends never
  // consult or populate a cache, so the lastCheckCacheable_ gate in
  // SolverBase::check() is the single admission point and faulted /
  // failed-over verdicts provably never land in it.
  VerdictCache* cache = backend.verdictCache();
  if (cache == nullptr) return;
  backend.setVerdictCache(nullptr);
  if (isPrimary && cache_ == nullptr) setVerdictCache(cache);
}

void SupervisedSolver::addBackend(std::string name,
                                  std::unique_ptr<SolverBase> backend) {
  if (backend == nullptr) {
    throw EvalError("SupervisedSolver: null backend");
  }
  adoptCacheFrom(*backend, chain_.empty());
  // Charging and mirroring happen once, at this wrapper: an inner
  // backend with its own tracer would double-mirror solver.* metrics,
  // and one with its own guard would double-charge check budgets.
  backend->setTracer(nullptr);
  backend->setGuard(nullptr);
  Backend be;
  be.name = std::move(name);
  be.solver = std::move(backend);
  chain_.push_back(std::move(be));
}

void SupervisedSolver::addNativeFallback() {
  addBackend("native", std::make_unique<NativeSolver>(reg_));
}

void SupervisedSolver::setTracer(obs::Tracer* tracer) {
  SolverBase::setTracer(tracer);
  if (tracer == nullptr) {
    superviseMetrics_ = SuperviseHandles{};
    return;
  }
  obs::Registry& reg = tracer->metrics();
  superviseMetrics_.retries = &reg.counter("solver.supervise.retries");
  superviseMetrics_.failovers = &reg.counter("solver.supervise.failovers");
  superviseMetrics_.breakerOpen =
      &reg.counter("solver.supervise.breaker_open");
  superviseMetrics_.quarantined =
      &reg.counter("solver.supervise.quarantined");
  superviseMetrics_.watchdogTrips =
      &reg.counter("solver.supervise.watchdog_trips");
  superviseMetrics_.faultsInjected =
      &reg.counter("solver.supervise.faults_injected");
}

void SupervisedSolver::bump(uint64_t SupervisionStats::* field,
                            obs::Counter* handle) {
  ++(sup_.*field);
  if (handle != nullptr) handle->add();
}

void SupervisedSolver::superviseEvent(std::string_view name,
                                      const std::string& detail) {
  if (tracer_ != nullptr) tracer_->event(name, detail);
}

bool SupervisedSolver::breakerAdmit(Backend& be) {
  switch (be.breaker) {
    case BreakerState::Closed:
    case BreakerState::HalfOpen:
      return true;
    case BreakerState::Open:
      if (--be.cooldownLeft > 0) return false;
      // One probe: success closes the breaker, failure re-opens it.
      be.breaker = BreakerState::HalfOpen;
      return true;
  }
  return true;
}

void SupervisedSolver::recordFailure(Backend& be, const Formula& f) {
  ++be.consecutiveFailures;
  const bool probeFailed = be.breaker == BreakerState::HalfOpen;
  if (probeFailed || (be.breaker == BreakerState::Closed &&
                      be.consecutiveFailures >= opts_.breakerThreshold)) {
    be.breaker = BreakerState::Open;
    be.cooldownLeft = std::max(1, opts_.breakerCooldownChecks);
    bump(&SupervisionStats::breakerOpens, superviseMetrics_.breakerOpen);
    superviseEvent("supervise.breaker_open", "backend=" + be.name);
  }
  // Quarantine bookkeeping: a query that keeps killing this backend is
  // pinned and never sent to it again. New entries stop once the lists
  // are saturated so memory stays bounded under adversarial workloads.
  const FormulaNode* node = f.nodePtr().get();
  if (be.quarantine.size() >= opts_.quarantineCapacity) return;
  auto it = be.hardFailures.find(node);
  if (it == be.hardFailures.end()) {
    if (be.hardFailures.size() >= opts_.quarantineCapacity * 4) return;
    it = be.hardFailures.emplace(node, 0).first;
    be.pins.push_back(f.nodePtr());
  }
  if (++it->second >= opts_.quarantineThreshold &&
      be.quarantine.insert(node).second) {
    bump(&SupervisionStats::quarantined, superviseMetrics_.quarantined);
    superviseEvent("supervise.quarantine", "backend=" + be.name);
  }
}

void SupervisedSolver::recordSuccess(Backend& be) {
  be.consecutiveFailures = 0;
  if (be.breaker == BreakerState::HalfOpen) {
    be.breaker = BreakerState::Closed;
    ++sup_.breakerResets;
    superviseEvent("supervise.breaker_reset", "backend=" + be.name);
  }
}

void SupervisedSolver::backoff(const Backend& be, uint64_t key,
                               uint32_t attempt) {
  if (opts_.backoffBaseMs <= 0.0) return;
  double delay = opts_.backoffBaseMs *
                 static_cast<double>(uint64_t{1} << std::min(attempt, 20u));
  delay = std::min(delay, opts_.backoffMaxMs);
  // Deterministic jitter in [0.5, 1.0): seeded, never wall-clock random.
  uint64_t mix = opts_.seed ^ (key * 0x9e3779b97f4a7c15ULL) ^
                 ((uint64_t{attempt} + 1) * 0xc2b2ae3d27d4eb4fULL);
  for (char c : be.name) {
    mix = mix * 1099511628211ULL + static_cast<unsigned char>(c);
  }
  delay *= 0.5 + 0.5 * util::Rng(mix).uniform();
  if (opts_.sleeper) {
    opts_.sleeper(delay);
  } else {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(delay));
  }
}

SupervisedSolver::Attempt SupervisedSolver::runAttempt(Backend& be,
                                                       size_t index,
                                                       const Formula& f,
                                                       uint64_t key,
                                                       uint32_t attempt) {
  Attempt out;
  obs::Span span;
  if (tracer_ != nullptr && tracer_->options().fineSpans) {
    span = obs::Span(tracer_, "supervise.attempt");
    span.note("backend", be.name);
  }

  // Injected faults are decided before the backend is touched: the
  // schedule is a pure function of (seed, backend, formula hash,
  // attempt), so it replays identically in every fork.
  if (opts_.chaos != nullptr) {
    util::FaultKind kind = opts_.chaos->decide(be.name, key, attempt);
    if (kind == util::FaultKind::None && index == 0) {
      kind = opts_.chaos->decide(util::FaultPlan::kPrimaryTag, key, attempt);
    }
    if (kind != util::FaultKind::None) {
      out.failed = true;
      out.failureKind = util::faultKindText(kind).data();
      bump(&SupervisionStats::faultsInjected,
           superviseMetrics_.faultsInjected);
      if (kind == util::FaultKind::Timeout) {
        bump(&SupervisionStats::watchdogTrips,
             superviseMetrics_.watchdogTrips);
      }
      superviseEvent("supervise.fault",
                     "backend=" + be.name + " kind=" +
                         std::string(util::faultKindText(kind)));
      return out;
    }
  }

  // Watchdog: the attempt runs under its own deadline, capped by the
  // outer guard's remaining time so a per-call allowance can never
  // outlive the operation budget. Inner backends carry no other guard —
  // logical charging happened once, at this wrapper's admitCheck().
  ResourceGuard watchdog;
  double limit = opts_.watchdogMs > 0.0 ? opts_.watchdogMs / 1000.0 : 0.0;
  if (guard_ != nullptr) {
    double remaining = guard_->remainingSeconds();
    if (std::isfinite(remaining)) {
      limit = limit > 0.0 ? std::min(limit, remaining) : remaining;
      if (limit <= 0.0) limit = 1e-9;  // already expired: trip at once
    }
  }
  ResourceGuard* inner = nullptr;
  if (limit > 0.0) {
    ResourceLimits limits;
    limits.deadlineSeconds = limit;
    watchdog.arm(limits);
    inner = &watchdog;
  }
  ResourceGuardScope innerScope(be.solver.get(), inner);
  const SolverStats before = be.solver->stats();
  try {
    out.verdict = be.solver->check(f);
  } catch (const SolverBackendError&) {
    // The engine died on this query; the chain absorbs it. Anything
    // else (EvalError, bad_alloc) is not engine trouble and propagates.
    out.failed = true;
    out.failureKind = "backend-error";
    return out;
  }
  out.enumerations = be.solver->stats().enumerations - before.enumerations;
  const bool innerTripped =
      (inner != nullptr && inner->tripped()) ||
      be.solver->stats().budgetTrips > before.budgetTrips;
  if (innerTripped) {
    if (guard_ != nullptr && !guard_->checkDeadline()) {
      // Not a watchdog story: the *operation's* budget is spent. Degrade
      // exactly as the unwrapped backend would — no retry, no failover.
      out.outerBudget = true;
      return out;
    }
    out.failed = true;
    out.failureKind = "watchdog";
    bump(&SupervisionStats::watchdogTrips, superviseMetrics_.watchdogTrips);
    superviseEvent("supervise.watchdog", "backend=" + be.name);
  }
  return out;
}

Sat SupervisedSolver::checkUncached(const Formula& f) {
  CheckScope scope(this);
  if (chain_.empty()) {
    throw EvalError("SupervisedSolver: no backends configured");
  }
  if (!admitCheck()) return Sat::Unknown;
  const auto key = static_cast<uint64_t>(f.hash());
  bool tainted = false;
  auto noteFailover = [&](const Backend& from) {
    bump(&SupervisionStats::failovers, superviseMetrics_.failovers);
    superviseEvent("supervise.failover", "from=" + from.name);
  };
  for (size_t i = 0; i < chain_.size(); ++i) {
    Backend& be = chain_[i];
    if (be.quarantine.count(f.nodePtr().get()) != 0) {
      ++sup_.quarantineSkips;
      tainted = true;
      if (i + 1 < chain_.size()) noteFailover(be);
      continue;
    }
    if (!breakerAdmit(be)) {
      tainted = true;
      if (i + 1 < chain_.size()) noteFailover(be);
      continue;
    }
    const auto attempts =
        1 + static_cast<uint32_t>(std::max(0, opts_.maxRetries));
    for (uint32_t a = 0; a < attempts; ++a) {
      Attempt out = runAttempt(be, i, f, key, a);
      if (out.outerBudget) {
        lastCheckCacheable_ = false;
        ++stats_.unknown;
        ++stats_.budgetTrips;
        return Sat::Unknown;
      }
      if (!out.failed) {
        // A verdict — including a genuine Unknown: the chain handles
        // failure, not incompleteness, so supervision never changes an
        // answer the backend produced (zero-fault bit-identity).
        recordSuccess(be);
        stats_.enumerations += out.enumerations;
        if (tainted) lastCheckCacheable_ = false;
        if (out.verdict == Sat::Unsat) ++stats_.unsat;
        if (out.verdict == Sat::Unknown) ++stats_.unknown;
        return out.verdict;
      }
      tainted = true;
      recordFailure(be, f);
      if (be.breaker == BreakerState::Open) break;  // opened just now
      if (a + 1 < attempts) {
        bump(&SupervisionStats::retries, superviseMetrics_.retries);
        superviseEvent("supervise.retry", "backend=" + be.name +
                                              " after=" + out.failureKind);
        backoff(be, key, a);
      }
    }
    if (i + 1 < chain_.size()) noteFailover(be);
  }
  // The whole chain is exhausted: degrade, never raise. Unknown is
  // conservative for every caller and the taint keeps it out of the
  // verdict cache.
  lastCheckCacheable_ = false;
  ++sup_.degradedUnknown;
  ++stats_.unknown;
  superviseEvent("supervise.degraded", "chain exhausted");
  return Sat::Unknown;
}

}  // namespace faure::smt
