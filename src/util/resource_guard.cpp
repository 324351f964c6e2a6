#include "util/resource_guard.hpp"

#include <cstdlib>
#include <limits>

#include "util/error.hpp"
#include "util/timer.hpp"

namespace faure {

namespace {

/// Charges between clock samples: cheap enough to keep charging at a few
/// ns, frequent enough that a deadline is observed well within 2x the
/// configured limit on any realistic workload.
constexpr uint32_t kClockStride = 64;

uint64_t envU64(const char* name) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return 0;
  return std::strtoull(s, nullptr, 10);
}

}  // namespace

std::string_view budgetText(Budget b) {
  switch (b) {
    case Budget::None:
      return "none";
    case Budget::Deadline:
      return "deadline";
    case Budget::Steps:
      return "steps";
    case Budget::Tuples:
      return "tuples";
    case Budget::SolverChecks:
      return "solver-checks";
    case Budget::Memory:
      return "memory";
    case Budget::Cancelled:
      return "cancelled";
    case Budget::Fault:
      return "fault-injection";
  }
  return "?";
}

bool ResourceLimits::any() const {
  return deadlineSeconds > 0.0 || maxSteps != 0 || maxTuples != 0 ||
         maxSolverChecks != 0 || maxMemoryBytes != 0 || failAfter != 0;
}

ResourceLimits ResourceLimits::fromEnv() {
  ResourceLimits limits;
  if (const char* s = std::getenv("FAURE_DEADLINE");
      s != nullptr && *s != '\0') {
    limits.deadlineSeconds = std::strtod(s, nullptr);
  }
  limits.maxSteps = envU64("FAURE_MAX_STEPS");
  limits.maxTuples = envU64("FAURE_MAX_TUPLES");
  limits.maxSolverChecks = envU64("FAURE_MAX_SOLVER_CHECKS");
  limits.maxMemoryBytes = envU64("FAURE_MAX_MEMORY");
  limits.failAfter = envU64("FAURE_FAIL_AFTER");
  return limits;
}

void ResourceGuard::arm(const ResourceLimits& limits) {
  limits_ = limits;
  rearm();
}

void ResourceGuard::rearm() {
  active_ = limits_.any();
  tripped_.store(Budget::None, std::memory_order_release);
  steps_.store(0, std::memory_order_relaxed);
  tuples_.store(0, std::memory_order_relaxed);
  solverChecks_.store(0, std::memory_order_relaxed);
  memoryBytes_.store(0, std::memory_order_relaxed);
  charges_.store(0, std::memory_order_relaxed);
  cancelled_.store(false, std::memory_order_relaxed);
  clockCountdown_.store(0, std::memory_order_relaxed);
  if (limits_.deadlineSeconds > 0.0) startSeconds_ = util::monotonicSeconds();
}

void ResourceGuard::failAfter(uint64_t n) {
  limits_.failAfter =
      n == 0 ? 0 : charges_.load(std::memory_order_relaxed) + n;
  active_ = limits_.any();
}

ResourceGuard::Counters ResourceGuard::counters() const {
  Counters c;
  c.steps = steps_.load(std::memory_order_relaxed);
  c.tuples = tuples_.load(std::memory_order_relaxed);
  c.solverChecks = solverChecks_.load(std::memory_order_relaxed);
  c.memoryBytes = memoryBytes_.load(std::memory_order_relaxed);
  c.charges = charges_.load(std::memory_order_relaxed);
  return c;
}

std::string ResourceGuard::reason() const {
  Budget t = trippedBudget();
  if (t == Budget::None) return "";
  std::string out(budgetText(t));
  auto limit = [&](const std::string& text) { out += "(limit=" + text + ")"; };
  switch (t) {
    case Budget::Deadline:
      limit(std::to_string(limits_.deadlineSeconds) + "s");
      break;
    case Budget::Steps:
      limit(std::to_string(limits_.maxSteps));
      break;
    case Budget::Tuples:
      limit(std::to_string(limits_.maxTuples));
      break;
    case Budget::SolverChecks:
      limit(std::to_string(limits_.maxSolverChecks));
      break;
    case Budget::Memory:
      limit(std::to_string(limits_.maxMemoryBytes));
      break;
    case Budget::Fault:
      limit(std::to_string(limits_.failAfter));
      break;
    default:
      break;
  }
  return out;
}

bool ResourceGuard::trip(Budget kind) {
  // First tripper wins; racing threads see the trip at their next
  // charge. The CAS guarantees the observer fires exactly once.
  Budget expected = Budget::None;
  if (tripped_.compare_exchange_strong(expected, kind,
                                       std::memory_order_acq_rel)) {
    if (onTrip_) onTrip_(kind, reason());
  }
  return false;
}

bool ResourceGuard::sampleDeadline() {
  if (limits_.deadlineSeconds <= 0.0) return true;
  if (util::monotonicSeconds() - startSeconds_ >= limits_.deadlineSeconds) {
    return trip(Budget::Deadline);
  }
  return true;
}

bool ResourceGuard::common() {
  if (cancelled_.load(std::memory_order_relaxed)) {
    return trip(Budget::Cancelled);
  }
  uint64_t charges = charges_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (limits_.failAfter != 0 && charges >= limits_.failAfter) {
    return trip(Budget::Fault);
  }
  // fetch_sub hands the zero crossing to exactly one thread, which
  // resets the stride and samples the clock. The transient wrap-around
  // other threads may decrement through only stretches the stride.
  if (clockCountdown_.fetch_sub(1, std::memory_order_relaxed) == 0) {
    clockCountdown_.store(kClockStride, std::memory_order_relaxed);
    if (!sampleDeadline()) return false;
  }
  return true;
}

bool ResourceGuard::charge(Budget kind, uint64_t n,
                           std::atomic<uint64_t>& used, uint64_t limit) {
  if (!active_) return true;
  if (tripped()) return false;
  if (!common()) return false;
  uint64_t now = used.fetch_add(n, std::memory_order_relaxed) + n;
  if (limit != 0 && now > limit) return trip(kind);
  return true;
}

bool ResourceGuard::chargeSteps(uint64_t n) {
  return charge(Budget::Steps, n, steps_, limits_.maxSteps);
}

bool ResourceGuard::chargeTuples(uint64_t n) {
  return charge(Budget::Tuples, n, tuples_, limits_.maxTuples);
}

bool ResourceGuard::chargeSolverChecks(uint64_t n) {
  return charge(Budget::SolverChecks, n, solverChecks_, limits_.maxSolverChecks);
}

bool ResourceGuard::chargeMemory(uint64_t bytes) {
  return charge(Budget::Memory, bytes, memoryBytes_, limits_.maxMemoryBytes);
}

bool ResourceGuard::checkDeadline() {
  if (!active_) return true;
  if (tripped()) return false;
  return common();
}

double ResourceGuard::remainingSeconds() const {
  if (limits_.deadlineSeconds <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  double left =
      limits_.deadlineSeconds - (util::monotonicSeconds() - startSeconds_);
  return left > 0.0 ? left : 0.0;
}

void ResourceGuard::throwTripped() const {
  throw BudgetExceeded(std::string(budgetText(tripped_)), reason());
}

}  // namespace faure
