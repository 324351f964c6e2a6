// Resource governance for partial evaluation: deadlines, work budgets,
// cooperative cancellation, and deterministic fault injection.
//
// Fauré's contract is relative completeness — UNKNOWN only when more
// information is genuinely needed. A ResourceGuard extends that contract
// to *resources*: engine layers (the fauré-log fixpoint, the condition
// solvers, the containment pipeline) charge their work against the guard,
// and when a budget trips they degrade instead of running unbounded —
// solvers answer Sat::Unknown, evaluation returns the tuples derived so
// far flagged `incomplete`, the verifier maps both to UNKNOWN with a
// machine-readable reason. "Unknown costs performance, never soundness"
// (smt/solver.hpp) is the degradation axis: partial answers stay sound,
// only completeness is given up.
//
// A default-constructed guard is inactive: every charge is a single flag
// test, nothing ever trips, and engine behaviour is bit-identical to an
// unguarded run. Charging, cancel() and the read accessors are
// thread-safe: a guard may be charged, cancelled or read from several
// threads at once, every charging thread observes a trip at its next
// charge, and the trip observer fires exactly once. Configuration
// (arm/rearm/failAfter/onTrip) still assumes a single thread between
// governed operations.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace faure {

/// The budget classes a guard can trip on. budgetText() gives the stable
/// reason codes documented in DESIGN.md ("Resource governance").
enum class Budget : uint8_t {
  None,          // not tripped
  Deadline,      // wall-clock deadline exceeded
  Steps,         // relational work units (row extensions, rounds)
  Tuples,        // candidate head derivations
  SolverChecks,  // satisfiability checks issued
  Memory,        // approximate engine-tracked bytes appended
  Cancelled,     // cooperative cancellation via cancel()
  Fault,         // deterministic fault injection (failAfter)
};

std::string_view budgetText(Budget b);

/// Limits carried by a guard. Zero (or non-positive for the deadline)
/// means "unlimited" for that class.
struct ResourceLimits {
  double deadlineSeconds = 0.0;
  uint64_t maxSteps = 0;
  uint64_t maxTuples = 0;
  uint64_t maxSolverChecks = 0;
  uint64_t maxMemoryBytes = 0;
  /// Fault injection: trip (Budget::Fault) on the n-th charging call,
  /// whatever its class. Exercises every degradation path in CI without
  /// pathological inputs.
  uint64_t failAfter = 0;

  /// True when any limit (or fault injection) is configured.
  bool any() const;

  /// Reads limits from the environment: FAURE_DEADLINE (seconds),
  /// FAURE_MAX_STEPS, FAURE_MAX_TUPLES, FAURE_MAX_SOLVER_CHECKS,
  /// FAURE_MAX_MEMORY (bytes), FAURE_FAIL_AFTER. Unset variables leave
  /// the corresponding limit unlimited.
  static ResourceLimits fromEnv();
};

/// See file comment. Pass by pointer; a null guard means "ungoverned".
class ResourceGuard {
 public:
  ResourceGuard() = default;
  explicit ResourceGuard(const ResourceLimits& limits) { arm(limits); }

  ResourceGuard(const ResourceGuard&) = delete;
  ResourceGuard& operator=(const ResourceGuard&) = delete;

  /// Work charged so far (for stats; counts only while active).
  struct Counters {
    uint64_t steps = 0;
    uint64_t tuples = 0;
    uint64_t solverChecks = 0;
    uint64_t memoryBytes = 0;
    uint64_t charges = 0;  // charging calls, the failAfter clock
  };

  /// Installs `limits` and re-arms. An all-zero ResourceLimits
  /// deactivates the guard.
  void arm(const ResourceLimits& limits);

  /// Restarts the deadline clock, zeroes counters and clears any trip,
  /// keeping the configured limits. Call before each governed operation.
  void rearm();

  /// Deterministic fault injection: trip on the n-th subsequent charging
  /// call (n = 1 trips the very next charge). 0 disables.
  void failAfter(uint64_t n);

  bool active() const { return active_; }
  bool tripped() const { return trippedBudget() != Budget::None; }
  Budget trippedBudget() const {
    return tripped_.load(std::memory_order_acquire);
  }

  /// Machine-readable trip reason, e.g. "steps(limit=100)" or
  /// "deadline(limit=0.05s)"; empty while not tripped.
  std::string reason() const;

  // Charging. Each returns false when the guard is (now) tripped; the
  // caller must then stop, degrade, and report reason(). Charges on an
  // inactive or already-tripped guard are cheap no-ops.
  bool chargeSteps(uint64_t n = 1);
  bool chargeTuples(uint64_t n = 1);
  bool chargeSolverChecks(uint64_t n = 1);
  bool chargeMemory(uint64_t bytes);

  /// Deadline/cancellation probe without charging any budget counter (it
  /// still ticks the fault-injection clock). Clock sampling is amortized:
  /// roughly every 64th call touches the clock.
  bool checkDeadline();

  /// Seconds left on the deadline; +infinity when none is set, 0 when
  /// expired. Backends with native timeouts (Z3) translate this.
  double remainingSeconds() const;

  /// Cooperative cancellation; safe to call from another thread. The
  /// engine observes it at the next charge and degrades as usual.
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  const ResourceLimits& limits() const { return limits_; }

  /// Consistent-enough snapshot of the work charged so far (each field
  /// is read atomically; the set is not a transaction).
  Counters counters() const;

  /// Raises BudgetExceeded carrying the tripped budget kind and limit.
  /// Precondition: tripped().
  [[noreturn]] void throwTripped() const;

  /// Observer invoked exactly once per trip, with the tripped budget and
  /// the machine-readable reason() string. Observability wiring (a
  /// Session or the CLI) points this at obs::Tracer::event so budget
  /// trips become first-class trace events; the guard itself stays free
  /// of any obs dependency. Cold path: runs only when a budget trips.
  void onTrip(std::function<void(Budget, const std::string&)> fn) {
    onTrip_ = std::move(fn);
  }

 private:
  bool charge(Budget kind, uint64_t n, std::atomic<uint64_t>& used,
              uint64_t limit);
  bool common();           // cancellation + fault injection + deadline
  bool sampleDeadline();   // touches the clock
  bool trip(Budget kind);  // records the trip once; always returns false

  ResourceLimits limits_;
  // Counters are individually atomic so concurrent threads can charge
  // without locks; counters() snapshots them into the POD Counters.
  std::atomic<uint64_t> steps_{0};
  std::atomic<uint64_t> tuples_{0};
  std::atomic<uint64_t> solverChecks_{0};
  std::atomic<uint64_t> memoryBytes_{0};
  std::atomic<uint64_t> charges_{0};
  std::function<void(Budget, const std::string&)> onTrip_;
  bool active_ = false;
  std::atomic<Budget> tripped_{Budget::None};
  std::atomic<bool> cancelled_{false};
  double startSeconds_ = 0.0;  // monotonic clock at rearm()
  // Charges until the next clock sample; exactly one thread observes the
  // zero crossing (fetch_sub) and samples, so the stride stays amortized
  // under concurrency.
  std::atomic<uint32_t> clockCountdown_{0};
};

}  // namespace faure
