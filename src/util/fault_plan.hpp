// Deterministic chaos schedule for solver fault injection.
//
// ResourceGuard::failAfter (PR 1) trips the n-th charging call — a
// single, order-dependent fault. A FaultPlan generalizes that idea into
// a *schedule*: given a seed, it decides for every (backend, query,
// attempt) whether that call crashes, times out, or answers a spurious
// Unknown. The decision is a pure hash of the inputs — never of call
// order, wall clock, or thread id — so the same seed injects the same
// faults whether the run is a single evaluation, a scenario fork on any
// fan-out width, or replayed under a cache: the determinism axis the
// chaos suite is built on
// (DESIGN.md §9 "Fault tolerance & chaos testing").
//
// The plan is keyed on plain integers (the solver layer passes the
// hash-consed formula hash as `key`) so util stays free of smt types.
// Plans are immutable after configure(); decide() is const and
// thread-safe, so one shared plan serves every scenario fork.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace faure::util {

/// What an injected fault looks like to the supervision layer.
enum class FaultKind : uint8_t {
  None,             // no fault: call the backend normally
  Crash,            // the backend "dies": a SolverBackendError
  Timeout,          // the watchdog "fires": treated as a watchdog trip
  SpuriousUnknown,  // the backend "answers" Unknown without working
};

std::string_view faultKindText(FaultKind k);

/// Per-backend fault rates. Probabilities are independent slices of one
/// uniform draw, so crash + timeout + spuriousUnknown must be <= 1.
struct FaultSpec {
  double crash = 0.0;
  double timeout = 0.0;
  double spuriousUnknown = 0.0;
  /// When true (default) the decision re-rolls per retry attempt, so a
  /// bounded retry can clear a fault. When false the fault is permanent
  /// for a given (backend, key): the schedule of a dead engine.
  bool clearsOnRetry = true;
  /// Restrict injection to the query with this key (0: every query).
  /// Single-query faults drive the quarantine tests.
  uint64_t onlyKey = 0;
};

class FaultPlan {
 public:
  explicit FaultPlan(uint64_t seed) : seed_(seed) {}

  /// Installs fault rates for one backend name ("z3", "native", ...).
  /// Backends without a spec never fault.
  void configure(std::string backend, FaultSpec spec);

  bool empty() const { return specs_.empty(); }
  uint64_t seed() const { return seed_; }

  /// The fault (or None) for attempt `attempt` of the query with hash
  /// `key` on `backend`. Pure function of the arguments and the seed.
  FaultKind decide(std::string_view backend, uint64_t key,
                   uint32_t attempt) const;

  /// The default chaos schedule for `seed`: moderate crash / timeout /
  /// spurious-Unknown rates on the *primary* backend tag only. The
  /// last-resort backend of a failover chain is never faulted, so a
  /// supervised run under this plan completes with verdicts equal to an
  /// unfaulted run — the transparency oracle the chaos CI job checks.
  static std::shared_ptr<const FaultPlan> defaultChaos(uint64_t seed);

  /// Reads FAURE_CHAOS_SEED: unset/empty/0 -> nullptr (no chaos),
  /// otherwise defaultChaos(seed).
  static std::shared_ptr<const FaultPlan> fromEnv();

  /// The backend tag defaultChaos() injects into. Supervision labels
  /// its first backend with this tag when chaos is active so env-driven
  /// plans always bite the primary, whatever engine it is.
  static constexpr std::string_view kPrimaryTag = "primary";

 private:
  uint64_t seed_;
  std::vector<std::pair<std::string, FaultSpec>> specs_;
};

}  // namespace faure::util
