// Fauré-log evaluation over c-tables — the paper's core contribution (§3).
//
// The evaluator implements the c-valuation v^C: program variables range
// over the c-domain (constants ∪ c-variables); a constant in a rule
// matches an equal constant outright and matches a c-variable by
// conjoining the equality into the derived tuple's condition; explicit
// comparisons become condition atoms. Recursion uses a stratified
// semi-naive fixed point; negation is closed-world over the (fully
// computed) lower stratum, contributing the conjunction of the negated
// matches' complements — exactly the c-table difference semantics.
//
// The optional "solver step" mirrors the paper's pipeline (§6): every
// derived condition can be checked and contradictory tuples discarded;
// stats report relational ("sql") time and solver time separately so the
// Table-4 harness can print the same columns as the paper.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "datalog/analysis.hpp"
#include "datalog/ast.hpp"
#include "faurelog/plan.hpp"
#include "obs/trace.hpp"
#include "relational/database.hpp"
#include "smt/solver.hpp"
#include "util/resource_guard.hpp"

namespace faure::fl {

/// Explicitly-known-absent tuples, used by the containment reduction
/// (§5): in open-world mode a negated literal matches only these.
struct NegativeFacts {
  /// pred -> list of data parts (over the c-domain) known absent.
  std::map<std::string, std::vector<std::vector<Value>>> facts;

  bool empty() const { return facts.empty(); }
};

struct EvalOptions {
  /// Delta-driven fixed point (ablation: naive re-derivation when false).
  bool semiNaive = true;
  /// Check each derived condition for satisfiability and drop
  /// contradictory tuples (the paper's Z3 step). Soundness does not
  /// depend on it; result size and downstream cost do.
  bool pruneWithSolver = true;
  /// Skip a derived tuple when its condition is semantically implied by
  /// what is already recorded for the same data part. Needed for
  /// termination on condition-growing cycles; syntactic dedup alone
  /// handles the common case.
  bool mergeSubsumption = true;
  /// Skip the *semantic* subsumption check once the recorded condition
  /// has grown past this many disjuncts: against a large disjunction the
  /// check rarely succeeds and its refutation is expensive. The syntactic
  /// check still applies, so termination on finite atom sets is kept.
  size_t maxSubsumptionDisjuncts = 32;
  /// Consolidate rows with equal data parts (OR their conditions) in the
  /// final result.
  bool consolidate = true;
  /// Semantically simplify every result condition (smt/simplify.hpp):
  /// smaller outputs at the cost of extra solver calls. Off by default.
  bool simplifyResults = false;
  /// Open-world negation for the containment reduction: when set, a
  /// negated literal matches only the listed negative facts instead of
  /// complementing the computed relation.
  const NegativeFacts* openWorldNegation = nullptr;
  /// Safety cap on fixed-point rounds.
  size_t maxIterations = 1u << 20;
  /// Resource governance (util/resource_guard.hpp): evaluation charges
  /// joins, derivations and fixpoint rounds against the guard, and when a
  /// budget trips it stops and returns the tuples derived so far with
  /// EvalResult::incomplete set and the tripped budget recorded. Null (the
  /// default) leaves evaluation ungoverned and bit-identical to before.
  ResourceGuard* guard = nullptr;
  /// Strict budgets: throw BudgetExceeded instead of returning an
  /// incomplete result when the guard trips.
  bool throwOnBudget = false;
  /// Scenario fan-out width (DESIGN.md §7): how many scenarios a
  /// ScenarioSet evaluates at once. A single evaluation is always serial
  /// and ignores it. Unset (the default) consults the FAURE_THREADS
  /// environment variable, falling back to 1; 0 means hardware
  /// concurrency (resolveThreads).
  std::optional<unsigned> threads;
  /// Cost-based join planning (faurelog/plan.hpp, DESIGN.md §11): Off
  /// runs the pristine program-order join path; On reorders body
  /// literals by estimated selectivity and probes persistent c-table
  /// indexes (rel::JoinIndex), with results byte-identical to Off;
  /// Explain additionally dumps each chosen plan to
  /// stderr. Unset (the default) consults the FAURE_PLAN environment
  /// variable and falls back to On.
  std::optional<PlanMode> plan;
  /// Observability (obs/trace.hpp): evaluation records an
  /// eval → stratum → rule span tree and mirrors its statistics —
  /// aggregate, per-stratum and per-rule — into the tracer's metrics
  /// registry (`eval.*` names; DESIGN.md "Observability"). The tracer is
  /// also scope-attached to the solver so `solver.*` metrics land in the
  /// same registry. Null (the default) disables tracing at the cost of
  /// one pointer test per site.
  obs::Tracer* tracer = nullptr;
};

/// Compatibility accessor over one evaluation's counters. The canonical,
/// superset store for an *observed* run is the obs metrics registry
/// (`eval.*`, including per-stratum `eval.stratum[s].*` and per-rule
/// `eval.rule[i:head].*` breakdowns this struct cannot express); every
/// field here is mirrored there when EvalOptions::tracer is set.
struct EvalStats {
  uint64_t derivations = 0;   // candidate head tuples (pre-prune)
  uint64_t inserted = 0;      // rows appended
  uint64_t prunedUnsat = 0;   // dropped by the solver step
  uint64_t subsumed = 0;      // dropped by the merge-subsumption check
  size_t iterations = 0;
  uint64_t budgetTrips = 0;    // evaluations cut short by the guard (0/1)
  double sqlSeconds = 0.0;     // relational work (matching, joining)
  double solverSeconds = 0.0;  // condition satisfiability checks
  uint64_t solverChecks = 0;
};

struct EvalResult {
  std::map<std::string, rel::CTable> idb;
  EvalStats stats;

  /// True when a resource budget tripped and `idb` holds only the tuples
  /// derived before the trip. Every held tuple is still sound (it is
  /// derivable); only completeness is lost — the verifier maps this to
  /// UNKNOWN. `tripped`/`degradeReason` identify the budget that fired.
  bool incomplete = false;
  Budget tripped = Budget::None;
  std::string degradeReason;

  const rel::CTable& relation(const std::string& pred) const;

  /// True when the 0-ary predicate `goal` was derived; `cond` (optional)
  /// receives the disjunction of its derivation conditions.
  bool derived(const std::string& goal, smt::Formula* cond = nullptr) const;
};

/// Evaluates a fauré-log program against `db`. `solver` decides condition
/// satisfiability (pass a NativeSolver over db.cvars(), or a Z3 backend);
/// it may be null only when both pruneWithSolver and mergeSubsumption are
/// disabled.
EvalResult evalFaure(const dl::Program& p, const rel::Database& db,
                     smt::SolverBase* solver, const EvalOptions& opts = {});

/// Selective re-evaluation plan for the incremental engine
/// (incremental.hpp): an explicit evaluation partition, which of its
/// strata to execute, and the derived tables — retained verbatim from a
/// previous epoch — standing in for the skipped ones.
///
/// The plan carries its own Stratification because dl::stratify only
/// separates strata across negation: independent positive rule families
/// all share stratum 0, far too coarse to skip selectively. The
/// incremental engine refines the partition to the topologically-
/// ordered SCC condensation of the predicate dependency graph; the
/// evaluator runs whatever partition the plan names (any rule grouping
/// is sound as long as each predicate's rules sit in one group and
/// groups are in dependency order — negation included, which refinement
/// of a valid stratification preserves).
///
/// The contract that makes table reuse byte-identical to a full
/// recompute is the caller's: `retained` must hold exactly the head
/// predicates of every stratum with runStratum[s] == false, carrying
/// the tables a full run under the SAME partition over the current
/// database would produce. Evaluation is deterministic, so tables from
/// the previous epoch satisfy this whenever no predicate feeding their
/// strata changed.
struct StrataPlan {
  /// The evaluation partition (ruleStrata is what the evaluator runs).
  dl::Stratification strata;
  /// One flag per entry of strata.ruleStrata — false means "skip, the
  /// retained tables already cover this stratum's heads". Size checked
  /// at run time.
  std::vector<char> runStratum;
  /// Derived tables injected for the skipped strata's head predicates.
  std::map<std::string, rel::CTable> retained;
};

/// evalFaure, but only over the strata selected by `plan`; the plan's
/// retained tables are seeded into the result untouched. With an
/// all-true plan this is exactly evalFaure.
EvalResult evalFaurePlanned(const dl::Program& p, const rel::Database& db,
                            smt::SolverBase* solver, const EvalOptions& opts,
                            StrataPlan plan);

/// Convenience: evaluates with a fresh NativeSolver and default options.
EvalResult evalFaure(const dl::Program& p, const rel::Database& db);

/// The scenario fan-out width `opts.threads` asks for: resolves the
/// unset-means-FAURE_THREADS default and the 0-means-hardware-
/// concurrency convention (ScenarioSet and the CLI report the same
/// number through this).
size_t resolveThreads(const EvalOptions& opts);

}  // namespace faure::fl
