// Incremental what-if evaluation (DESIGN.md §10).
//
// Fauré's headline workload is a *sequence of small edits* to an
// otherwise fixed network: retract a link, add a firewall rule,
// re-decide the constraints. Re-running the whole stratified fixpoint
// per edit wastes exactly the work the stratification already
// localises, so the engine here retains the derived c-tables of a
// completed run (IncrementalState) and, per edit batch, re-fires only
// the strata whose rules transitively touch a changed relation. The
// untouched strata's tables are reused *verbatim* — which is what makes
// the correctness contract checkable at the byte level:
//
//   oracle contract — for any edit script, at any thread count, solver
//   cache on or off, reevaluate() with incrementality enabled produces
//   output byte-identical to a full recompute (FAURE_INCREMENTAL=0).
//
// Evaluation is deterministic (DESIGN.md §7), so a stratum none of
// whose direct or transitive inputs changed derives the same table the
// previous epoch derived; reusing it is not an approximation. Strata
// that *are* affected recompute from scratch against the live EDB and
// the retained lower strata — through the same interner, so the
// VerdictCache carries its hits across epochs (tools/determinism_check
// --edit-script enforces both the byte identity and that the
// incremental path fires strictly fewer rules).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "datalog/analysis.hpp"
#include "datalog/ast.hpp"
#include "faurelog/eval.hpp"
#include "faurelog/textio.hpp"
#include "relational/database.hpp"
#include "smt/solver.hpp"

namespace faure::fl {

/// Everything retained from a completed epoch: the per-stratum derived
/// c-tables, the per-rule delta indexes consulted when an edit arrives,
/// and per-predicate provenance counts (how many rows each retained
/// relation carries — the cheap summary the stats report).
struct IncrementalState {
  /// False until the first reevaluate() completes (or after an
  /// incomplete/degraded epoch, which poisons reuse).
  bool valid = false;
  /// Derived tables of the last complete epoch, keyed by predicate.
  std::map<std::string, rel::CTable> idb;
  /// pred -> indices of rules with pred in their body: the delta index
  /// that seeds the affected-predicate closure when pred changes.
  std::map<std::string, std::vector<size_t>> bodyIndex;
  /// pred -> retained row count (provenance summary of `idb`).
  std::map<std::string, uint64_t> provenance;
};

/// Cumulative counters across an engine's lifetime, mirrored into the
/// tracer registry as `eval.inc.*` when EvalOptions::tracer is set.
/// Recorded in *both* modes so the oracle and the incremental path can
/// be compared: a full-recompute epoch counts every rule as refired.
struct IncStats {
  uint64_t epochs = 0;          // completed reevaluate() calls
  uint64_t fullRecomputes = 0;  // epochs that ran every stratum
  uint64_t refiredRules = 0;    // rules in executed strata, summed
  uint64_t skippedRules = 0;    // rules in reused strata, summed
  uint64_t dirtyStrata = 0;     // strata executed, summed
  uint64_t reusedStrata = 0;    // strata reused verbatim, summed
  uint64_t deltaInserts = 0;    // +Fact edits applied
  uint64_t deltaRetracts = 0;   // -Fact edits applied
};

/// The delta API over one (program, database, solver) triple.
///
///   IncrementalEngine eng(program, db, solver, opts);
///   eng.reevaluate();             // epoch 0: full run, baseline retained
///   eng.insertFact("F", {...});   // stage edits (applied to db at once)
///   eng.retractFact("F", {...});
///   eng.reevaluate();             // re-fires only the affected strata
///
/// The engine owns the edit staging and the retained state; the caller
/// keeps owning the database (which the engine mutates through the
/// delta API only) and the solver (whose verdict cache is the cross-
/// epoch reuse vehicle). Mutating the database behind the engine's back
/// invalidates the retained tables silently — call invalidate() after
/// any out-of-band change.
class IncrementalEngine {
 public:
  /// Throws EvalError when `opts` asks for simplifyResults (its solver
  /// rewrites are global, so there is no sound per-stratum reuse).
  /// Incrementality defaults to the FAURE_INCREMENTAL environment
  /// variable — unset or any value but "0" means on.
  IncrementalEngine(dl::Program program, rel::Database& db,
                    smt::SolverBase* solver, EvalOptions opts = {});

  /// Toggles delta propagation. Off = the full-recompute oracle: every
  /// reevaluate() runs every stratum (retained state is still updated,
  /// so re-enabling later reuses it).
  void setIncremental(bool on) { enabled_ = on; }
  bool incremental() const { return enabled_; }

  /// Stages and applies an insertion into base relation `pred` (merged
  /// through CTable::insert, so an existing data part ORs conditions).
  /// Returns true when the table changed. Throws EvalError for an
  /// unknown relation or arity/type mismatch.
  bool insertFact(const std::string& pred, std::vector<Value> vals,
                  smt::Formula cond = smt::Formula::top());

  /// Removes every row of `pred` with exactly this data part; returns
  /// the number of rows removed. A miss (0) still marks the relation
  /// dirty — retracting an absent fact is a no-op edit, not an error.
  size_t retractFact(const std::string& pred,
                     const std::vector<Value>& vals);

  /// Applies a parsed `+Fact(...)` / `-Fact(...)` directive.
  void apply(const Edit& edit);

  /// Recomputes the derived relations: the affected-predicate closure
  /// of the staged edits picks the strata to re-fire, everything else
  /// is served from the retained state (see the oracle contract above).
  /// The first call, any call after invalidate(), and every call with
  /// incrementality off run all strata. An incomplete (budget-tripped)
  /// result is returned as-is and poisons the retained state.
  EvalResult reevaluate();

  /// Drops the retained state; the next reevaluate() is a full run.
  /// Use after mutating the database outside the delta API.
  void invalidate();

  /// Installs another engine's retained state (snapshot forking,
  /// DESIGN.md §12): the adopted tables become this engine's "last
  /// complete epoch", so the next reevaluate() reuses every stratum an
  /// edit does not reach — without ever having run epoch 0 here. Both
  /// engines must be built over the same program, and this engine's
  /// database must currently equal the EDB the adopted state was
  /// derived from (ScenarioSet guarantees both by construction: forks
  /// clone the base database and share the base program). The delta
  /// index is program-derived and kept; tables are copy-on-write
  /// copies, sharing their rows and persistent JoinIndexes.
  void adoptState(const IncrementalState& state);

  const IncrementalState& state() const { return state_; }
  const IncStats& stats() const { return inc_; }
  /// Predicates edited since the last reevaluate().
  const std::set<std::string>& pendingDirty() const { return dirty_; }

 private:
  std::vector<char> planStrata(const std::set<std::string>& affected) const;

  dl::Program p_;
  rel::Database& db_;
  smt::SolverBase* solver_;
  EvalOptions opts_;
  /// The refined evaluation partition: dl::stratify's negation strata
  /// split into topologically-ordered SCC units, so independent rule
  /// families can be skipped independently (eval.hpp StrataPlan).
  dl::Stratification strat_;
  /// Head predicates per unit (dedup'd), aligned with ruleStrata.
  std::vector<std::set<std::string>> stratumHeads_;
  bool enabled_ = true;
  IncrementalState state_;
  IncStats inc_;
  std::set<std::string> dirty_;
  uint64_t pendingInserts_ = 0;
  uint64_t pendingRetracts_ = 0;
};

}  // namespace faure::fl
