// Concurrent what-if scenario evaluation (DESIGN.md §12).
//
// A what-if question rarely comes alone: an operator weighing a
// maintenance window wants "what breaks if link A fails?", "…if B
// fails?", "…if A fails after we add the reroute?" answered against the
// *same* network snapshot. Running `faure whatif` once per question
// re-loads, re-stratifies and — most expensively — re-derives epoch 0
// from scratch every time, even though every question shares it.
//
// ScenarioSet amortizes that shared prefix. It evaluates the base
// program once, retains the completed IncrementalEngine state, and then
// serves N independent edit scripts ("scenarios") by *forking* the
// snapshot: each scenario gets a copy of the database (registry ids
// survive the copy; tables are copy-on-write, so only the ones its edits
// write are ever copied, and their persistent JoinIndexes are shared)
// plus the retained per-stratum c-tables, so its first reevaluation
// re-fires only the strata its own edits reach. Tables the edits did
// not reach keep the base's content stamps, and their text is copied
// from the base epoch's rendering rather than rendered again. Forks share the
// read-only parts — the program, the process-wide FormulaInterner, and
// one mutex-protected VerdictCache — so scenario verdicts dedupe
// across the whole set.
//
// Isolation and determinism contract:
//   * outcome bytes are identical to running each scenario's edit
//     script through the single-scenario `faure whatif` path — at any
//     fan-out width, plan on/off, cache on/off (enforced end to end by
//     tools/determinism_check.py --scenarios);
//   * each scenario runs under its own ResourceGuard armed from the
//     shared limits: a budget-tripped scenario reports exit-code-2
//     semantics individually and never poisons its siblings;
//   * a scenario whose edit script fails to parse reports exit-code-1
//     semantics with no output, exactly like the CLI.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "datalog/ast.hpp"
#include "faurelog/eval.hpp"
#include "faurelog/incremental.hpp"
#include "faurelog/textio.hpp"
#include "relational/database.hpp"
#include "smt/solver_stack.hpp"
#include "util/resource_guard.hpp"

namespace faure::fl {

/// One independent what-if question: an edit script (textio.hpp
/// `+Fact(...)` / `-Fact(...)` syntax) to replay against the shared
/// base snapshot. An empty script is valid — epoch 0 only.
struct Scenario {
  std::string id;
  std::string edits;
};

/// What one scenario produced. `exitCode` follows the CLI contract
/// (0 definite / 1 hard error / 2 degraded); `output` holds exactly the
/// bytes the single-scenario `faure whatif` path would print to stdout
/// (empty on a parse error, partial up to the tripped epoch on 2).
struct ScenarioOutcome {
  std::string id;
  int exitCode = 0;
  std::string output;
  /// Degrade reason / parse-error text (the single run's stderr line).
  std::string message;
  /// Epochs this scenario covers, counting the shared epoch 0.
  size_t epochs = 0;
  /// The fork engine's counters (epoch 0 is not included — the base
  /// engine ran it once for everyone).
  IncStats inc;
};

struct ScenarioSetOptions {
  /// Inner evaluation defaults (tracer, plan mode, …). `eval.threads`
  /// is the scenario fan-out width (0 = hardware concurrency, unset =
  /// FAURE_THREADS, else serial); every scenario's own evaluation is
  /// serial, and results are byte-identical at any width.
  EvalOptions eval;
  /// Per-scenario resource governance: every scenario arms its own
  /// guard from these limits, re-armed per epoch like one CLI run.
  ResourceLimits limits;
  /// The solver stack every fork builds (smt/solver_stack.hpp). One
  /// verdict cache of `solver.cacheEntries` is shared by the base run
  /// and every fork (0 disables); supervision wraps each fork's stack,
  /// and the read-only chaos plan is shared across forks.
  smt::SolverStackOptions solver;
  /// -1: FAURE_INCREMENTAL env; 0: full-recompute oracle; 1: incremental.
  int mode = -1;
  /// Print only this relation ("" = all) — the CLI's --relation.
  std::string relation;
};

/// Splits a `---`-delimited scenarios file (the CLI's
/// `whatif --scenarios FILE`) into one Scenario per block, ids "1"…"N".
/// A leading or trailing whitespace-only block (file starts or ends
/// with the delimiter) is dropped; an *interior* empty block is a valid
/// epoch-0-only scenario. tools/determinism_check.py mirrors this split.
std::vector<Scenario> parseScenarioFile(std::string_view text);

class ScenarioSet {
 public:
  /// Takes ownership of the base snapshot; `program` must be parsed
  /// against its registry. Throws EvalError for an unknown solver name
  /// or an unstratifiable program (via the base engine), and
  /// SolverBackendError for "z3" in a build without Z3.
  ScenarioSet(dl::Program program, rel::Database base,
              ScenarioSetOptions opts = {});

  ScenarioSet(ScenarioSet&&) = default;
  ScenarioSet& operator=(ScenarioSet&&) = default;

  /// Runs the shared epoch 0 once and retains its state; idempotent.
  /// evaluate() calls it on demand — call it directly to front-load the
  /// cost (a server does this before accepting requests). Returns the
  /// epoch-0 result; if it is incomplete (budget tripped under the
  /// shared limits), every scenario will faithfully replay the partial
  /// epoch with exit-code-2 semantics, matching N single runs.
  const EvalResult& prepare();

  /// Evaluates the scenarios, fanning out over a ThreadPool at the
  /// configured width; outcomes come back in input order regardless of
  /// scheduling. Safe to call repeatedly (a server's request batches);
  /// the base snapshot is never mutated.
  std::vector<ScenarioOutcome> evaluate(
      const std::vector<Scenario>& scenarios);

  const rel::Database& base() const { return *base_; }

 private:
  smt::SolverStack makeForkStack() const;
  ScenarioOutcome evaluateOne(const Scenario& s);

  dl::Program p_;
  /// Heap-held so the registry address is stable across ScenarioSet
  /// moves: the shared cache and every fork solver hold references
  /// into it.
  std::unique_ptr<rel::Database> base_;
  ScenarioSetOptions opts_;
  /// One cache for the base run and every fork (bound to the base
  /// registry; fork stacks are built over that same registry, so the
  /// pointer-identity check in setVerdictCache holds). Null when
  /// solver.cacheEntries == 0.
  std::unique_ptr<smt::VerdictCache> cache_;
  bool prepared_ = false;
  EvalResult baseResult_;
  IncrementalState baseState_;
  /// Epoch-0 bytes (`== epoch 0: initial ==` + tables), rendered once
  /// and prefix-shared by every outcome.
  std::string baseOutput_;
  /// Keeps the base tables' bytes from prepare(). A fork's retained
  /// tables share the base's bodies and stamps, so every later epoch
  /// copies their bytes instead of rendering them again.
  RelationRenderer renderer_;
};

}  // namespace faure::fl
