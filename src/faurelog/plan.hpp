// Cost-based join planning for fauré-log rule bodies (DESIGN.md §11).
//
// The planner sits between stratification and rule firing: once per
// fixpoint round and (rule, delta-position) pair it reorders the
// positive body literals by estimated selectivity and decides which
// persistent c-table index (rel::JoinIndex) each literal probes. It is
// a *physical* layer only — the evaluator guarantees the candidate
// stream it produces is byte-identical to program-order evaluation by
// replaying every surviving row combination through the serial
// condition-building sequence and restoring serial enumeration order
// with a canonical sort (eval.cpp, "planned enumeration").
//
// What makes a column probe-able under reordering is the *star shape*
// of the serial equality atoms: serial evaluation generates equality
// atoms only between a variable's binder value (its first program-order
// occurrence) and each later occurrence — never between two non-binder
// occurrences. A probe may therefore only key a column on (a) a fixed
// constant, (b) the binder row's value when the binder literal is
// already placed, or (c) for the binder literal itself, the value of an
// already-placed later occurrence (equality is symmetric). Anything
// else could drop combinations serial evaluation keeps.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "datalog/ast.hpp"
#include "relational/ctable.hpp"

namespace faure::fl {

/// Planner switch: Off = pristine program-order evaluation, On = plan,
/// Explain = plan and dump each chosen plan to stderr (debugging).
enum class PlanMode { Off, On, Explain };

/// Resolves an optional explicit mode against the FAURE_PLAN
/// environment variable ("off"/"0"/"false" → Off, "explain" → Explain,
/// anything else → On). Unset everywhere defaults to On.
PlanMode resolvePlanMode(const std::optional<PlanMode>& opt);

/// Static join structure of one rule, mirroring exactly how the serial
/// evaluator classifies argument positions (eval.cpp joinLiteral): per
/// positive literal, per argument, whether it is a fixed value, a
/// variable bound earlier (by a previous literal or a previous argument
/// of the same literal), or the binding occurrence. Computed once per
/// rule and cached by the evaluator.
struct RuleShape {
  struct Arg {
    enum class Kind { Fixed, BoundVar, FreeVar } kind = Kind::Fixed;
    size_t slot = 0;          // variable kinds: index into the frame
    Value value;              // Fixed: constant or rule c-variable
    bool boundBefore = false;  // BoundVar bound by an *earlier literal*
  };
  struct LitShape {
    size_t body = 0;  // index into rule.body (positive literal)
    std::vector<Arg> args;
    /// Key columns the serial evaluator hashes on for this literal:
    /// fixed constants plus variables bound by earlier literals.
    std::vector<size_t> serialKeyArgs;
  };
  /// Where a variable slot is bound: (literal position in `lits`, arg).
  struct Binder {
    size_t lit = SIZE_MAX;
    size_t arg = 0;
  };

  std::vector<LitShape> lits;  // positive literals, program order
  size_t slotCount = 0;
  std::vector<Binder> binders;  // per slot
  /// Per slot: every (literal position, arg) occurrence, program order.
  std::vector<std::vector<std::pair<size_t, size_t>>> occurrences;

  static RuleShape analyze(
      const dl::Rule& rule,
      const std::unordered_map<std::string, size_t>& slotOf);
};

/// One key column of a planned probe and where its value comes from: a
/// fixed constant, or a static (literal, arg) source inside the row
/// combination being enumerated. Sources are static, so a probe is
/// evaluated without any mutable state.
struct PlannedProbe {
  size_t arg = 0;  // column of the probed literal
  bool fixed = false;
  Value fixedValue;   // when fixed
  size_t srcLit = 0;  // else: literal position (program order) ...
  size_t srcArg = 0;  // ... and column the value is read from
};

/// One step of the chosen visit order.
struct PlannedLiteral {
  size_t lit = 0;  // literal position in RuleShape::lits
  std::vector<PlannedProbe> probes;  // ascending by arg; empty = scan
  std::vector<size_t> keyArgs;       // probes' columns (index key-set)
  double estRows = 0.0;              // cost-model estimate (explain)
  bool fromIndexStats = false;       // estimate came from a live index
};

/// The physical plan for one (rule, delta position) firing.
struct RulePlan {
  bool reordered = false;  // visit order differs from program order
  std::vector<PlannedLiteral> order;
};

/// Live cost-model inputs, one per positive literal in program order.
struct LitStats {
  const rel::CTable* table = nullptr;
  size_t rangeRows = 0;  // snapshot scan-range size (delta-aware)
};

/// Greedy selectivity-driven ordering. `deltaLit` (a position into
/// shape.lits, or SIZE_MAX) is pinned first — the semi-naive delta is
/// the intended driver of every recursive firing. Estimates use live
/// index statistics when a persistent index for the candidate key-set
/// already exists, else a bound-column selectivity heuristic; ties
/// break toward program order, and a plan that comes out in program
/// order is flagged unreordered so the evaluator can skip the
/// canonical-sort machinery entirely.
RulePlan planRule(const RuleShape& shape, size_t deltaLit,
                  const std::vector<LitStats>& stats);

/// EXPLAIN rendering: one line per step with scan/probe decision,
/// estimated rows, and the estimate's provenance.
std::string explainPlan(const dl::Rule& rule, const RuleShape& shape,
                        const RulePlan& plan, size_t deltaLit,
                        const std::vector<LitStats>& stats);

}  // namespace faure::fl
