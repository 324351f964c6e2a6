#include "faurelog/eval.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>

#include "datalog/analysis.hpp"
#include "relational/algebra.hpp"
#include "smt/simplify.hpp"
#include "smt/verdict_cache.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace faure::fl {

const rel::CTable& EvalResult::relation(const std::string& pred) const {
  static const rel::CTable kEmpty;
  auto it = idb.find(pred);
  return it == idb.end() ? kEmpty : it->second;
}

bool EvalResult::derived(const std::string& goal, smt::Formula* cond) const {
  const rel::CTable& t = relation(goal);
  if (cond != nullptr) {
    std::vector<smt::Formula> conds;
    for (const auto& row : t.rows()) conds.push_back(row.cond);
    *cond = smt::Formula::disj(std::move(conds));
  }
  return !t.empty();
}

namespace {

using dl::Program;
using dl::Rule;
using dl::Term;

/// A partial c-valuation: values for the rule's program variables (slots
/// fill in literal order) plus the accumulated condition.
struct CFrame {
  std::vector<Value> vals;
  smt::Formula cond;
};

/// Internal control-flow signal: a guard budget tripped mid-fixpoint.
/// Caught in run(), where the partial IDB becomes the degraded result.
struct BudgetTrip {};

/// A derived-tuple candidate of one rule application: the grounded head
/// values and the accumulated condition.
struct Candidate {
  std::vector<Value> vals;
  smt::Formula cond;
};

class FaureEvaluator {
 public:
  FaureEvaluator(const Program& p, const rel::Database& db,
                 smt::SolverBase* solver, const EvalOptions& opts,
                 StrataPlan* plan = nullptr)
      : p_(p),
        db_(db),
        solver_(solver),
        opts_(opts),
        plan_(plan),
        guard_(opts.guard),
        tracer_(opts.tracer),
        planMode_(resolvePlanMode(opts.plan)) {
    if (solver_ == nullptr &&
        (opts_.pruneWithSolver || opts_.mergeSubsumption)) {
      throw EvalError(
          "evalFaure: solver required for pruning / merge subsumption");
    }
    cache_ = solver_ != nullptr ? solver_->verdictCache() : nullptr;
    if (cache_ != nullptr) cacheBefore_ = cache_->stats();
  }

  EvalResult run() {
    obs::Span evalSpan(tracer_, "eval");
    util::Stopwatch total;
    double solverBefore = solver_ != nullptr ? solver_->stats().seconds : 0.0;
    uint64_t checksBefore = solver_ != nullptr ? solver_->stats().checks : 0;

    // Solver work counts against the same guard: a deadline that expires
    // inside a condition check trips the whole evaluation, not just the
    // one answer. Likewise solver metrics land in the same registry.
    // Restored on exit so callers keep their own wiring.
    smt::ResourceGuardScope solverGuard(solver_, guard_);
    smt::TracerScope solverTracer(solver_, tracer_);

    dl::checkSafety(p_);
    std::unordered_map<std::string, size_t> external;
    for (const auto& [name, table] : db_.tables()) {
      external.emplace(name, table.schema().arity());
    }
    dl::checkArities(p_, external);
    // A plan brings its own (refined) partition; stratify otherwise.
    // Either way dl::stratify validates stratifiability — the plan's
    // partition was derived from it by the incremental engine.
    dl::Stratification strat =
        plan_ != nullptr ? plan_->strata : dl::stratify(p_);
    if (evalSpan) {
      evalSpan.note("rules", std::to_string(p_.rules.size()));
      evalSpan.note("strata", std::to_string(strat.ruleStrata.size()));
    }
    if (plan_ != nullptr) {
      if (plan_->runStratum.size() != strat.ruleStrata.size()) {
        throw EvalError("evalFaurePlanned: plan covers " +
                        std::to_string(plan_->runStratum.size()) +
                        " strata but the program stratifies into " +
                        std::to_string(strat.ruleStrata.size()));
      }
      // Retained tables must land before any stratum runs: a dirty
      // stratum reads the skipped lower strata through findRelation.
      for (auto& [pred, table] : plan_->retained) {
        idb_.insert_or_assign(pred, std::move(table));
      }
      if (evalSpan) {
        size_t live = 0;
        for (char f : plan_->runStratum) live += f != 0;
        evalSpan.note("planned_strata", std::to_string(live));
      }
    }

    bool degraded = false;
    try {
      for (size_t s = 0; s < strat.ruleStrata.size(); ++s) {
        if (plan_ != nullptr && !plan_->runStratum[s]) continue;
        evalStratum(strat, s);
      }
    } catch (const BudgetTrip&) {
      degraded = true;
      ++stats_.budgetTrips;
    }
    // Timing totals + registry mirror; called on every exit path so a
    // strict-budget throw still leaves complete metrics behind.
    auto finish = [&] {
      if (solver_ != nullptr) {
        stats_.solverSeconds = solver_->stats().seconds - solverBefore;
        stats_.solverChecks = solver_->stats().checks - checksBefore;
      }
      stats_.sqlSeconds = std::max(0.0, total.elapsed() - stats_.solverSeconds);
      flushMetrics(degraded);
    };
    if (degraded && opts_.throwOnBudget) {
      if (evalSpan) evalSpan.note("incomplete", guard_->reason());
      finish();
      guard_->throwTripped();
    }
    if (opts_.consolidate) {
      for (auto& [pred, table] : idb_) table.consolidate();
    }
    if (opts_.simplifyResults && !degraded) {
      if (solver_ == nullptr) {
        throw EvalError("evalFaure: simplifyResults requires a solver");
      }
      for (auto& [pred, table] : idb_) {
        for (size_t i = 0; i < table.size(); ++i) {
          table.setCondition(
              i, smt::simplify(table.rows()[i].cond, *solver_));
        }
        table.pruneIf(
            [](const rel::Row& row) { return row.cond.isFalse(); });
      }
    }
    finish();

    EvalResult result;
    result.idb = std::move(idb_);
    result.stats = stats_;
    if (degraded) {
      result.incomplete = true;
      result.tripped = guard_->trippedBudget();
      result.degradeReason = guard_->reason();
      if (evalSpan) evalSpan.note("incomplete", result.degradeReason);
    }
    return result;
  }

 private:
  struct Range {
    size_t lo = 0;
    size_t hi = 0;
  };

  const rel::CTable* findRelation(const std::string& pred) const {
    auto it = idb_.find(pred);
    if (it != idb_.end()) return &it->second;
    return db_.find(pred);
  }

  // IDB table for `pred`; if an EDB relation with the same name exists its
  // rows seed the table (the paper's q19 appends a fact to the EDB Lb).
  rel::CTable& idbTable(const std::string& pred, size_t arity) {
    auto it = idb_.find(pred);
    if (it != idb_.end()) return it->second;
    const rel::CTable* edb = db_.find(pred);
    if (edb != nullptr) {
      if (edb->schema().arity() != arity) {
        throw EvalError("arity mismatch redefining '" + pred + "'");
      }
      return idb_.emplace(pred, *edb).first->second;
    }
    std::vector<rel::Attribute> attrs(arity);
    for (size_t i = 0; i < arity; ++i) {
      attrs[i] = rel::Attribute{"a" + std::to_string(i), ValueType::Any};
    }
    return idb_.emplace(pred, rel::CTable(rel::Schema(pred, attrs)))
        .first->second;
  }

  void evalStratum(const dl::Stratification& strat, size_t s) {
    const auto& ruleIdx = strat.ruleStrata[s];
    if (ruleIdx.empty()) return;
    obs::Span span;
    obs::Counter* rounds = nullptr;
    if (tracer_ != nullptr) {
      std::string tag = "stratum[" + std::to_string(s) + "]";
      rounds = &tracer_->metrics().counter("eval." + tag + ".rounds");
      span = obs::Span(tracer_, tag);
      span.note("rules", std::to_string(ruleIdx.size()));
    }
    std::set<std::string> thisStratum;
    for (size_t ri : ruleIdx) thisStratum.insert(p_.rules[ri].head.pred);
    for (size_t ri : ruleIdx) {
      idbTable(p_.rules[ri].head.pred, p_.rules[ri].head.args.size());
    }

    std::unordered_map<std::string, size_t> deltaStart;
    for (const auto& pred : thisStratum) deltaStart[pred] = 0;

    bool first = true;
    for (size_t iter = 0; iter < opts_.maxIterations; ++iter) {
      ++stats_.iterations;
      if (rounds != nullptr) rounds->add();
      chargeSteps(1);
      std::unordered_map<std::string, size_t> fullEnd;
      for (const auto& pred : thisStratum) {
        fullEnd[pred] = idb_.at(pred).size();
      }
      bool changed = false;
      for (size_t ri : ruleIdx) {
        const Rule& rule = p_.rules[ri];
        std::vector<size_t> recursivePositions;
        for (size_t i = 0; i < rule.body.size(); ++i) {
          const dl::Literal& lit = rule.body[i];
          if (!lit.negated && thisStratum.count(lit.atom.pred) != 0) {
            recursivePositions.push_back(i);
          }
        }
        if (!first && recursivePositions.empty()) continue;
        if (first || !opts_.semiNaive || recursivePositions.empty()) {
          changed |=
              evalRule(ri, rule, SIZE_MAX, deltaStart, fullEnd, thisStratum);
        } else {
          for (size_t pos : recursivePositions) {
            changed |=
                evalRule(ri, rule, pos, deltaStart, fullEnd, thisStratum);
          }
        }
      }
      for (const auto& pred : thisStratum) deltaStart[pred] = fullEnd[pred];
      first = false;
      if (!changed) {
        bool grew = false;
        for (const auto& pred : thisStratum) {
          if (idb_.at(pred).size() != fullEnd[pred]) grew = true;
        }
        if (!grew) return;
      }
    }
    throw EvalError("fauré-log fixed point did not converge (cap reached)");
  }

  Range rangeFor(const std::string& pred, size_t deltaPos, size_t thisIndex,
                 const std::unordered_map<std::string, size_t>& deltaStart,
                 const std::unordered_map<std::string, size_t>& fullEnd,
                 const std::set<std::string>& thisStratum,
                 const rel::CTable& table) const {
    if (thisStratum.count(pred) == 0) return Range{0, table.size()};
    size_t end = fullEnd.at(pred);
    if (deltaPos == thisIndex) return Range{deltaStart.at(pred), end};
    return Range{0, end};
  }

  // ---- cost-based join planning (plan.hpp, DESIGN.md §11) ----
  //
  // planFor() resolves the physical plan for one (rule, delta position)
  // firing from the round's live cardinalities and ensures every
  // persistent index the plan probes is built/extended before the join
  // reads it. Three execution paths follow:
  //   off          — planMode_ == Off or no plan: the pristine
  //                  program-order join path, byte-for-byte the
  //                  pre-planner evaluator;
  //   unreordered  — plan kept program order: joinLiteral probes the
  //                  persistent index on its serial key columns instead
  //                  of rebuilding a local one per firing. Enumeration
  //                  order is identical, so no sort is needed;
  //   reordered    — plannedEnumerate() walks literals in plan order,
  //                  pruning only combinations serial evaluation
  //                  provably prunes, then replays each survivor
  //                  through the serial condition sequence (dropping
  //                  the rest) and sorts by serial enumeration rank.
  //                  The resulting frame stream — values, conditions,
  //                  order — is exactly the serial one.

  /// Per-firing physical plan.
  struct PlanContext {
    const RuleShape* shape = nullptr;
    RulePlan plan;
    size_t deltaLit = SIZE_MAX;
    /// Per positive literal (program order): the relation snapshot.
    std::vector<const rel::CTable*> tables;
    /// Unreordered path: persistent index on each literal's serial key
    /// columns (null when the literal has none).
    std::vector<const rel::JoinIndex*> serialIndex;
    /// Reordered path: persistent index per plan *step* (null = scan).
    std::vector<const rel::JoinIndex*> stepIndex;
  };

  /// The static join shape of rule `ri`, computed once and cached.
  const RuleShape& ruleShape(size_t ri, const Rule& rule) {
    if (shapes_.empty()) shapes_.resize(p_.rules.size());
    if (!shapes_[ri].has_value()) {
      std::vector<std::string> vars = dl::ruleVariables(rule);
      std::unordered_map<std::string, size_t> slotOf;
      for (size_t i = 0; i < vars.size(); ++i) slotOf[vars[i]] = i;
      shapes_[ri] = RuleShape::analyze(rule, slotOf);
    }
    return *shapes_[ri];
  }

  /// Builds (or extends) the persistent index of `table` keyed on
  /// `keyArgs`, with build-vs-extension accounting.
  const rel::JoinIndex* ensureIndex(const rel::CTable& table,
                                    const std::vector<size_t>& keyArgs) {
    rel::CTable::IndexUpkeep upkeep;
    const rel::JoinIndex& idx = table.ensureJoinIndex(keyArgs, &upkeep);
    if (upkeep == rel::CTable::IndexUpkeep::Built) {
      ++planStats_.indexBuilds;
    } else if (upkeep == rel::CTable::IndexUpkeep::Extended) {
      ++planStats_.indexExtensions;
    }
    return &idx;
  }

  /// Resolves the plan for one (rule, delta position) firing, ensuring
  /// every index it will probe. Returns null when planning is off or
  /// the rule has nothing to plan (the caller falls back to the
  /// pristine path, which also owns error reporting for unknown
  /// relations).
  std::unique_ptr<PlanContext> planFor(
      size_t ri, const Rule& rule, size_t deltaPos,
      const std::unordered_map<std::string, size_t>& deltaStart,
      const std::unordered_map<std::string, size_t>& fullEnd,
      const std::set<std::string>& thisStratum) {
    if (planMode_ == PlanMode::Off) return nullptr;
    const RuleShape& shape = ruleShape(ri, rule);
    if (shape.lits.empty()) return nullptr;
    auto ctx = std::make_unique<PlanContext>();
    ctx->shape = &shape;
    std::vector<LitStats> litStats;
    litStats.reserve(shape.lits.size());
    for (size_t lp = 0; lp < shape.lits.size(); ++lp) {
      const dl::Literal& lit = rule.body[shape.lits[lp].body];
      const rel::CTable* table = findRelation(lit.atom.pred);
      if (table == nullptr) return nullptr;  // pristine path reports it
      Range range = rangeFor(lit.atom.pred, deltaPos, shape.lits[lp].body,
                             deltaStart, fullEnd, thisStratum, *table);
      litStats.push_back(LitStats{table, range.hi - range.lo});
      ctx->tables.push_back(table);
      if (shape.lits[lp].body == deltaPos) ctx->deltaLit = lp;
    }
    ctx->plan = planRule(shape, ctx->deltaLit, litStats);
    ++planStats_.plans;
    if (ctx->plan.reordered) ++planStats_.reorders;
    for (const PlannedLiteral& pl : ctx->plan.order) {
      planStats_.estRows += static_cast<uint64_t>(
          std::llround(std::max(0.0, pl.estRows)));
    }
    if (ctx->plan.reordered) {
      ctx->stepIndex.resize(ctx->plan.order.size(), nullptr);
      for (size_t step = 0; step < ctx->plan.order.size(); ++step) {
        const PlannedLiteral& pl = ctx->plan.order[step];
        if (pl.keyArgs.empty()) continue;
        ctx->stepIndex[step] =
            ensureIndex(*ctx->tables[pl.lit], pl.keyArgs);
      }
    } else {
      ctx->serialIndex.resize(shape.lits.size(), nullptr);
      for (size_t lp = 0; lp < shape.lits.size(); ++lp) {
        const auto& keys = shape.lits[lp].serialKeyArgs;
        if (keys.empty()) continue;
        ctx->serialIndex[lp] = ensureIndex(*ctx->tables[lp], keys);
      }
    }
    if (planMode_ == PlanMode::Explain &&
        explained_.insert({ri, deltaPos}).second) {
      std::cerr << explainPlan(rule, shape, ctx->plan, ctx->deltaLit,
                               litStats);
    }
    return ctx;
  }

  /// Candidate generation — the pure part of one rule application: join
  /// positives over the round snapshot, filter comparisons and
  /// negations, ground heads. Reads only snapshot-bounded table state
  /// (rangeFor), so candidates derived earlier in the round stay
  /// invisible until the next one.
  std::vector<Candidate> collectCandidates(
      const Rule& rule, size_t deltaPos,
      const std::unordered_map<std::string, size_t>& deltaStart,
      const std::unordered_map<std::string, size_t>& fullEnd,
      const std::set<std::string>& thisStratum, const PlanContext* pctx) {
    std::vector<std::string> vars = dl::ruleVariables(rule);
    std::unordered_map<std::string, size_t> slotOf;
    for (size_t i = 0; i < vars.size(); ++i) slotOf[vars[i]] = i;

    std::vector<CFrame> frames{CFrame{std::vector<Value>(vars.size()),
                                      smt::Formula::top()}};
    std::vector<bool> bound(vars.size(), false);

    if (pctx != nullptr && pctx->plan.reordered) {
      frames = plannedEnumerate(rule, *pctx, deltaPos, deltaStart, fullEnd,
                                thisStratum);
    } else {
      size_t litPos = 0;
      for (size_t i = 0; i < rule.body.size() && !frames.empty(); ++i) {
        const dl::Literal& lit = rule.body[i];
        if (lit.negated) continue;
        const rel::CTable* table = findRelation(lit.atom.pred);
        if (table == nullptr) {
          throw EvalError("unknown relation '" + lit.atom.pred + "'");
        }
        const rel::JoinIndex* pidx =
            pctx != nullptr && litPos < pctx->serialIndex.size()
                ? pctx->serialIndex[litPos]
                : nullptr;
        ++litPos;
        Range range = rangeFor(lit.atom.pred, deltaPos, i, deltaStart, fullEnd,
                               thisStratum, *table);
        if (tracer_ != nullptr && tracer_->options().fineSpans) {
          obs::Span join(tracer_, "join");
          join.note("pred", lit.atom.pred);
          joinLiteral(lit.atom, *table, range, slotOf, frames, bound, pidx);
        } else {
          joinLiteral(lit.atom, *table, range, slotOf, frames, bound, pidx);
        }
      }
    }
    if (pctx != nullptr) {
      planStats_.actualRows += frames.size();
    }
    // Explicit comparisons become condition atoms.
    for (const auto& cmp : rule.cmps) {
      std::vector<CFrame> kept;
      for (auto& f : frames) {
        smt::Formula c = comparisonFormula(cmp, f, slotOf);
        smt::Formula cond = smt::Formula::conj2(f.cond, c);
        if (cond.isFalse()) continue;
        f.cond = std::move(cond);
        kept.push_back(std::move(f));
      }
      frames = std::move(kept);
    }
    // Negated literals.
    for (const auto& lit : rule.body) {
      if (!lit.negated) continue;
      applyNegation(lit.atom, slotOf, frames);
    }
    // Ground heads.
    std::vector<Candidate> cands;
    cands.reserve(frames.size());
    for (auto& f : frames) {
      Candidate c;
      c.vals.reserve(rule.head.args.size());
      for (const auto& t : rule.head.args) {
        c.vals.push_back(groundTerm(t, f, slotOf));
      }
      c.cond = std::move(f.cond);
      cands.push_back(std::move(c));
    }
    return cands;
  }

  bool evalRule(size_t ri, const Rule& rule, size_t deltaPos,
                const std::unordered_map<std::string, size_t>& deltaStart,
                const std::unordered_map<std::string, size_t>& fullEnd,
                const std::set<std::string>& thisStratum) {
    obs::Span span;
    if (tracer_ != nullptr) {
      curRule_ = &ruleMetrics(ri);
      span = obs::Span(tracer_, ruleTag(ri));
    }
    std::unique_ptr<PlanContext> pctx =
        planFor(ri, rule, deltaPos, deltaStart, fullEnd, thisStratum);
    std::vector<Candidate> cands = collectCandidates(
        rule, deltaPos, deltaStart, fullEnd, thisStratum, pctx.get());
    bool changed = false;
    rel::CTable& out = idbTable(rule.head.pred, rule.head.args.size());
    for (auto& c : cands) {
      changed |= derive(out, std::move(c.vals), std::move(c.cond));
    }
    curRule_ = nullptr;
    return changed;
  }

  // Budget charging: null guard compiles to a flag test, so the
  // ungoverned path stays hot. A trip aborts the fixpoint via BudgetTrip;
  // everything derived so far remains in idb_ as the partial result.
  void chargeSteps(uint64_t n) {
    if (guard_ != nullptr && !guard_->chargeSteps(n)) throw BudgetTrip{};
  }

  void chargeTuple() {
    if (guard_ != nullptr && !guard_->chargeTuples(1)) throw BudgetTrip{};
  }

  void chargeMemory(uint64_t bytes) {
    if (guard_ != nullptr && !guard_->chargeMemory(bytes)) throw BudgetTrip{};
  }

  /// Appends one candidate unless subsumed or contradictory.
  bool derive(rel::CTable& out, std::vector<Value> vals, smt::Formula cond) {
    if (cond.isFalse()) return false;
    ++stats_.derivations;
    if (curRule_ != nullptr) curRule_->derivations->add();
    chargeTuple();
    // Syntactic subsumption first: most re-derivations repeat a condition
    // (or a weaker conjunction of one) already recorded for the data part.
    smt::Formula existing = out.conditionOf(vals);
    if (smt::impliesSyntactically(cond, existing)) {
      ++stats_.subsumed;
      if (curRule_ != nullptr) curRule_->subsumed->add();
      return false;
    }
    if (opts_.pruneWithSolver) {
      if (solver_->check(cond) == smt::Sat::Unsat) {
        ++stats_.prunedUnsat;
        if (curRule_ != nullptr) curRule_->prunedUnsat->add();
        return false;
      }
    }
    bool smallEnough =
        existing.kind() != smt::Formula::Kind::Or ||
        existing.node().kids.size() <= opts_.maxSubsumptionDisjuncts;
    if (opts_.mergeSubsumption && !existing.isFalse() && smallEnough &&
        solver_->implies(cond, existing)) {
      ++stats_.subsumed;
      if (curRule_ != nullptr) curRule_->subsumed->add();
      return false;
    }
    size_t rowBytes = sizeof(rel::Row) + vals.size() * sizeof(Value);
    bool appended = out.append(std::move(vals), std::move(cond));
    if (appended) {
      ++stats_.inserted;
      if (curRule_ != nullptr) curRule_->inserted->add();
      chargeMemory(rowBytes);
    }
    return appended;
  }

  static Value groundTerm(const Term& t, const CFrame& f,
                          const std::unordered_map<std::string, size_t>&
                              slotOf) {
    switch (t.kind) {
      case Term::Kind::Const:
        return t.constant;
      case Term::Kind::CVar:
        return Value::cvar(t.cvar);
      case Term::Kind::Var:
        return f.vals[slotOf.at(t.var)];
    }
    return t.constant;
  }

  // The c-domain match of two values: the condition under which they are
  // equal (True for equal constants, False for distinct constants, an
  // equality atom when a c-variable is involved).
  static smt::Formula matchValues(const Value& a, const Value& b) {
    return smt::Formula::cmp(a, smt::CmpOp::Eq, b);
  }

  /// `pidx` (planned, unreordered path) is the persistent index over
  /// this literal's key columns: probing it enumerates exactly the rows
  /// the local per-firing index would — same buckets, same ascending
  /// order, filtered to `range` — without the O(range) rebuild. Null
  /// keeps the pristine local-index path.
  void joinLiteral(const dl::Atom& atom, const rel::CTable& table,
                   Range range,
                   const std::unordered_map<std::string, size_t>& slotOf,
                   std::vector<CFrame>& frames, std::vector<bool>& bound,
                   const rel::JoinIndex* pidx = nullptr) {
    struct Pos {
      size_t arg;
      enum Kind { Fixed, BoundVar, FreeVar } kind;
      size_t slot = 0;   // vars
      Value value;       // Fixed: constant or c-variable from the rule
    };
    std::vector<Pos> positions;
    positions.reserve(atom.args.size());
    std::vector<bool> nowBound = bound;
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const Term& t = atom.args[i];
      Pos pos;
      pos.arg = i;
      if (t.isVar()) {
        pos.slot = slotOf.at(t.var);
        if (nowBound[pos.slot]) {
          pos.kind = Pos::BoundVar;
        } else {
          pos.kind = Pos::FreeVar;
          nowBound[pos.slot] = true;
        }
      } else {
        pos.kind = Pos::Fixed;
        pos.value = t.asValue();
      }
      positions.push_back(std::move(pos));
    }

    // Key positions: Fixed constants and variables bound BEFORE this
    // literal. A Fixed position holding a rule c-variable matches any row
    // value, and a variable first bound within this atom has no frame
    // value yet — neither can key the index.
    std::vector<size_t> keyArgs;
    for (const auto& pos : positions) {
      if ((pos.kind == Pos::Fixed && pos.value.isConstant()) ||
          (pos.kind == Pos::BoundVar && bound[pos.slot])) {
        keyArgs.push_back(pos.arg);
      }
    }

    const auto& rows = table.rows();
    std::vector<CFrame> out;

    auto extend = [&](const CFrame& f, const rel::Row& row) {
      chargeSteps(1);
      smt::Formula cond = smt::Formula::conj2(f.cond, row.cond);
      if (cond.isFalse()) return;
      CFrame nf{f.vals, smt::Formula()};
      for (const auto& pos : positions) {
        const Value& v = row.vals[pos.arg];
        Value lhs;
        switch (pos.kind) {
          case Pos::Fixed:
            lhs = pos.value;
            break;
          case Pos::BoundVar:
            lhs = nf.vals[pos.slot];
            break;
          case Pos::FreeVar:
            nf.vals[pos.slot] = v;
            continue;
        }
        smt::Formula eq = matchValues(lhs, v);
        if (eq.isFalse()) return;
        cond = smt::Formula::conj2(cond, eq);
        if (cond.isFalse()) return;
      }
      nf.cond = std::move(cond);
      out.push_back(std::move(nf));
    };

    if (keyArgs.empty()) {
      for (const auto& f : frames) {
        for (size_t r = range.lo; r < range.hi; ++r) extend(f, rows[r]);
      }
    } else if (pidx != nullptr && pidx->keyArgs() == keyArgs &&
               pidx->builtUpTo() >= range.hi) {
      // Persistent-index probe. Bucket and wild lists are ascending, so
      // restricting them to [lo, hi) by binary search enumerates the
      // same rows, in the same order, as the local build below.
      auto forRange = [&](const std::vector<size_t>& list, auto&& fn) {
        auto first = std::lower_bound(list.begin(), list.end(), range.lo);
        auto last = std::lower_bound(first, list.end(), range.hi);
        for (auto it = first; it != last; ++it) fn(*it);
      };
      uint64_t probes = 0;
      uint64_t hits = 0;
      for (const auto& f : frames) {
        bool probeWild = false;
        size_t h = rel::JoinIndex::hashInit();
        for (size_t a : keyArgs) {
          const Pos& pos = positions[a];
          const Value& v =
              pos.kind == Pos::Fixed ? pos.value : f.vals[pos.slot];
          if (v.isCVar()) {
            probeWild = true;
            break;
          }
          h = rel::JoinIndex::hashStep(h, v);
        }
        if (probeWild) {
          for (size_t r = range.lo; r < range.hi; ++r) extend(f, rows[r]);
          continue;
        }
        ++probes;
        if (const std::vector<size_t>* bucket = pidx->bucket(h)) {
          forRange(*bucket, [&](size_t r) {
            ++hits;
            extend(f, rows[r]);
          });
        }
        forRange(pidx->wildRows(), [&](size_t r) { extend(f, rows[r]); });
      }
      planStats_.probes += probes;
      planStats_.hits += hits;
    } else {
      // Rows with a c-variable in any key position match any probe; keep
      // them aside and hash the rest.
      std::unordered_map<size_t, std::vector<size_t>> index;
      std::vector<size_t> wildRows;
      for (size_t r = range.lo; r < range.hi; ++r) {
        bool wild = false;
        size_t h = rel::JoinIndex::hashInit();
        for (size_t a : keyArgs) {
          const Value& v = rows[r].vals[a];
          if (v.isCVar()) {
            wild = true;
            break;
          }
          h = rel::JoinIndex::hashStep(h, v);
        }
        if (wild) {
          wildRows.push_back(r);
        } else {
          index[h].push_back(r);
        }
      }
      for (const auto& f : frames) {
        // A probe value that is itself a c-variable matches any row value,
        // so the index cannot be used for this frame.
        bool probeWild = false;
        size_t h = rel::JoinIndex::hashInit();
        for (size_t a : keyArgs) {
          const Pos& pos = positions[a];
          const Value& v =
              pos.kind == Pos::Fixed ? pos.value : f.vals[pos.slot];
          if (v.isCVar()) {
            probeWild = true;
            break;
          }
          h = rel::JoinIndex::hashStep(h, v);
        }
        if (probeWild) {
          for (size_t r = range.lo; r < range.hi; ++r) extend(f, rows[r]);
          continue;
        }
        auto it = index.find(h);
        if (it != index.end()) {
          for (size_t r : it->second) extend(f, rows[r]);
        }
        for (size_t r : wildRows) extend(f, rows[r]);
      }
    }
    frames = std::move(out);
    bound = nowBound;
  }

  /// Reordered-plan enumeration. Three phases, together byte-identical
  /// to the serial program-order join (DESIGN.md §11):
  ///
  ///  1. Enumerate row combinations in *plan* order, probing persistent
  ///     indexes. Pruning is restricted to conditions that are provably
  ///     serial-fatal: a constant-vs-constant mismatch on a probe column
  ///     (the serial equality atom folds false), and the conjunction of
  ///     the rows' own conditions folding false (Formula::conj's
  ///     false-folding is subset-monotone — a complement pair among a
  ///     subset of serial's conjuncts persists in the full set). Hash
  ///     collisions with equal-looking buckets and wild rows are
  ///     enumerated, never dropped: the combination set is a superset of
  ///     the serial survivors.
  ///  2. Replay each combination through the serial condition sequence
  ///     — program order, the exact conj2/equality-atom chain of
  ///     joinLiteral's extend — which filters the superset down to
  ///     exactly the serial frame set with exactly the serial formulas.
  ///  3. Sort by serial enumeration rank: per literal in program order,
  ///     the row index, with bucket rows ordered before wild rows when
  ///     the serial path would key that literal (serial enumerates its
  ///     per-frame bucket ascending, then wild rows ascending).
  ///     Lexicographic rank order equals serial frame order; ties are
  ///     impossible (distinct row tuples).
  ///
  /// Step budget: one charge per row attempted in phase 1, none in the
  /// replay — under a reordered plan the charge stream intentionally
  /// tracks the *physical* work, so budget trip points may differ from
  /// plan=off (results never do; the determinism matrix runs
  /// unbudgeted).
  std::vector<CFrame> plannedEnumerate(
      const Rule& rule, const PlanContext& ctx, size_t deltaPos,
      const std::unordered_map<std::string, size_t>& deltaStart,
      const std::unordered_map<std::string, size_t>& fullEnd,
      const std::set<std::string>& thisStratum) {
    const RuleShape& shape = *ctx.shape;
    size_t nLits = shape.lits.size();

    struct Combo {
      std::vector<size_t> rows;  // by literal position, program order
      smt::Formula acc;          // conjunction of the rows' conditions
    };
    std::vector<Combo> combos{
        Combo{std::vector<size_t>(nLits, SIZE_MAX), smt::Formula::top()}};

    uint64_t probes = 0;
    uint64_t hits = 0;
    auto forRange = [](const std::vector<size_t>& list, Range range,
                      auto&& fn) {
      auto first = std::lower_bound(list.begin(), list.end(), range.lo);
      auto last = std::lower_bound(first, list.end(), range.hi);
      for (auto it = first; it != last; ++it) fn(*it);
    };

    for (size_t step = 0; step < ctx.plan.order.size() && !combos.empty();
         ++step) {
      const PlannedLiteral& pl = ctx.plan.order[step];
      const RuleShape::LitShape& ls = shape.lits[pl.lit];
      const rel::CTable& table = *ctx.tables[pl.lit];
      const auto& rows = table.rows();
      const dl::Literal& lit = rule.body[ls.body];
      Range range = rangeFor(lit.atom.pred, deltaPos, ls.body, deltaStart,
                             fullEnd, thisStratum, table);
      const rel::JoinIndex* idx = ctx.stepIndex[step];

      std::vector<Combo> next;
      std::vector<const Value*> probeVals(pl.probes.size());
      for (const Combo& c : combos) {
        bool wildProbe = pl.probes.empty();
        for (size_t i = 0; i < pl.probes.size(); ++i) {
          const PlannedProbe& p = pl.probes[i];
          probeVals[i] =
              p.fixed ? &p.fixedValue
                      : &ctx.tables[p.srcLit]->rows()[c.rows[p.srcLit]]
                             .vals[p.srcArg];
          if (probeVals[i]->isCVar()) wildProbe = true;
        }
        auto tryRow = [&](size_t r) {
          chargeSteps(1);
          const rel::Row& row = rows[r];
          for (size_t i = 0; i < pl.probes.size(); ++i) {
            const Value& pv = *probeVals[i];
            const Value& rv = row.vals[pl.probes[i].arg];
            // Constant mismatch on a probe column: the serial equality
            // atom folds false — provably serial-fatal, safe to drop.
            if (pv.isConstant() && rv.isConstant() && !(pv == rv)) return;
          }
          smt::Formula acc = smt::Formula::conj2(c.acc, row.cond);
          if (acc.isFalse()) return;  // subset-monotone: serial folds too
          Combo nc;
          nc.rows = c.rows;
          nc.rows[pl.lit] = r;
          nc.acc = std::move(acc);
          next.push_back(std::move(nc));
        };
        if (wildProbe || idx == nullptr) {
          for (size_t r = range.lo; r < range.hi; ++r) tryRow(r);
        } else {
          ++probes;
          size_t h = rel::JoinIndex::hashInit();
          for (const Value* v : probeVals) {
            h = rel::JoinIndex::hashStep(h, *v);
          }
          if (const std::vector<size_t>* bucket = idx->bucket(h)) {
            forRange(*bucket, range, [&](size_t r) {
              ++hits;
              tryRow(r);
            });
          }
          forRange(idx->wildRows(), range, [&](size_t r) { tryRow(r); });
        }
      }
      combos = std::move(next);
    }
    planStats_.probes += probes;
    planStats_.hits += hits;

    // Phase 2 + 3: serial replay, then canonical sort.
    struct Built {
      CFrame frame;
      std::vector<uint64_t> rank;
    };
    std::vector<Built> built;
    built.reserve(combos.size());
    for (const Combo& c : combos) {
      Built b;
      b.frame =
          CFrame{std::vector<Value>(shape.slotCount), smt::Formula::top()};
      b.rank.reserve(nLits);
      bool alive = true;
      for (size_t lp = 0; lp < nLits && alive; ++lp) {
        const RuleShape::LitShape& ls = shape.lits[lp];
        const rel::Row& row = ctx.tables[lp]->rows()[c.rows[lp]];
        // Rank before binding: serial keys this literal on values the
        // frame holds *entering* the literal.
        uint64_t rk = c.rows[lp];
        if (!ls.serialKeyArgs.empty()) {
          bool probeWild = false;
          for (size_t a : ls.serialKeyArgs) {
            const RuleShape::Arg& arg = ls.args[a];
            const Value& v = arg.kind == RuleShape::Arg::Kind::Fixed
                                 ? arg.value
                                 : b.frame.vals[arg.slot];
            if (v.isCVar()) {
              probeWild = true;
              break;
            }
          }
          if (!probeWild) {
            for (size_t a : ls.serialKeyArgs) {
              if (row.vals[a].isCVar()) {
                rk |= uint64_t{1} << 63;
                break;
              }
            }
          }
        }
        b.rank.push_back(rk);
        // Serial extend replay: the exact conj2 sequence of joinLiteral.
        smt::Formula cond = smt::Formula::conj2(b.frame.cond, row.cond);
        if (cond.isFalse()) {
          alive = false;
          break;
        }
        for (size_t a = 0; a < ls.args.size() && alive; ++a) {
          const RuleShape::Arg& arg = ls.args[a];
          const Value& v = row.vals[a];
          Value lhs;
          switch (arg.kind) {
            case RuleShape::Arg::Kind::Fixed:
              lhs = arg.value;
              break;
            case RuleShape::Arg::Kind::BoundVar:
              lhs = b.frame.vals[arg.slot];
              break;
            case RuleShape::Arg::Kind::FreeVar:
              b.frame.vals[arg.slot] = v;
              continue;
          }
          smt::Formula eq = matchValues(lhs, v);
          if (eq.isFalse()) {
            alive = false;
            break;
          }
          cond = smt::Formula::conj2(cond, eq);
          if (cond.isFalse()) alive = false;
        }
        if (alive) b.frame.cond = std::move(cond);
      }
      if (alive) built.push_back(std::move(b));
    }
    std::sort(built.begin(), built.end(),
              [](const Built& a, const Built& b) { return a.rank < b.rank; });
    std::vector<CFrame> frames;
    frames.reserve(built.size());
    for (Built& b : built) frames.push_back(std::move(b.frame));
    return frames;
  }

  smt::Formula comparisonFormula(
      const dl::Comparison& cmp, const CFrame& f,
      const std::unordered_map<std::string, size_t>& slotOf) {
    auto single = [&](const dl::LinExpr& e) -> std::optional<Value> {
      if (e.isSingleTerm()) return groundTerm(e.terms[0].first, f, slotOf);
      return std::nullopt;
    };
    std::optional<Value> lv = single(cmp.lhs);
    std::optional<Value> rv = single(cmp.rhs);
    if (lv && rv) return smt::Formula::cmp(*lv, cmp.op, *rv);
    // Arithmetic comparison: lhs - rhs  op  0 over integer values and
    // integer-typed c-variables.
    smt::LinTerm diff;
    auto accumulate = [&](const dl::LinExpr& e, int64_t sign) {
      diff.cst += sign * e.cst;
      std::vector<std::pair<CVarId, int64_t>> entries = diff.coefs;
      for (const auto& [t, c] : e.terms) {
        Value v = groundTerm(t, f, slotOf);
        if (v.isCVar()) {
          entries.emplace_back(v.asCVar(), sign * c);
        } else if (v.kind() == Value::Kind::Int) {
          diff.cst += sign * c * v.asInt();
        } else {
          throw TypeError("arithmetic on non-integer value " + v.toString());
        }
      }
      diff = smt::LinTerm::make(std::move(entries), diff.cst);
    };
    accumulate(cmp.lhs, 1);
    accumulate(cmp.rhs, -1);
    return smt::Formula::lin(std::move(diff), cmp.op);
  }

  void applyNegation(const dl::Atom& atom,
                     const std::unordered_map<std::string, size_t>& slotOf,
                     std::vector<CFrame>& frames) {
    if (opts_.openWorldNegation != nullptr) {
      applyOpenWorldNegation(atom, slotOf, frames);
      return;
    }
    const rel::CTable* table = findRelation(atom.pred);
    std::vector<CFrame> kept;
    for (auto& f : frames) {
      std::vector<Value> probe;
      probe.reserve(atom.args.size());
      for (const auto& t : atom.args) probe.push_back(groundTerm(t, f, slotOf));
      smt::Formula cond = f.cond;
      if (table != nullptr) {
        for (const auto& row : table->rows()) {
          chargeSteps(1);
          smt::Formula eq = rel::tupleEquality(probe, row.vals);
          if (eq.isFalse()) continue;
          cond = smt::Formula::conj2(
              cond, smt::Formula::neg(smt::Formula::conj2(row.cond, eq)));
          if (cond.isFalse()) break;
        }
      }
      if (cond.isFalse()) continue;
      f.cond = std::move(cond);
      kept.push_back(std::move(f));
    }
    frames = std::move(kept);
  }

  // Open-world negation (containment reduction, §5): ¬B(u) holds exactly
  // when u coincides with a listed negative fact of B.
  void applyOpenWorldNegation(
      const dl::Atom& atom,
      const std::unordered_map<std::string, size_t>& slotOf,
      std::vector<CFrame>& frames) {
    const auto& facts = opts_.openWorldNegation->facts;
    auto it = facts.find(atom.pred);
    std::vector<CFrame> kept;
    for (auto& f : frames) {
      if (it == facts.end()) continue;  // nothing known absent: frame dies
      std::vector<Value> probe;
      probe.reserve(atom.args.size());
      for (const auto& t : atom.args) probe.push_back(groundTerm(t, f, slotOf));
      std::vector<smt::Formula> matches;
      for (const auto& fact : it->second) {
        if (fact.size() != probe.size()) {
          throw EvalError("negative fact arity mismatch for '" + atom.pred +
                          "'");
        }
        smt::Formula eq = rel::tupleEquality(probe, fact);
        if (!eq.isFalse()) matches.push_back(std::move(eq));
      }
      smt::Formula cond =
          smt::Formula::conj2(f.cond, smt::Formula::disj(std::move(matches)));
      if (cond.isFalse()) continue;
      f.cond = std::move(cond);
      kept.push_back(std::move(f));
    }
    frames = std::move(kept);
  }

  // ---- observability (no-ops when tracer_ is null) ----

  /// Per-rule registry handles, resolved once per rule index so the hot
  /// derive() path is pointer bumps, not name lookups.
  struct RuleMetrics {
    obs::Counter* derivations = nullptr;
    obs::Counter* inserted = nullptr;
    obs::Counter* prunedUnsat = nullptr;
    obs::Counter* subsumed = nullptr;
  };

  /// Stable display tag for rule `ri`, e.g. "rule[2:Reach]".
  const std::string& ruleTag(size_t ri) {
    if (ruleTags_.empty()) ruleTags_.resize(p_.rules.size());
    std::string& tag = ruleTags_[ri];
    if (tag.empty()) {
      tag = "rule[" + std::to_string(ri) + ":" + p_.rules[ri].head.pred + "]";
    }
    return tag;
  }

  RuleMetrics& ruleMetrics(size_t ri) {
    if (ruleMetrics_.empty()) ruleMetrics_.resize(p_.rules.size());
    RuleMetrics& m = ruleMetrics_[ri];
    if (m.derivations == nullptr) {
      obs::Registry& reg = tracer_->metrics();
      const std::string base = "eval." + ruleTag(ri) + ".";
      m.derivations = &reg.counter(base + "derivations");
      m.inserted = &reg.counter(base + "inserted");
      m.prunedUnsat = &reg.counter(base + "pruned_unsat");
      m.subsumed = &reg.counter(base + "subsumed");
    }
    return m;
  }

  /// Mirrors the aggregate EvalStats into the registry (`eval.*`). The
  /// per-rule and per-stratum counters accumulate live; the aggregates
  /// flush once per evaluation so both views stay consistent.
  void flushMetrics(bool degraded) {
    if (tracer_ == nullptr) return;
    obs::Registry& reg = tracer_->metrics();
    reg.counter("eval.evaluations").add();
    reg.counter("eval.derivations").add(stats_.derivations);
    reg.counter("eval.inserted").add(stats_.inserted);
    reg.counter("eval.pruned_unsat").add(stats_.prunedUnsat);
    reg.counter("eval.subsumed").add(stats_.subsumed);
    reg.counter("eval.rounds").add(stats_.iterations);
    reg.counter("eval.budget_trips").add(stats_.budgetTrips);
    if (degraded) reg.counter("eval.incomplete").add();
    reg.histogram("eval.sql_seconds").observe(stats_.sqlSeconds);
    reg.histogram("eval.solver_seconds").observe(stats_.solverSeconds);
    // Join-planner totals (DESIGN.md §11). Physical: which indexes get
    // built and how many probes hit depends on the plan, and the whole
    // point of the planner is to change physical work — the determinism
    // gate normalizes eval.plan.* away.
    if (planMode_ != PlanMode::Off) {
      reg.counter("eval.plan.plans").add(planStats_.plans);
      reg.counter("eval.plan.reorders").add(planStats_.reorders);
      reg.counter("eval.plan.index_builds").add(planStats_.indexBuilds);
      reg.counter("eval.plan.index_extensions")
          .add(planStats_.indexExtensions);
      reg.counter("eval.plan.probes").add(planStats_.probes);
      reg.counter("eval.plan.hits").add(planStats_.hits);
      reg.counter("eval.plan.est_rows").add(planStats_.estRows);
      reg.counter("eval.plan.actual_rows").add(planStats_.actualRows);
    }
    // Verdict-cache deltas for this evaluation. Physical — which lookup
    // misses depends on what earlier evaluations sharing the cache
    // decided — so the determinism gate normalizes solver.cache.* away;
    // hit *verdicts* are deterministic.
    if (cache_ != nullptr) {
      smt::VerdictCache::Stats cs = cache_->stats();
      reg.counter("solver.cache.hits").add(cs.hits - cacheBefore_.hits);
      reg.counter("solver.cache.misses").add(cs.misses - cacheBefore_.misses);
      reg.counter("solver.cache.evictions")
          .add(cs.evictions - cacheBefore_.evictions);
      reg.gauge("solver.cache.entries").set(static_cast<double>(cs.entries));
    }
  }

  const Program& p_;
  const rel::Database& db_;
  smt::SolverBase* solver_;
  EvalOptions opts_;
  StrataPlan* plan_ = nullptr;  // selective re-evaluation (incremental.hpp)
  ResourceGuard* guard_;
  obs::Tracer* tracer_;
  EvalStats stats_;
  std::map<std::string, rel::CTable> idb_;
  std::vector<std::string> ruleTags_;
  std::vector<RuleMetrics> ruleMetrics_;
  RuleMetrics* curRule_ = nullptr;  // set around derive() by evalRule

  // The main solver's verdict cache (null when none attached), with its
  // stats snapshot at construction so flushMetrics reports this
  // evaluation's deltas.
  smt::VerdictCache* cache_ = nullptr;
  smt::VerdictCache::Stats cacheBefore_;

  // Cost-based planning (plan.hpp, DESIGN.md §11). Shapes are static
  // per rule; explained_ limits EXPLAIN output to one dump per (rule,
  // delta position) per evaluation.
  PlanMode planMode_ = PlanMode::Off;
  std::vector<std::optional<RuleShape>> shapes_;
  std::set<std::pair<size_t, size_t>> explained_;
  struct PlanCounters {
    uint64_t plans = 0;
    uint64_t reorders = 0;
    uint64_t indexBuilds = 0;
    uint64_t indexExtensions = 0;
    uint64_t estRows = 0;
    uint64_t probes = 0;
    uint64_t hits = 0;
    uint64_t actualRows = 0;
  } planStats_;
};

}  // namespace

size_t resolveThreads(const EvalOptions& opts) {
  unsigned long t = 1;
  if (opts.threads.has_value()) {
    t = *opts.threads;
  } else if (const char* env = std::getenv("FAURE_THREADS");
             env != nullptr && *env != '\0') {
    t = std::strtoul(env, nullptr, 10);
  }
  if (t == 0) return util::ThreadPool::hardwareConcurrency();
  return static_cast<size_t>(t);
}

EvalResult evalFaure(const dl::Program& p, const rel::Database& db,
                     smt::SolverBase* solver, const EvalOptions& opts) {
  return FaureEvaluator(p, db, solver, opts).run();
}

EvalResult evalFaure(const dl::Program& p, const rel::Database& db) {
  smt::NativeSolver solver(db.cvars());
  return evalFaure(p, db, &solver, EvalOptions{});
}

EvalResult evalFaurePlanned(const dl::Program& p, const rel::Database& db,
                            smt::SolverBase* solver, const EvalOptions& opts,
                            StrataPlan plan) {
  return FaureEvaluator(p, db, solver, opts, &plan).run();
}

}  // namespace faure::fl
