#include "verify/containment.hpp"

#include <memory>
#include <set>
#include <unordered_map>

#include "faurelog/eval.hpp"
#include "smt/solver_stack.hpp"
#include "util/error.hpp"
#include "verify/unfold.hpp"

namespace faure::verify {

namespace {

using dl::Comparison;
using dl::LinExpr;
using dl::Rule;
using dl::Term;

/// Maps a flat rule's terms into the c-domain: constants stay, the rule's
/// own c-variables stay (they denote the state's unknowns), and program
/// variables freeze to fresh c-variables.
class Freezer {
 public:
  explicit Freezer(CVarRegistry& reg) : reg_(reg) {}

  Value map(const Term& t) {
    switch (t.kind) {
      case Term::Kind::Const:
        return t.constant;
      case Term::Kind::CVar:
        return Value::cvar(t.cvar);
      case Term::Kind::Var: {
        auto it = frozen_.find(t.var);
        if (it != frozen_.end()) return Value::cvar(it->second);
        CVarId id = reg_.declareFresh(t.var + "$f", ValueType::Any);
        frozen_.emplace(t.var, id);
        return Value::cvar(id);
      }
    }
    return t.constant;
  }

 private:
  CVarRegistry& reg_;
  std::unordered_map<std::string, CVarId> frozen_;
};

smt::Formula linToFormula(const Comparison& cmp, Freezer& fz) {
  auto single = [&](const LinExpr& e) -> std::optional<Value> {
    if (e.isSingleTerm()) return fz.map(e.terms[0].first);
    return std::nullopt;
  };
  std::optional<Value> lv = single(cmp.lhs);
  std::optional<Value> rv = single(cmp.rhs);
  if (lv && rv) return smt::Formula::cmp(*lv, cmp.op, *rv);
  smt::LinTerm diff;
  std::vector<std::pair<CVarId, int64_t>> entries;
  auto accumulate = [&](const LinExpr& e, int64_t sign) {
    diff.cst += sign * e.cst;
    for (const auto& [t, c] : e.terms) {
      Value v = fz.map(t);
      if (v.isCVar()) {
        entries.emplace_back(v.asCVar(), sign * c);
      } else if (v.kind() == Value::Kind::Int) {
        diff.cst += sign * c * v.asInt();
      } else {
        throw TypeError("arithmetic on non-integer constant in constraint");
      }
    }
  };
  accumulate(cmp.lhs, 1);
  accumulate(cmp.rhs, -1);
  return smt::Formula::lin(smt::LinTerm::make(std::move(entries), diff.cst),
                           cmp.op);
}

rel::Schema anySchema(const std::string& name, size_t arity) {
  std::vector<rel::Attribute> attrs(arity);
  for (size_t i = 0; i < arity; ++i) {
    attrs[i] = rel::Attribute{"a" + std::to_string(i), ValueType::Any};
  }
  return rel::Schema(name, attrs);
}

/// Checks coverage of one frozen target rule by the constraint union.
/// Sets *incomplete when a resource budget tripped before the answer was
/// decided (the returned "false" then means UNKNOWN, not uncovered).
bool ruleCovered(const Rule& r, const dl::Program& constraintUnion,
                 const CVarRegistry& srcReg,
                 const SubsumptionOptions& opts, bool* incomplete) {
  rel::Database canonical;
  canonical.cvars() = srcReg;  // preserve c-var ids, types and domains
  Freezer fz(canonical.cvars());

  fl::NegativeFacts negatives;
  std::vector<smt::Formula> premiseParts;

  for (const auto& lit : r.body) {
    std::vector<Value> vals;
    vals.reserve(lit.atom.args.size());
    for (const auto& t : lit.atom.args) vals.push_back(fz.map(t));
    if (lit.negated) {
      negatives.facts[lit.atom.pred].push_back(std::move(vals));
    } else {
      if (!canonical.has(lit.atom.pred)) {
        canonical.create(anySchema(lit.atom.pred, lit.atom.args.size()));
      }
      canonical.table(lit.atom.pred).insert(std::move(vals));
    }
  }
  for (const auto& cmp : r.cmps) premiseParts.push_back(linToFormula(cmp, fz));
  smt::Formula premise = smt::Formula::conj(std::move(premiseParts));

  // Relations the constraints read positively but the canonical database
  // does not mention are empty, not unknown.
  std::set<std::string> idb;
  for (const auto& rule : constraintUnion.rules) idb.insert(rule.head.pred);
  for (const auto& rule : constraintUnion.rules) {
    for (const auto& lit : rule.body) {
      if (!lit.negated && idb.count(lit.atom.pred) == 0 &&
          !canonical.has(lit.atom.pred)) {
        canonical.create(anySchema(lit.atom.pred, lit.atom.args.size()));
      }
    }
  }

  // Universal variables: everything the frozen rule itself mentions.
  std::vector<CVarId> universal;
  for (const auto& [name, table] : canonical.tables()) {
    (void)name;
    for (CVarId v : table.collectVars()) universal.push_back(v);
  }
  for (const auto& [pred, facts] : negatives.facts) {
    (void)pred;
    for (const auto& fact : facts) {
      for (const Value& v : fact) {
        if (v.isCVar()) universal.push_back(v.asCVar());
      }
    }
  }
  premise.collectVars(universal);

  // The canonical database clones the source registry and then freezes
  // rule-local variables into it, so a session-level cache (bound to the
  // *source* registry) cannot be shared here; a rule-local cache still
  // amortizes the repeated conditions of the constraint-union fixpoint
  // and the final premise-implication below.
  smt::SolverStackOptions stackOpts;
  stackOpts.native = opts.solverOptions;
  if (opts.solverCacheCapacity) {
    stackOpts.cacheEntries = *opts.solverCacheCapacity;
  }
  smt::SolverStack stack = smt::buildSolverStack(canonical.cvars(), stackOpts);
  smt::SolverBase& solver = *stack.solver;
  solver.setGuard(opts.guard);
  solver.setTracer(opts.tracer);
  if (solver.check(premise) == smt::Sat::Unsat) {
    return true;  // the target rule can never fire: vacuously covered
  }

  fl::EvalOptions evalOpts;
  evalOpts.openWorldNegation = &negatives;
  evalOpts.guard = opts.guard;
  evalOpts.tracer = opts.tracer;
  auto res = fl::evalFaure(constraintUnion, canonical, &solver, evalOpts);
  if (res.incomplete) {
    *incomplete = true;
    return false;
  }

  smt::Formula phi;
  if (!res.derived(Constraint::kGoal, &phi)) return false;

  // Constraint-local c-variables are rule-scoped existentials.
  std::vector<CVarId> phiVars;
  phi.collectVars(phiVars);
  std::vector<CVarId> existential;
  for (CVarId v : phiVars) {
    bool isUniversal = false;
    for (CVarId u : universal) {
      if (u == v) isUniversal = true;
    }
    if (!isUniversal) existential.push_back(v);
  }
  smt::Formula projected =
      smt::projectExistentials(phi, existential, canonical.cvars());
  bool covered = solver.implies(premise, projected);
  if (!covered && opts.guard != nullptr && opts.guard->tripped()) {
    *incomplete = true;
  }
  return covered;
}

}  // namespace

SubsumptionResult subsumes(const Constraint& target,
                           const std::vector<Constraint>& constraints,
                           const CVarRegistry& srcReg,
                           const SubsumptionOptions& opts) {
  dl::Program constraintUnion;
  for (const auto& c : constraints) {
    constraintUnion = dl::Program::concat(constraintUnion, c.program);
  }
  std::vector<Rule> flat =
      unfoldGoalRules(target.program, Constraint::kGoal, opts.maxUnfoldRules);

  obs::Span span(opts.tracer, "verify.subsumption");
  if (span) {
    span.note("target", target.name);
    span.note("goal_rules", std::to_string(flat.size()));
  }

  SubsumptionResult result;
  for (size_t i = 0; i < flat.size(); ++i) {
    obs::Span ruleSpan;
    if (opts.tracer != nullptr) {
      ruleSpan = obs::Span(opts.tracer,
                           "verify.rule[" + std::to_string(i) + "]");
    }
    bool incomplete = false;
    bool covered =
        ruleCovered(flat[i], constraintUnion, srcReg, opts, &incomplete);
    if (ruleSpan) {
      ruleSpan.note("covered", covered ? "true" : "false");
      if (incomplete) ruleSpan.note("incomplete", "true");
    }
    if (!covered) {
      result.subsumed = false;
      result.uncoveredRule = i;
      result.witness = flat[i];
      result.incomplete = incomplete;
      if (incomplete && opts.guard != nullptr) {
        result.reason = opts.guard->reason();
      }
      if (span) span.note("subsumed", incomplete ? "unknown" : "false");
      return result;
    }
  }
  result.subsumed = true;
  if (span) span.note("subsumed", "true");
  return result;
}

}  // namespace faure::verify
