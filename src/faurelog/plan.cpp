#include "faurelog/plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace faure::fl {

PlanMode resolvePlanMode(const std::optional<PlanMode>& opt) {
  if (opt.has_value()) return *opt;
  const char* env = std::getenv("FAURE_PLAN");
  if (env == nullptr || *env == '\0') return PlanMode::On;
  if (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0 ||
      std::strcmp(env, "false") == 0) {
    return PlanMode::Off;
  }
  if (std::strcmp(env, "explain") == 0) return PlanMode::Explain;
  return PlanMode::On;
}

RuleShape RuleShape::analyze(
    const dl::Rule& rule,
    const std::unordered_map<std::string, size_t>& slotOf) {
  RuleShape shape;
  shape.slotCount = slotOf.size();
  shape.binders.resize(shape.slotCount);
  shape.occurrences.resize(shape.slotCount);
  // Replay the serial evaluator's bound-variable progression so every
  // Arg::Kind matches joinLiteral's Pos::Kind exactly.
  std::vector<bool> bound(shape.slotCount, false);
  for (size_t bi = 0; bi < rule.body.size(); ++bi) {
    const dl::Literal& lit = rule.body[bi];
    if (lit.negated) continue;
    LitShape ls;
    ls.body = bi;
    size_t litPos = shape.lits.size();
    std::vector<bool> nowBound = bound;
    for (size_t a = 0; a < lit.atom.args.size(); ++a) {
      const dl::Term& t = lit.atom.args[a];
      Arg arg;
      if (t.isVar()) {
        arg.slot = slotOf.at(t.var);
        shape.occurrences[arg.slot].emplace_back(litPos, a);
        if (nowBound[arg.slot]) {
          arg.kind = Arg::Kind::BoundVar;
          arg.boundBefore = bound[arg.slot];
        } else {
          arg.kind = Arg::Kind::FreeVar;
          nowBound[arg.slot] = true;
          shape.binders[arg.slot] = Binder{litPos, a};
        }
      } else {
        arg.kind = Arg::Kind::Fixed;
        arg.value = t.asValue();
      }
      if ((arg.kind == Arg::Kind::Fixed && arg.value.isConstant()) ||
          (arg.kind == Arg::Kind::BoundVar && arg.boundBefore)) {
        ls.serialKeyArgs.push_back(a);
      }
      ls.args.push_back(std::move(arg));
    }
    bound = nowBound;
    shape.lits.push_back(std::move(ls));
  }
  return shape;
}

namespace {

/// Probe columns available for literal `lit` given the literals already
/// placed (`placed`, visit order; `visited` flags by literal position).
/// Implements the star-shape rules from the header comment.
std::vector<PlannedProbe> probesFor(const RuleShape& shape, size_t lit,
                                    const std::vector<size_t>& placed,
                                    const std::vector<bool>& visited) {
  std::vector<PlannedProbe> probes;
  const RuleShape::LitShape& ls = shape.lits[lit];
  for (size_t a = 0; a < ls.args.size(); ++a) {
    const RuleShape::Arg& arg = ls.args[a];
    PlannedProbe probe;
    probe.arg = a;
    switch (arg.kind) {
      case RuleShape::Arg::Kind::Fixed:
        // A fixed rule c-variable matches any row value — no filter.
        if (!arg.value.isConstant()) continue;
        probe.fixed = true;
        probe.fixedValue = arg.value;
        break;
      case RuleShape::Arg::Kind::BoundVar: {
        // Serial atom here: eq(binder value, row value). Only the
        // binder row can feed the probe; a same-literal earlier
        // occurrence (boundBefore == false) binds from this very row.
        const RuleShape::Binder& b = shape.binders[arg.slot];
        if (!arg.boundBefore || !visited[b.lit]) continue;
        probe.srcLit = b.lit;
        probe.srcArg = b.arg;
        break;
      }
      case RuleShape::Arg::Kind::FreeVar: {
        // This is the binder occurrence. Serial atoms link it to every
        // later occurrence, so any placed occurrence works (equality is
        // symmetric); pick the first in visit order for determinism.
        bool found = false;
        for (size_t j : placed) {
          if (j == lit) continue;
          for (const auto& [ol, oa] : shape.occurrences[arg.slot]) {
            if (ol == j) {
              probe.srcLit = ol;
              probe.srcArg = oa;
              found = true;
              break;
            }
          }
          if (found) break;
        }
        if (!found) continue;
        break;
      }
    }
    probes.push_back(std::move(probe));
  }
  return probes;
}

double estimateRows(const RuleShape& shape, size_t lit,
                    const std::vector<PlannedProbe>& probes,
                    const std::vector<LitStats>& stats, bool* fromIndex) {
  (void)shape;
  double n = static_cast<double>(stats[lit].rangeRows);
  *fromIndex = false;
  if (probes.empty()) return n;
  std::vector<size_t> keyArgs;
  keyArgs.reserve(probes.size());
  for (const auto& p : probes) keyArgs.push_back(p.arg);
  const rel::CTable* table = stats[lit].table;
  rel::JoinIndexStats idx;
  if (table != nullptr && table->joinIndexStats(keyArgs, idx) &&
      idx.builtUpTo > 0) {
    // Live statistics: expected bucket size plus the wild rows every
    // probe must visit, scaled to the fraction of the table in range.
    double avgBucket = static_cast<double>(idx.indexedRows) /
                       static_cast<double>(std::max<size_t>(1, idx.bucketCount));
    double est = (avgBucket + static_cast<double>(idx.wildCount)) *
                 (n / static_cast<double>(idx.builtUpTo));
    *fromIndex = true;
    return est;
  }
  // Heuristic: each bound key column divides the candidate rows by 4.
  return n / std::pow(4.0, static_cast<double>(probes.size()));
}

}  // namespace

RulePlan planRule(const RuleShape& shape, size_t deltaLit,
                  const std::vector<LitStats>& stats) {
  RulePlan plan;
  size_t count = shape.lits.size();
  std::vector<bool> visited(count, false);
  std::vector<size_t> placed;
  placed.reserve(count);

  auto place = [&](size_t lit) {
    PlannedLiteral pl;
    pl.lit = lit;
    pl.probes = probesFor(shape, lit, placed, visited);
    for (const auto& p : pl.probes) pl.keyArgs.push_back(p.arg);
    pl.estRows =
        estimateRows(shape, lit, pl.probes, stats, &pl.fromIndexStats);
    visited[lit] = true;
    placed.push_back(lit);
    plan.order.push_back(std::move(pl));
  };

  // Delta-aware pinning: the semi-naive delta literal drives the
  // firing; everything else joins against it.
  if (deltaLit != SIZE_MAX) place(deltaLit);

  while (placed.size() < count) {
    size_t best = SIZE_MAX;
    double bestEst = 0.0;
    for (size_t i = 0; i < count; ++i) {
      if (visited[i]) continue;
      bool fromIndex = false;
      std::vector<PlannedProbe> probes = probesFor(shape, i, placed, visited);
      double est = estimateRows(shape, i, probes, stats, &fromIndex);
      // Strict < keeps the lowest literal position on ties, which biases
      // toward program order (and hence the cheap unreordered path).
      if (best == SIZE_MAX || est < bestEst) {
        best = i;
        bestEst = est;
      }
    }
    place(best);
  }

  for (size_t i = 0; i < plan.order.size(); ++i) {
    if (plan.order[i].lit != i) {
      plan.reordered = true;
      break;
    }
  }
  return plan;
}

std::string explainPlan(const dl::Rule& rule, const RuleShape& shape,
                        const RulePlan& plan, size_t deltaLit,
                        const std::vector<LitStats>& stats) {
  std::string out = "plan " + rule.head.toString() + " :- ... ";
  out += plan.reordered ? "[reordered]" : "[program order]";
  if (deltaLit != SIZE_MAX) {
    out += " delta=" +
           rule.body[shape.lits[deltaLit].body].atom.toString();
  }
  out += "\n";
  for (size_t step = 0; step < plan.order.size(); ++step) {
    const PlannedLiteral& pl = plan.order[step];
    const dl::Atom& atom = rule.body[shape.lits[pl.lit].body].atom;
    out += "  " + std::to_string(step + 1) + ". " + atom.toString();
    out += " rows=" + std::to_string(stats[pl.lit].rangeRows);
    if (pl.probes.empty()) {
      out += " scan";
    } else {
      out += " probe[";
      for (size_t i = 0; i < pl.probes.size(); ++i) {
        const PlannedProbe& p = pl.probes[i];
        if (i > 0) out += ",";
        out += "arg" + std::to_string(p.arg) + "=";
        if (p.fixed) {
          out += p.fixedValue.toString();
        } else {
          const dl::Atom& src =
              rule.body[shape.lits[p.srcLit].body].atom;
          out += src.pred + ".arg" + std::to_string(p.srcArg);
        }
      }
      out += "]";
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f", pl.estRows);
    out += " est=" + std::string(buf);
    out += pl.fromIndexStats ? " (index stats)" : " (heuristic)";
    out += "\n";
  }
  return out;
}

}  // namespace faure::fl
