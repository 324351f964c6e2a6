#include "smt/transform.hpp"

#include <forward_list>

#include "util/error.hpp"

namespace faure::smt {

namespace {

Value substValue(const Value& v, const Assignment& a) {
  if (!v.isCVar()) return v;
  auto it = a.find(v.asCVar());
  return it == a.end() ? v : it->second;
}

}  // namespace

Formula substitute(const Formula& f, const Assignment& a) {
  const auto& n = f.node();
  switch (n.kind) {
    case FormulaNode::Kind::True:
    case FormulaNode::Kind::False:
      return f;
    case FormulaNode::Kind::Cmp:
      return Formula::cmp(substValue(n.lhs, a), n.op, substValue(n.rhs, a));
    case FormulaNode::Kind::Lin: {
      LinTerm t;
      t.cst = n.lin.cst;
      std::vector<std::pair<CVarId, int64_t>> entries;
      for (const auto& [v, c] : n.lin.coefs) {
        auto it = a.find(v);
        if (it == a.end()) {
          entries.emplace_back(v, c);
        } else {
          if (it->second.kind() != Value::Kind::Int) {
            throw TypeError(
                "linear condition variable assigned a non-integer value");
          }
          t.cst += c * it->second.asInt();
        }
      }
      LinTerm folded = LinTerm::make(std::move(entries), t.cst);
      return Formula::lin(std::move(folded), n.op);
    }
    case FormulaNode::Kind::Not:
      return Formula::neg(substitute(n.kids[0], a));
    case FormulaNode::Kind::And:
    case FormulaNode::Kind::Or: {
      std::vector<Formula> kids;
      kids.reserve(n.kids.size());
      for (const auto& k : n.kids) kids.push_back(substitute(k, a));
      return n.kind == FormulaNode::Kind::And ? Formula::conj(std::move(kids))
                                              : Formula::disj(std::move(kids));
    }
  }
  return f;
}

namespace {

// Recursive DNF with a cube-count budget. Returns false when the budget is
// exhausted.
bool dnfRec(const Formula& f, std::vector<Cube>& out, size_t maxCubes) {
  const auto& n = f.node();
  switch (n.kind) {
    case FormulaNode::Kind::False:
      return true;  // contributes no cube
    case FormulaNode::Kind::True:
    case FormulaNode::Kind::Cmp:
    case FormulaNode::Kind::Lin:
      if (out.size() >= maxCubes) return false;
      out.push_back(Cube{f});
      return true;
    case FormulaNode::Kind::Not:
      // Factory-built formulas are in NNF; a stray Not wraps an atom.
      return dnfRec(Formula::neg(n.kids[0]), out, maxCubes);
    case FormulaNode::Kind::Or: {
      for (const auto& k : n.kids) {
        if (!dnfRec(k, out, maxCubes)) return false;
      }
      return true;
    }
    case FormulaNode::Kind::And: {
      // Cartesian product of the children's DNFs.
      std::vector<Cube> acc{Cube{}};
      for (const auto& k : n.kids) {
        std::vector<Cube> kidDnf;
        if (!dnfRec(k, kidDnf, maxCubes)) return false;
        std::vector<Cube> next;
        if (acc.size() * kidDnf.size() > maxCubes) return false;
        next.reserve(acc.size() * kidDnf.size());
        for (const auto& a : acc) {
          for (const auto& b : kidDnf) {
            Cube cube = a;
            cube.insert(cube.end(), b.begin(), b.end());
            next.push_back(std::move(cube));
          }
        }
        acc = std::move(next);
        if (acc.empty()) return true;  // a child was `false`
      }
      if (out.size() + acc.size() > maxCubes) return false;
      for (auto& c : acc) out.push_back(std::move(c));
      return true;
    }
  }
  return true;
}

// dnfRec's budget rule on cube counts alone: `out` stands for out.size(),
// and every early return and comparison is dnfRec's.
bool dnfCountRec(const Formula& f, size_t& out, size_t maxCubes) {
  const auto& n = f.node();
  switch (n.kind) {
    case FormulaNode::Kind::False:
      return true;
    case FormulaNode::Kind::True:
    case FormulaNode::Kind::Cmp:
    case FormulaNode::Kind::Lin:
      if (out >= maxCubes) return false;
      ++out;
      return true;
    case FormulaNode::Kind::Not:
      return dnfCountRec(Formula::neg(n.kids[0]), out, maxCubes);
    case FormulaNode::Kind::Or: {
      for (const auto& k : n.kids) {
        if (!dnfCountRec(k, out, maxCubes)) return false;
      }
      return true;
    }
    case FormulaNode::Kind::And: {
      size_t acc = 1;
      for (const auto& k : n.kids) {
        size_t kid = 0;
        if (!dnfCountRec(k, kid, maxCubes)) return false;
        if (acc * kid > maxCubes) return false;
        acc *= kid;
        if (acc == 0) return true;
      }
      if (out + acc > maxCubes) return false;
      out += acc;
      return true;
    }
  }
  return true;
}

// forEachDnfCube's walk. `todo_` holds the conjuncts still to expand
// into the current cube (next at the back). Atoms, Ands and Nots expand
// in place; only an Or, the one choice point, recurses, so the depth is
// the number of Or choices on a path, not the length of a cube.
class CubeWalk {
 public:
  CubeWalk(CubeVisitFn fn, void* ctx) : fn_(fn), ctx_(ctx) {}

  bool run(const Formula& f) {
    todo_.push_back(&f);
    return walk();
  }

 private:
  bool walk() {
    const size_t cubeMark = cube_.size();
    const size_t undoMark = undo_.size();
    // Expand every conjunct up to the next Or: atoms join the cube, an
    // And is replaced by its kids, and a False conjunct means no cube.
    bool noCube = false;
    while (!noCube && !todo_.empty() &&
           todo_.back()->kind() != FormulaNode::Kind::Or) {
      const Formula* f = todo_.back();
      todo_.pop_back();
      undo_.push_back(f);
      const FormulaNode& n = f->node();
      switch (n.kind) {
        case FormulaNode::Kind::False:
          noCube = true;
          break;
        case FormulaNode::Kind::True:
        case FormulaNode::Kind::Cmp:
        case FormulaNode::Kind::Lin:
          cube_.push_back(f);
          break;
        case FormulaNode::Kind::And:
          for (auto k = n.kids.rbegin(); k != n.kids.rend(); ++k) {
            todo_.push_back(&*k);
          }
          break;
        case FormulaNode::Kind::Not:
          // As in dnfRec: factory-built formulas are in NNF, a stray Not
          // wraps an atom.
          todo_.push_back(&negations_.emplace_front(Formula::neg(n.kids[0])));
          break;
        case FormulaNode::Kind::Or:
          break;  // excluded by the loop condition
      }
    }
    bool stopped = false;
    if (!noCube) {
      if (todo_.empty()) {
        stopped = fn_(ctx_, cube_);
      } else {
        const Formula* f = todo_.back();
        todo_.pop_back();
        for (const Formula& k : f->node().kids) {
          todo_.push_back(&k);
          stopped = walk();
          todo_.pop_back();
          if (stopped) break;
        }
        todo_.push_back(f);
      }
    }
    // Undo the expansion, newest first, so `todo_` is as it was on entry.
    while (undo_.size() > undoMark) {
      const Formula* f = undo_.back();
      undo_.pop_back();
      const FormulaNode& n = f->node();
      if (n.kind == FormulaNode::Kind::And) {
        todo_.resize(todo_.size() - n.kids.size());
      } else if (n.kind == FormulaNode::Kind::Not) {
        todo_.pop_back();
      }
      todo_.push_back(f);
    }
    cube_.resize(cubeMark);
    return stopped;
  }

  CubeVisitFn fn_;
  void* ctx_;
  std::vector<const Formula*> todo_;
  std::vector<const Formula*> undo_;
  CubeView cube_;
  std::forward_list<Formula> negations_;  // stable addresses for todo_
};

}  // namespace

std::optional<std::vector<Cube>> toDnf(const Formula& f, size_t maxCubes) {
  std::vector<Cube> out;
  if (!dnfRec(f, out, maxCubes)) return std::nullopt;
  return out;
}

bool dnfFits(const Formula& f, size_t maxCubes) {
  size_t out = 0;
  return dnfCountRec(f, out, maxCubes);
}

bool forEachDnfCube(const Formula& f, CubeVisitFn fn, void* ctx) {
  return CubeWalk(fn, ctx).run(f);
}

Formula fromDnf(const std::vector<Cube>& dnf) {
  std::vector<Formula> cubes;
  cubes.reserve(dnf.size());
  for (const auto& cube : dnf) {
    cubes.push_back(Formula::conj(cube));
  }
  return Formula::disj(std::move(cubes));
}

namespace {

bool mentionsAny(const Formula& f, const std::vector<CVarId>& vars) {
  std::vector<CVarId> occ;
  f.collectVars(occ);
  for (CVarId v : occ) {
    for (CVarId e : vars) {
      if (v == e) return true;
    }
  }
  return false;
}

bool isExistential(CVarId v, const std::vector<CVarId>& vars) {
  for (CVarId e : vars) {
    if (v == e) return true;
  }
  return false;
}

/// Eliminates existential variables from one cube; returns false when the
/// cube must be dropped (elimination not soundly possible).
bool projectCube(Cube& cube, const std::vector<CVarId>& evars,
                 const CVarRegistry& reg) {
  // Phase 1: substitute equalities that bind an existential variable.
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < cube.size(); ++i) {
      const Formula& atom = cube[i];
      if (atom.isTrue()) continue;
      if (atom.isFalse()) return false;
      if (atom.kind() != FormulaNode::Kind::Cmp) continue;
      const FormulaNode& n = atom.node();
      if (n.op != CmpOp::Eq) continue;
      // Constructor normalization puts a c-variable on the left.
      Value from, to;
      if (n.lhs.isCVar() && isExistential(n.lhs.asCVar(), evars)) {
        from = n.lhs;
        to = n.rhs;
      } else if (n.rhs.isCVar() && isExistential(n.rhs.asCVar(), evars)) {
        from = n.rhs;
        to = n.lhs;
      } else {
        continue;
      }
      if (from == to) continue;
      Assignment sub{{from.asCVar(), to}};
      Cube next;
      next.reserve(cube.size() - 1);
      for (size_t j = 0; j < cube.size(); ++j) {
        if (j == i) continue;  // the defining equality is consumed
        Formula s = substitute(cube[j], sub);
        if (s.isFalse()) return false;
        if (!s.isTrue()) next.push_back(std::move(s));
      }
      cube = std::move(next);
      changed = true;
      break;
    }
  }
  // Phase 2: residual atoms mentioning existential variables.
  Cube kept;
  for (const Formula& atom : cube) {
    if (!mentionsAny(atom, evars)) {
      kept.push_back(atom);
      continue;
    }
    // Only `v != constant` over an unbounded-domain existential can be
    // soundly dropped (a witness always exists); everything else makes
    // the cube unprojectable.
    if (atom.kind() == FormulaNode::Kind::Cmp) {
      const FormulaNode& n = atom.node();
      if (n.op == CmpOp::Ne && n.lhs.isCVar() &&
          isExistential(n.lhs.asCVar(), evars) && n.rhs.isConstant() &&
          reg.info(n.lhs.asCVar()).domain.empty()) {
        continue;
      }
    }
    return false;
  }
  cube = std::move(kept);
  return true;
}

}  // namespace

Formula projectExistentials(const Formula& f, const std::vector<CVarId>& vars,
                            const CVarRegistry& reg, size_t maxCubes) {
  if (vars.empty()) return f;
  auto dnf = toDnf(f, maxCubes);
  if (!dnf.has_value()) return Formula::bottom();  // sound under-approx
  std::vector<Formula> out;
  for (Cube& cube : *dnf) {
    if (projectCube(cube, vars, reg)) {
      out.push_back(Formula::conj(cube));
    }
  }
  return Formula::disj(std::move(out));
}

}  // namespace faure::smt
