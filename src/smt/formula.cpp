#include "smt/formula.hpp"

#include <algorithm>
#include <span>

#include "smt/interner.hpp"
#include "util/error.hpp"

namespace faure::smt {

CmpOp negateOp(CmpOp op) {
  switch (op) {
    case CmpOp::Eq:
      return CmpOp::Ne;
    case CmpOp::Ne:
      return CmpOp::Eq;
    case CmpOp::Lt:
      return CmpOp::Ge;
    case CmpOp::Le:
      return CmpOp::Gt;
    case CmpOp::Gt:
      return CmpOp::Le;
    case CmpOp::Ge:
      return CmpOp::Lt;
  }
  return CmpOp::Eq;
}

CmpOp flipOp(CmpOp op) {
  switch (op) {
    case CmpOp::Eq:
      return CmpOp::Eq;
    case CmpOp::Ne:
      return CmpOp::Ne;
    case CmpOp::Lt:
      return CmpOp::Gt;
    case CmpOp::Le:
      return CmpOp::Ge;
    case CmpOp::Gt:
      return CmpOp::Lt;
    case CmpOp::Ge:
      return CmpOp::Le;
  }
  return CmpOp::Eq;
}

std::string_view opText(CmpOp op) {
  switch (op) {
    case CmpOp::Eq:
      return "=";
    case CmpOp::Ne:
      return "!=";
    case CmpOp::Lt:
      return "<";
    case CmpOp::Le:
      return "<=";
    case CmpOp::Gt:
      return ">";
    case CmpOp::Ge:
      return ">=";
  }
  return "?";
}

bool evalIntCmp(int64_t a, CmpOp op, int64_t b) {
  switch (op) {
    case CmpOp::Eq:
      return a == b;
    case CmpOp::Ne:
      return a != b;
    case CmpOp::Lt:
      return a < b;
    case CmpOp::Le:
      return a <= b;
    case CmpOp::Gt:
      return a > b;
    case CmpOp::Ge:
      return a >= b;
  }
  return false;
}

LinTerm LinTerm::make(std::vector<std::pair<CVarId, int64_t>> entries,
                      int64_t cst) {
  // Sort by variable, then sum each variable's run in place, dropping
  // zero sums.
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t kept = 0;
  for (size_t i = 0; i < entries.size();) {
    const CVarId v = entries[i].first;
    int64_t c = 0;
    for (; i < entries.size() && entries[i].first == v; ++i) {
      c += entries[i].second;
    }
    if (c != 0) entries[kept++] = {v, c};
  }
  entries.resize(kept);
  LinTerm t;
  t.coefs = std::move(entries);
  t.cst = cst;
  return t;
}

LinTerm LinTerm::plus(const LinTerm& other) const {
  std::vector<std::pair<CVarId, int64_t>> entries = coefs;
  entries.insert(entries.end(), other.coefs.begin(), other.coefs.end());
  return make(std::move(entries), cst + other.cst);
}

LinTerm LinTerm::minus(const LinTerm& other) const {
  return plus(other.scaled(-1));
}

LinTerm LinTerm::scaled(int64_t k) const {
  LinTerm t;
  if (k == 0) return t;
  t.cst = cst * k;
  t.coefs.reserve(coefs.size());
  for (const auto& [v, c] : coefs) t.coefs.emplace_back(v, c * k);
  return t;
}

size_t LinTerm::hash() const {
  uint64_t h = 0x100001b3ULL ^ static_cast<uint64_t>(cst);
  for (const auto& [v, c] : coefs) {
    h = (h * 1099511628211ULL) ^ (static_cast<uint64_t>(v) << 17) ^
        static_cast<uint64_t>(c);
  }
  return static_cast<size_t>(h);
}

void LinTerm::appendTo(std::string& out, const CVarRegistry* reg) const {
  if (coefs.empty()) {
    appendInt(out, cst);
    return;
  }
  for (size_t i = 0; i < coefs.size(); ++i) {
    const auto& [v, c] = coefs[i];
    if (i == 0) {
      if (c == -1) {
        out += '-';
      } else if (c != 1) {
        appendInt(out, c);
        out += '*';
      }
    } else {
      out += c < 0 ? " - " : " + ";
      int64_t a = c < 0 ? -c : c;
      if (a != 1) {
        appendInt(out, a);
        out += '*';
      }
    }
    Value::cvar(v).appendTo(out, reg);
  }
  if (cst != 0) {
    out += cst < 0 ? " - " : " + ";
    appendInt(out, cst < 0 ? -cst : cst);
  }
}

std::string LinTerm::toString(const CVarRegistry* reg) const {
  std::string out;
  appendTo(out, reg);
  return out;
}

namespace {

size_t combineHash(size_t a, size_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
}

size_t nodeHash(const FormulaNode& n) {
  size_t h = static_cast<size_t>(n.kind) * 0x9e3779b97f4a7c15ULL;
  switch (n.kind) {
    case FormulaNode::Kind::True:
    case FormulaNode::Kind::False:
      return h;
    case FormulaNode::Kind::Cmp:
      h = combineHash(h, static_cast<size_t>(n.op));
      h = combineHash(h, n.lhs.hash());
      h = combineHash(h, n.rhs.hash());
      return h;
    case FormulaNode::Kind::Lin:
      h = combineHash(h, static_cast<size_t>(n.op));
      h = combineHash(h, n.lin.hash());
      return h;
    case FormulaNode::Kind::And:
    case FormulaNode::Kind::Or:
    case FormulaNode::Kind::Not:
      for (const auto& k : n.kids) h = combineHash(h, k.hash());
      return h;
  }
  return h;
}

// The boolean constants are interned like every other node, so the
// pointer-equality contract of operator== covers them uniformly.
const std::shared_ptr<const FormulaNode>& trueNode() {
  static const std::shared_ptr<const FormulaNode> node = [] {
    FormulaNode n;
    n.kind = FormulaNode::Kind::True;
    n.hash = nodeHash(n);
    return FormulaInterner::instance().intern(std::move(n));
  }();
  return node;
}

const std::shared_ptr<const FormulaNode>& falseNode() {
  static const std::shared_ptr<const FormulaNode> node = [] {
    FormulaNode n;
    n.kind = FormulaNode::Kind::False;
    n.hash = nodeHash(n);
    return FormulaInterner::instance().intern(std::move(n));
  }();
  return node;
}

}  // namespace

Formula::Formula() : node_(trueNode()) {}

Formula Formula::top() { return Formula(trueNode()); }

Formula Formula::bottom() { return Formula(falseNode()); }

Formula Formula::makeNode(FormulaNode node) {
  node.hash = nodeHash(node);
  return Formula(FormulaInterner::instance().intern(std::move(node)));
}

Formula Formula::cmp(Value lhs, CmpOp op, Value rhs) {
  // Both constants: fold.
  if (lhs.isConstant() && rhs.isConstant()) {
    if (op == CmpOp::Eq) return boolean(lhs == rhs);
    if (op == CmpOp::Ne) return boolean(lhs != rhs);
    if (lhs.kind() != Value::Kind::Int || rhs.kind() != Value::Kind::Int) {
      throw TypeError("ordered comparison on non-integer constants");
    }
    return boolean(evalIntCmp(lhs.asInt(), op, rhs.asInt()));
  }
  // Identical sides (same c-variable).
  if (lhs == rhs) {
    switch (op) {
      case CmpOp::Eq:
      case CmpOp::Le:
      case CmpOp::Ge:
        return top();
      case CmpOp::Ne:
      case CmpOp::Lt:
      case CmpOp::Gt:
        return bottom();
    }
  }
  // Normalize: constant (or larger var id) on the right.
  bool flip = false;
  if (lhs.isConstant() && rhs.isCVar()) {
    flip = true;
  } else if (lhs.isCVar() && rhs.isCVar() && rhs.asCVar() < lhs.asCVar()) {
    flip = true;
  }
  if (flip) {
    std::swap(lhs, rhs);
    op = flipOp(op);
  }
  FormulaNode n;
  n.kind = FormulaNode::Kind::Cmp;
  n.op = op;
  n.lhs = lhs;
  n.rhs = rhs;
  return makeNode(std::move(n));
}

Formula Formula::lin(LinTerm term, CmpOp op) {
  if (term.isConstant()) return boolean(evalIntCmp(term.cst, op, 0));
  if (term.coefs.size() == 1) {
    auto [v, c] = term.coefs[0];
    // c*v + cst op 0. For |c| == 1 this is exactly v op' (-cst/c).
    if (c == 1) return cmp(Value::cvar(v), op, Value::fromInt(-term.cst));
    if (c == -1) {
      return cmp(Value::cvar(v), flipOp(op), Value::fromInt(term.cst));
    }
  }
  // Normalize sign: make the leading coefficient positive for Eq/Ne so that
  // syntactically mirrored atoms compare equal.
  if ((op == CmpOp::Eq || op == CmpOp::Ne) && term.coefs[0].second < 0) {
    term = term.scaled(-1);
  }
  FormulaNode n;
  n.kind = FormulaNode::Kind::Lin;
  n.op = op;
  n.lin = std::move(term);
  return makeNode(std::move(n));
}

namespace {

/// A junction of `kind` (And or Or) is absorbed by one constant and drops
/// the other: And by false, dropping true; Or by true, dropping false.
Formula absorbing(Formula::Kind kind) {
  return Formula::boolean(kind == Formula::Kind::Or);
}
bool isNeutral(const Formula& f, Formula::Kind kind) {
  return kind == Formula::Kind::And ? f.isTrue() : f.isFalse();
}
bool isAbsorbing(const Formula& f, Formula::Kind kind) {
  return kind == Formula::Kind::And ? f.isFalse() : f.isTrue();
}

bool hashLess(const Formula& a, const Formula& b) {
  return a.hash() < b.hash();
}

}  // namespace

Formula Formula::makeJunction(Kind kind, std::vector<Formula> kids) {
  FormulaNode n;
  n.kind = kind;
  n.kids = std::move(kids);
  return makeNode(std::move(n));
}

Formula Formula::junction(Kind kind, std::vector<Formula> parts) {
  std::vector<Formula> kids;
  // Flatten one level of nested And/Or (constructors keep the tree flat,
  // so one level is all that can occur).
  for (const auto& p : parts) {
    if (isAbsorbing(p, kind)) return absorbing(kind);
    if (isNeutral(p, kind)) continue;
    if (p.kind() == kind) {
      const auto& pk = p.node().kids;
      kids.insert(kids.end(), pk.begin(), pk.end());
    } else {
      kids.push_back(p);
    }
  }
  // Canonical child order so that equal sets of conjuncts produce equal
  // formulas regardless of derivation order; fixed-point evaluation relies
  // on this for syntactic dedup (and hence termination). Equal formulas
  // have equal hashes, so after the sort a duplicate can only sit in its
  // original's run of equal hashes: keep each formula's first occurrence.
  std::stable_sort(kids.begin(), kids.end(), hashLess);
  size_t kept = 0;
  size_t run = 0;  // first kept kid of the current equal-hash run
  for (size_t i = 0; i < kids.size(); ++i) {
    if (kept > 0 && kids[kept - 1].hash() != kids[i].hash()) run = kept;
    auto runEnd = kids.begin() + static_cast<std::ptrdiff_t>(kept);
    if (std::find(kids.begin() + static_cast<std::ptrdiff_t>(run), runEnd,
                  kids[i]) != runEnd) {
      continue;
    }
    if (kept != i) kids[kept] = std::move(kids[i]);
    ++kept;
  }
  kids.resize(kept);
  if (kids.empty()) return boolean(kind == Kind::And);
  if (kids.size() == 1) return kids[0];
  // a AND NOT a  (exact structural complement) => false; dually for OR.
  for (const auto& k : kids) {
    Formula nk = neg(k);
    auto [lo, hi] = std::equal_range(kids.begin(), kids.end(), nk, hashLess);
    for (auto it = lo; it != hi; ++it) {
      if (*it == nk) return absorbing(kind);
    }
  }
  return makeJunction(kind, std::move(kids));
}

Formula Formula::conj(std::vector<Formula> parts) {
  return junction(Kind::And, std::move(parts));
}

Formula Formula::disj(std::vector<Formula> parts) {
  return junction(Kind::Or, std::move(parts));
}

Formula Formula::join2(Kind kind, const Formula& a, const Formula& b) {
  if (isAbsorbing(a, kind) || isAbsorbing(b, kind)) return absorbing(kind);
  if (isNeutral(a, kind) || a == b) return b;
  if (isNeutral(b, kind)) return a;
  const bool aFlat = a.kind() == kind;
  const bool bFlat = b.kind() == kind;
  if (aFlat && bFlat) return junction(kind, {a, b});
  if (!aFlat && !bFlat) {
    // Two distinct single operands. neg is an involution (no constructor
    // builds a Not node), so one test finds a complement pair.
    if (neg(a) == b) return absorbing(kind);
    return makeJunction(kind, b.hash() < a.hash() ? std::vector{b, a}
                                                  : std::vector{a, b});
  }
  // The c-table merge's case: one operand e joins an interned junction n,
  // whose kids are already flat, deduplicated, complement-free and
  // hash-sorted, so only e's membership and e's complement need testing.
  const Formula& n = aFlat ? a : b;
  const Formula& e = aFlat ? b : a;
  const std::vector<Formula>& kids = n.node().kids;
  const Formula ne = neg(e);
  for (const auto& k : kids) {
    if (k == e) return n;
    if (k == ne) return absorbing(kind);
  }
  // Where stable_sort would place e: after equal hashes when e comes
  // second, before them when it comes first.
  auto at = aFlat ? std::upper_bound(kids.begin(), kids.end(), e, hashLess)
                  : std::lower_bound(kids.begin(), kids.end(), e, hashLess);
  std::vector<Formula> merged;
  merged.reserve(kids.size() + 1);
  merged.insert(merged.end(), kids.begin(), at);
  merged.push_back(e);
  merged.insert(merged.end(), at, kids.end());
  return makeJunction(kind, std::move(merged));
}

Formula Formula::neg(const Formula& f) {
  if (f.isTrue()) return bottom();
  if (f.isFalse()) return top();
  FormulaInterner& interner = FormulaInterner::instance();
  if (auto linked = interner.negation(f.node())) {
    return Formula(std::move(linked));
  }
  return Formula(interner.linkNegation(f.node(), deMorgan(f).node_));
}

Formula Formula::deMorgan(const Formula& f) {
  switch (f.kind()) {
    case Kind::True:
      return bottom();
    case Kind::False:
      return top();
    case Kind::Cmp: {
      const auto& n = f.node();
      return cmp(n.lhs, negateOp(n.op), n.rhs);
    }
    case Kind::Lin: {
      const auto& n = f.node();
      return lin(n.lin, negateOp(n.op));
    }
    case Kind::Not:
      return f.node().kids[0];
    case Kind::And:
    case Kind::Or: {
      // De Morgan keeps formulas in negation normal form, which both the
      // printer and the DNF conversion rely on.
      std::vector<Formula> negKids;
      negKids.reserve(f.node().kids.size());
      for (const auto& k : f.node().kids) negKids.push_back(neg(k));
      return f.kind() == Kind::And ? disj(std::move(negKids))
                                   : conj(std::move(negKids));
    }
  }
  return f;
}

void Formula::appendTo(std::string& out, const CVarRegistry* reg) const {
  const auto& n = node();
  switch (n.kind) {
    case Kind::True:
      out += "true";
      return;
    case Kind::False:
      out += "false";
      return;
    case Kind::Cmp:
      n.lhs.appendTo(out, reg);
      out += ' ';
      out += opText(n.op);
      out += ' ';
      n.rhs.appendTo(out, reg);
      return;
    case Kind::Lin:
      n.lin.appendTo(out, reg);
      out += ' ';
      out += opText(n.op);
      out += " 0";
      return;
    case Kind::Not:
      out += "!(";
      n.kids[0].appendTo(out, reg);
      out += ')';
      return;
    case Kind::And:
    case Kind::Or: {
      const char* sep = n.kind == Kind::And ? " & " : " | ";
      for (size_t i = 0; i < n.kids.size(); ++i) {
        if (i > 0) out += sep;
        const auto& k = n.kids[i];
        bool paren = k.kind() == Kind::And || k.kind() == Kind::Or;
        if (paren) out += '(';
        k.appendTo(out, reg);
        if (paren) out += ')';
      }
      return;
    }
  }
  out += '?';
}

std::string Formula::toString(const CVarRegistry* reg) const {
  std::string out;
  appendTo(out, reg);
  return out;
}

namespace {

/// Conjunct list of a formula, in place: its children for And, itself
/// otherwise. Either way the list is sorted by hash.
std::span<const Formula> conjuncts(const Formula& f) {
  if (f.kind() == Formula::Kind::And) return f.node().kids;
  return {&f, 1};
}

/// a's conjunct set ⊇ b's conjunct set (so a ⇒ b). Both lists are sorted
/// by hash, so one merge-like pass finds every member.
bool conjunctsInclude(std::span<const Formula> a, std::span<const Formula> b) {
  size_t i = 0;
  for (const auto& need : b) {
    while (i < a.size() && a[i].hash() < need.hash()) ++i;
    bool found = false;
    for (size_t j = i; j < a.size() && a[j].hash() == need.hash(); ++j) {
      if (a[j] == need) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

}  // namespace

bool impliesSyntactically(const Formula& a, const Formula& b) {
  if (a.isFalse() || b.isTrue()) return true;
  if (a == b) return true;
  if (b.isFalse() || a.isTrue()) return false;
  // a ⇒ (c1 | c2 | ...) if a ⇒ some ci (checking each ci structurally).
  if (b.kind() == Formula::Kind::Or) {
    for (const auto& kid : b.node().kids) {
      if (kid == a || conjunctsInclude(conjuncts(a), conjuncts(kid))) {
        return true;
      }
    }
  }
  // (a1 | a2) ⇒ b needs every disjunct of a to imply b.
  if (a.kind() == Formula::Kind::Or) {
    for (const auto& kid : a.node().kids) {
      if (!impliesSyntactically(kid, b)) return false;
    }
    return true;
  }
  if (b.kind() == Formula::Kind::Or) return false;
  return conjunctsInclude(conjuncts(a), conjuncts(b));
}

void Formula::collectVars(std::vector<CVarId>& out) const {
  const auto& n = node();
  switch (n.kind) {
    case Kind::True:
    case Kind::False:
      return;
    case Kind::Cmp:
      if (n.lhs.isCVar()) out.push_back(n.lhs.asCVar());
      if (n.rhs.isCVar()) out.push_back(n.rhs.asCVar());
      return;
    case Kind::Lin:
      for (const auto& [v, c] : n.lin.coefs) {
        (void)c;
        out.push_back(v);
      }
      return;
    case Kind::And:
    case Kind::Or:
    case Kind::Not:
      for (const auto& k : n.kids) k.collectVars(out);
      return;
  }
}

}  // namespace faure::smt
