// Condition formulas attached to c-table tuples (§3 of the paper).
//
// The condition language is the fragment the paper's listings use:
//   - comparison atoms over the c-domain:  x_ = [ABC], y_ != 1.2.3.4, p_ < 80
//   - linear integer atoms:                x_ + y_ + z_ = 1
//   - boolean structure:                   AND / OR / NOT, true, false
//
// Formula is an immutable value type over shared nodes. The smart
// constructors normalize on construction: constant folding, flattening of
// nested conjunction/disjunction, absorption of true/false, double
// negation, and pushing NOT into comparison operators. Normalization keeps
// conditions small during fixed-point evaluation; full satisfiability is
// the solver's job (solver.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "value/value.hpp"

namespace faure::smt {

/// Comparison operators usable in conditions and in fauré-log rule bodies.
enum class CmpOp : uint8_t { Eq, Ne, Lt, Le, Gt, Ge };

/// The operator satisfied exactly when `op` is not: ¬(a = b) ⟺ a ≠ b, etc.
CmpOp negateOp(CmpOp op);

/// The operator with sides swapped: a < b ⟺ b > a.
CmpOp flipOp(CmpOp op);

/// Printable operator text ("=", "!=", "<", ...).
std::string_view opText(CmpOp op);

/// Applies `op` to two ordered integers.
bool evalIntCmp(int64_t a, CmpOp op, int64_t b);

/// A linear term  sum(coef_i * var_i) + cst  over integer c-variables.
/// Invariants: coefs sorted by variable id, no zero coefficients, at most
/// one entry per variable.
struct LinTerm {
  std::vector<std::pair<CVarId, int64_t>> coefs;
  int64_t cst = 0;

  /// Builds a normalized term from possibly unsorted/duplicated entries.
  static LinTerm make(std::vector<std::pair<CVarId, int64_t>> entries,
                      int64_t cst);

  bool isConstant() const { return coefs.empty(); }

  /// this + other.
  LinTerm plus(const LinTerm& other) const;
  /// this - other.
  LinTerm minus(const LinTerm& other) const;
  /// this * k.
  LinTerm scaled(int64_t k) const;

  friend bool operator==(const LinTerm& a, const LinTerm& b) {
    return a.cst == b.cst && a.coefs == b.coefs;
  }

  size_t hash() const;
  /// Renders "2*x_ - y_ + 3", appended to `out`.
  void appendTo(std::string& out, const CVarRegistry* reg = nullptr) const;
  std::string toString(const CVarRegistry* reg = nullptr) const;
};

class Formula;
struct FormulaNode;

/// Per-node interner bookkeeping: the node's creation sequence number and
/// the memoised link to its negation (FormulaInterner::negation). A copy
/// (the node moved into the interner) keeps the sequence number but
/// starts unlinked.
class ComplementLink {
 public:
  ComplementLink() = default;
  ComplementLink(const ComplementLink& o) : seq_(o.seq_) {}

 private:
  friend class FormulaInterner;
  enum : uint8_t { kUnset, kWeak, kStrong };

  uint64_t seq_ = 0;
  // Published with release ordering once `strong_` or `weak_` is written;
  // each of the two is written at most once (kUnset -> kWeak -> kStrong).
  mutable std::atomic<uint8_t> state_{kUnset};
  mutable std::shared_ptr<const FormulaNode> strong_;
  mutable std::weak_ptr<const FormulaNode> weak_;
};

/// Internal shared node. Exposed so the solver and transforms can walk the
/// structure; construct formulas only through Formula's factories.
struct FormulaNode {
  enum class Kind : uint8_t { True, False, Cmp, Lin, And, Or, Not };

  Kind kind = Kind::True;
  // Kind::Cmp — comparison between two c-domain values.
  CmpOp op = CmpOp::Eq;
  Value lhs;
  Value rhs;
  // Kind::Lin — `lin  op  0`.
  LinTerm lin;
  // Kind::And / Or — children (>= 2); Kind::Not — exactly 1 child.
  std::vector<Formula> kids;

  size_t hash = 0;
  ComplementLink complement;
};

/// Immutable boolean condition over the c-domain.
class Formula {
 public:
  using Kind = FormulaNode::Kind;

  /// Defaults to `true` (the empty condition of a regular tuple).
  Formula();

  static Formula top();
  static Formula bottom();
  static Formula boolean(bool b) { return b ? top() : bottom(); }

  /// Comparison atom; folds if both sides are constants, and normalizes so
  /// that a constant side (if any) is on the right and two c-variables are
  /// ordered by id. Ordered operators (< <= > >=) require Int operands
  /// when constant; throws TypeError otherwise.
  static Formula cmp(Value lhs, CmpOp op, Value rhs);

  /// Linear atom `term op 0`; folds when the term is constant and lowers
  /// single-variable unit-coefficient terms to a plain comparison.
  static Formula lin(LinTerm term, CmpOp op);

  /// N-ary conjunction: flattens, drops `true`, dedups syntactically,
  /// returns `false` if any child is `false` or if both an atom and its
  /// exact negation occur. Children are ordered by hash (stably).
  static Formula conj(std::vector<Formula> parts);
  /// N-ary disjunction (dual of conj).
  static Formula disj(std::vector<Formula> parts);
  /// Negation: folds constants, double negation, and comparison atoms;
  /// pushes NOT through And/Or (De Morgan). Memoised on the node, so each
  /// distinct formula is negated once while it lives.
  static Formula neg(const Formula& f);

  /// conj({a, b}) — the same node — without building a vector unless
  /// both are conjunctions.
  static Formula conj2(const Formula& a, const Formula& b) {
    return join2(Kind::And, a, b);
  }
  /// disj({a, b}), likewise.
  static Formula disj2(const Formula& a, const Formula& b) {
    return join2(Kind::Or, a, b);
  }

  Kind kind() const { return node_->kind; }
  bool isTrue() const { return kind() == Kind::True; }
  bool isFalse() const { return kind() == Kind::False; }
  bool isAtom() const { return kind() == Kind::Cmp || kind() == Kind::Lin; }

  const FormulaNode& node() const { return *node_; }

  /// The shared node itself — the hash-consed identity of this formula.
  /// Stable for the node's lifetime; smt::VerdictCache pins it to key
  /// memoized verdicts.
  const std::shared_ptr<const FormulaNode>& nodePtr() const { return node_; }

  /// Structural equality (after constructor normalization). Nodes are
  /// hash-consed (smt/interner.hpp), so this is a pointer comparison:
  /// structurally equal formulas share one node by construction.
  /// Semantic equivalence is Solver::equivalent.
  friend bool operator==(const Formula& a, const Formula& b) {
    return a.node_ == b.node_;
  }
  friend bool operator!=(const Formula& a, const Formula& b) {
    return !(a == b);
  }

  size_t hash() const { return node_->hash; }

  /// Renders in the paper's notation, e.g. "x_ = [ABC] | x_ = [ADEC]",
  /// appended to `out` (one buffer for the whole tree: no temporaries).
  void appendTo(std::string& out, const CVarRegistry* reg = nullptr) const;
  /// appendTo into a fresh string.
  std::string toString(const CVarRegistry* reg = nullptr) const;

  /// Collects all c-variables occurring in the formula into `out`.
  void collectVars(std::vector<CVarId>& out) const;

 private:
  explicit Formula(std::shared_ptr<const FormulaNode> node)
      : node_(std::move(node)) {}

  static Formula makeNode(FormulaNode node);
  static Formula makeJunction(Kind kind, std::vector<Formula> kids);
  /// conj (kind And) / disj (kind Or).
  static Formula junction(Kind kind, std::vector<Formula> parts);
  /// junction(kind, {a, b}) without the vector, except when both are
  /// junctions of this kind.
  static Formula join2(Kind kind, const Formula& a, const Formula& b);
  /// The uncached negation neg() memoises.
  static Formula deMorgan(const Formula& f);

  std::shared_ptr<const FormulaNode> node_;
};

struct FormulaHash {
  size_t operator()(const Formula& f) const { return f.hash(); }
};

/// Cheap, sound, incomplete implication test: true only when a ⇒ b can be
/// shown structurally (equal formulas, conjunct-set inclusion, or a
/// matching disjunct of b). Used as a fast path before the solver during
/// fixed-point condition merging, where most re-derivations repeat an
/// already-recorded condition.
bool impliesSyntactically(const Formula& a, const Formula& b);

}  // namespace faure::smt
