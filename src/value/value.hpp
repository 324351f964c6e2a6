// Value: one element of the c-domain (dom^C in the paper, §3).
//
// A Value is either a constant — integer, interned symbol, IPv4 prefix, or
// interned path — or a c-variable standing for a currently-unknown
// constant. Values are 16-byte trivially copyable handles so relations can
// hold millions of them; symbols and paths are interned (util/interner).
//
// C-variable *semantics* (name, type, finite domain) live in CVarRegistry,
// one registry per problem instance; Value stores only the id.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/interner.hpp"

namespace faure {

/// Attribute / value types. `Any` is used for attributes whose type is not
/// pinned by a schema (e.g. intermediate query results).
enum class ValueType : uint8_t { Int, Sym, Prefix, Path, Any };

/// Renders a type name ("Int", "Sym", ...).
std::string_view typeName(ValueType t);

/// Id of a c-variable within a CVarRegistry.
using CVarId = uint32_t;

class CVarRegistry;

/// One element of the c-domain.
class Value {
 public:
  enum class Kind : uint8_t { Int, Sym, Prefix, Path, CVar };

  /// Default-constructs the integer 0; needed for container resizing.
  Value() : kind_(Kind::Int), int_(0) {}

  // -- Factories -----------------------------------------------------------

  static Value fromInt(int64_t v) {
    Value x;
    x.kind_ = Kind::Int;
    x.int_ = v;
    return x;
  }

  static Value sym(std::string_view text) {
    return symId(util::sym(text));
  }

  static Value symId(util::SymbolId id) {
    Value x;
    x.kind_ = Kind::Sym;
    x.sym_ = id;
    return x;
  }

  /// Prefix from numeric address and mask length (0..32).
  static Value prefix(uint32_t addr, uint8_t len);

  /// Parses "1.2.3.4" (len 32) or "10.0.0.0/8". Throws TypeError on
  /// malformed input.
  static Value parsePrefix(std::string_view text);

  /// Path from symbol names, e.g. {"A","B","C"}.
  static Value path(const std::vector<std::string>& names);

  static Value pathId(util::PathId id) {
    Value x;
    x.kind_ = Kind::Path;
    x.path_ = id;
    return x;
  }

  static Value cvar(CVarId id) {
    Value x;
    x.kind_ = Kind::CVar;
    x.var_ = id;
    return x;
  }

  // -- Inspection ----------------------------------------------------------

  Kind kind() const { return kind_; }
  bool isCVar() const { return kind_ == Kind::CVar; }
  bool isConstant() const { return kind_ != Kind::CVar; }

  int64_t asInt() const { return int_; }
  util::SymbolId asSym() const { return sym_; }
  util::PathId asPath() const { return path_; }
  CVarId asCVar() const { return var_; }
  uint32_t prefixAddr() const { return pfx_.addr; }
  uint8_t prefixLen() const { return pfx_.len; }

  /// The ValueType of a constant. CVar type is owned by the registry, so
  /// calling this on a c-variable throws TypeError.
  ValueType constantType() const;

  // -- Comparison / hashing (raw identity, NOT c-domain equality: a CVar
  //    only equals the same CVar id; condition-level equality is the
  //    solver's job) ------------------------------------------------------

  friend bool operator==(const Value& a, const Value& b) {
    if (a.kind_ != b.kind_) return false;
    switch (a.kind_) {
      case Kind::Int:
        return a.int_ == b.int_;
      case Kind::Sym:
        return a.sym_ == b.sym_;
      case Kind::Prefix:
        return a.pfx_.addr == b.pfx_.addr && a.pfx_.len == b.pfx_.len;
      case Kind::Path:
        return a.path_ == b.path_;
      case Kind::CVar:
        return a.var_ == b.var_;
    }
    return false;
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

  /// Total order for use in sorted containers; orders by kind, then payload.
  friend bool operator<(const Value& a, const Value& b);

  size_t hash() const;

  /// Human-readable rendering, appended to `out`. If `reg` is given,
  /// c-variables print their declared name ("x_"), otherwise "?<id>".
  void appendTo(std::string& out, const CVarRegistry* reg = nullptr) const;

  /// appendTo into a fresh string.
  std::string toString(const CVarRegistry* reg = nullptr) const;

 private:
  struct Pfx {
    uint32_t addr;
    uint8_t len;
  };

  Kind kind_;
  union {
    int64_t int_;
    util::SymbolId sym_;
    Pfx pfx_;
    util::PathId path_;
    CVarId var_;
  };
};

struct ValueHash {
  size_t operator()(const Value& v) const { return v.hash(); }
};

/// Appends the decimal text of `v` (std::to_string's digits, no
/// allocation).
void appendInt(std::string& out, int64_t v);

/// Hash of a value sequence (tuple data part).
size_t hashValues(const std::vector<Value>& vals);

/// Per-problem registry of c-variables: name, type, and (optionally) a
/// finite domain. The solver consults domains for completeness and for
/// possible-world enumeration (loss-less checks, §4).
class CVarRegistry {
 public:
  struct Info {
    std::string name;
    ValueType type = ValueType::Any;
    /// Explicit finite domain, empty when the domain is unbounded.
    std::vector<Value> domain;
  };

  /// Declares a fresh c-variable. Throws TypeError if `name` is already
  /// declared.
  CVarId declare(std::string_view name, ValueType type,
                 std::vector<Value> domain = {});

  /// Declares an integer c-variable ranging over [lo, hi].
  CVarId declareInt(std::string_view name, int64_t lo, int64_t hi);

  /// Declares a fresh variable with a generated unique name based on
  /// `stem` (used by freeze/containment rewrites, §5).
  CVarId declareFresh(std::string_view stem, ValueType type,
                      std::vector<Value> domain = {});

  /// Id of a declared name, or -1 (as CVarId max) if unknown.
  static constexpr CVarId kNotFound = static_cast<CVarId>(-1);
  CVarId find(std::string_view name) const;

  const Info& info(CVarId id) const;
  size_t size() const { return vars_.size(); }

  /// Replaces the finite domain of an already-declared variable (empty =
  /// unbounded). Changing an existing variable's semantics can flip the
  /// verdict of any formula mentioning it, so this bumps mutationEpoch().
  /// Throws TypeError on an unknown id or a non-constant domain element.
  void setDomain(CVarId id, std::vector<Value> domain);

  /// Incremented by every mutation of an *existing* variable (setDomain).
  /// Declaring fresh variables does not count: a formula built before the
  /// declaration cannot mention the new variable, so no cached verdict
  /// about it can be stale. smt::VerdictCache compares this to decide
  /// when to invalidate.
  uint64_t mutationEpoch() const { return mutationEpoch_; }

  /// True if every declared variable has a finite domain, i.e. the set of
  /// possible worlds is enumerable.
  bool allFinite() const;

  /// Product of domain sizes (clamped to `cap`); 0 if some domain is
  /// unbounded.
  uint64_t worldCount(uint64_t cap = UINT64_MAX) const;

 private:
  std::vector<Info> vars_;
  std::unordered_map<std::string, CVarId> index_;
  uint64_t mutationEpoch_ = 0;
};

}  // namespace faure

namespace std {
template <>
struct hash<faure::Value> {
  size_t operator()(const faure::Value& v) const { return v.hash(); }
};
}  // namespace std
