// Seeded random rendering test: Value/LinTerm/Formula/CTable appendTo
// must produce exactly the bytes of the recursive string-building
// renderer it replaced, which is kept below as the oracle.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "relational/ctable.hpp"
#include "smt/formula.hpp"
#include "util/rng.hpp"

namespace faure::smt {
namespace {

using rel::CTable;
using rel::Schema;

// ---- the oracle: the recursive renderer, one temporary per node ----

std::string refValue(const Value& v, const CVarRegistry* reg) {
  switch (v.kind()) {
    case Value::Kind::Int:
      return std::to_string(v.asInt());
    case Value::Kind::Sym:
      return util::symText(v.asSym());
    case Value::Kind::Path: {
      std::string out = "[";
      const auto& es = util::PathTable::instance().elems(v.asPath());
      for (size_t i = 0; i < es.size(); ++i) {
        if (i > 0) out += ' ';
        out += util::symText(es[i]);
      }
      out += ']';
      return out;
    }
    case Value::Kind::Prefix: {
      uint32_t addr = v.prefixAddr();
      std::string out = std::to_string((addr >> 24) & 0xff) + "." +
                        std::to_string((addr >> 16) & 0xff) + "." +
                        std::to_string((addr >> 8) & 0xff) + "." +
                        std::to_string(addr & 0xff);
      if (v.prefixLen() != 32) out += "/" + std::to_string(v.prefixLen());
      return out;
    }
    case Value::Kind::CVar:
      if (reg != nullptr && v.asCVar() < reg->size()) {
        return reg->info(v.asCVar()).name;
      }
      return "?" + std::to_string(v.asCVar());
  }
  return "?";
}

std::string refLin(const LinTerm& t, const CVarRegistry* reg) {
  std::string out;
  for (size_t i = 0; i < t.coefs.size(); ++i) {
    const auto& [v, c] = t.coefs[i];
    if (i == 0) {
      if (c == -1) out += "-";
      else if (c != 1) out += std::to_string(c) + "*";
    } else {
      out += c < 0 ? " - " : " + ";
      int64_t a = c < 0 ? -c : c;
      if (a != 1) out += std::to_string(a) + "*";
    }
    out += refValue(Value::cvar(v), reg);
  }
  if (t.coefs.empty()) return std::to_string(t.cst);
  if (t.cst != 0) {
    out += t.cst < 0 ? " - " : " + ";
    out += std::to_string(t.cst < 0 ? -t.cst : t.cst);
  }
  return out;
}

std::string refFormula(const Formula& f, const CVarRegistry* reg) {
  const auto& n = f.node();
  switch (n.kind) {
    case Formula::Kind::True:
      return "true";
    case Formula::Kind::False:
      return "false";
    case Formula::Kind::Cmp:
      return refValue(n.lhs, reg) + " " + std::string(opText(n.op)) + " " +
             refValue(n.rhs, reg);
    case Formula::Kind::Lin:
      return refLin(n.lin, reg) + " " + std::string(opText(n.op)) + " 0";
    case Formula::Kind::Not:
      return "!(" + refFormula(n.kids[0], reg) + ")";
    case Formula::Kind::And:
    case Formula::Kind::Or: {
      std::string sep = n.kind == Formula::Kind::And ? " & " : " | ";
      std::string out;
      for (size_t i = 0; i < n.kids.size(); ++i) {
        if (i > 0) out += sep;
        const auto& k = n.kids[i];
        bool paren = k.kind() == Formula::Kind::And ||
                     k.kind() == Formula::Kind::Or;
        out += paren ? "(" + refFormula(k, reg) + ")" : refFormula(k, reg);
      }
      return out;
    }
  }
  return "?";
}

std::string refTable(const CTable& t, const CVarRegistry* reg) {
  std::string out = t.schema().name() + "(";
  for (size_t i = 0; i < t.schema().arity(); ++i) {
    if (i > 0) out += ", ";
    out += t.schema().attribute(i).name;
  }
  out += ")\n";
  for (const auto& row : t.rows()) {
    out += "  ";
    for (size_t i = 0; i < row.vals.size(); ++i) {
      if (i > 0) out += "\t";
      out += refValue(row.vals[i], reg);
    }
    if (!row.cond.isTrue()) out += "\t| " + refFormula(row.cond, reg);
    out += "\n";
  }
  return out;
}

// ---- the generator ----

class RenderTest : public ::testing::Test {
 protected:
  // Ids 0..2 are named; ids 3..5 are past the registry's end, so they
  // render as "?<id>" even with the registry.
  CVarRegistry reg_;
  static constexpr CVarId kVars = 6;

  void SetUp() override {
    reg_.declare("i_", ValueType::Int);
    reg_.declare("s_", ValueType::Any);
    reg_.declare("q_", ValueType::Any);
  }

  /// A constant of every kind: negative and large ints, symbols, paths,
  /// host (/32) and shorter prefixes.
  static Value constant(util::Rng& rng) {
    switch (rng.below(5)) {
      case 0: {
        static const int64_t kInts[] = {0, 1, -1, 7, -42, 1000000007,
                                        INT64_MAX, INT64_MIN + 1};
        return Value::fromInt(kInts[rng.below(8)]);
      }
      case 1: {
        static const char* kSyms[] = {"web", "R&D", "Mkt", "a b", "x"};
        return Value::sym(kSyms[rng.below(5)]);
      }
      case 2: {
        std::vector<std::string> hops;
        for (size_t i = rng.below(4); i > 0; --i) {
          hops.push_back(std::string(1, static_cast<char>('A' + rng.below(6))));
        }
        return Value::path(hops);
      }
      case 3: {
        static const uint8_t kLens[] = {32, 31, 24, 16, 8, 1, 0};
        return Value::prefix(static_cast<uint32_t>(rng.next()),
                             kLens[rng.below(7)]);
      }
      default:
        return Value::fromInt(rng.range(-5, 5));
    }
  }

  static Value cvar(util::Rng& rng) {
    return Value::cvar(static_cast<CVarId>(rng.below(kVars)));
  }

  static CmpOp anyOp(util::Rng& rng) {
    return static_cast<CmpOp>(rng.below(6));
  }

  Formula atom(util::Rng& rng) {
    switch (rng.below(4)) {
      case 0:  // c-variable against a constant of any kind
        return Formula::cmp(cvar(rng), rng.chance(0.5) ? CmpOp::Eq : CmpOp::Ne,
                            constant(rng));
      case 1:  // ordered comparison over ints
        return Formula::cmp(cvar(rng), anyOp(rng),
                            Value::fromInt(rng.range(-100, 100)));
      case 2:  // two c-variables
        return Formula::cmp(cvar(rng), anyOp(rng), cvar(rng));
      default: {  // linear: unit, negative and larger coefficients
        static const int64_t kCoefs[] = {1, -1, 2, -2, 3, -7};
        std::vector<std::pair<CVarId, int64_t>> entries;
        for (size_t i = 1 + rng.below(3); i > 0; --i) {
          entries.emplace_back(static_cast<CVarId>(rng.below(kVars)),
                               kCoefs[rng.below(6)]);
        }
        return Formula::lin(LinTerm::make(entries, rng.range(-9, 9)),
                            anyOp(rng));
      }
    }
  }

  Formula formula(util::Rng& rng, int depth) {
    if (depth == 0 || rng.chance(0.25)) {
      return rng.chance(0.05) ? Formula::boolean(rng.chance(0.5)) : atom(rng);
    }
    switch (rng.below(4)) {
      case 0:
        return Formula::neg(formula(rng, depth - 1));
      case 1:
        return Formula::conj2(formula(rng, depth - 1), formula(rng, depth - 1));
      default: {
        std::vector<Formula> parts;
        for (size_t i = 2 + rng.below(3); i > 0; --i) {
          parts.push_back(formula(rng, depth - 1));
        }
        return rng.chance(0.5) ? Formula::conj(std::move(parts))
                               : Formula::disj(std::move(parts));
      }
    }
  }
};

TEST_F(RenderTest, AppendToMatchesTheRecursiveRenderer) {
  size_t kinds[7] = {0, 0, 0, 0, 0, 0, 0};
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    util::Rng rng(seed);
    Formula f = formula(rng, 5);
    ++kinds[static_cast<int>(f.kind())];
    for (const CVarRegistry* reg : {&reg_, static_cast<CVarRegistry*>(nullptr)}) {
      const std::string want = refFormula(f, reg);
      EXPECT_EQ(f.toString(reg), want) << "seed " << seed;
      // appendTo appends: whatever the buffer held stays in front.
      std::string buf = "prefix|";
      f.appendTo(buf, reg);
      EXPECT_EQ(buf, "prefix|" + want) << "seed " << seed;
    }
  }
  // The seeds reach both junctions and both atom kinds at the top.
  EXPECT_GT(kinds[static_cast<int>(Formula::Kind::And)], 0u);
  EXPECT_GT(kinds[static_cast<int>(Formula::Kind::Or)], 0u);
  EXPECT_GT(kinds[static_cast<int>(Formula::Kind::Cmp)], 0u);
  EXPECT_GT(kinds[static_cast<int>(Formula::Kind::Lin)], 0u);
}

TEST_F(RenderTest, ValuesAndLinearTermsMatchTheRecursiveRenderer) {
  util::Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    Value v = rng.chance(0.2) ? cvar(rng) : constant(rng);
    EXPECT_EQ(v.toString(&reg_), refValue(v, &reg_));
    EXPECT_EQ(v.toString(), refValue(v, nullptr));
  }
  EXPECT_EQ(Value::parsePrefix("10.0.0.0/8").toString(), "10.0.0.0/8");
  EXPECT_EQ(Value::parsePrefix("1.2.3.4").toString(), "1.2.3.4");
  EXPECT_EQ(Value::fromInt(INT64_MIN).toString(),
            std::to_string(INT64_MIN));
  EXPECT_EQ(Value::cvar(5).toString(&reg_), "?5");
  for (int64_t cst : {0, 3, -3}) {
    for (int64_t c : {1, -1, 4, -4}) {
      LinTerm t = LinTerm::make({{0, c}, {4, -c}, {2, 1}}, cst);
      EXPECT_EQ(t.toString(&reg_), refLin(t, &reg_));
    }
    EXPECT_EQ(LinTerm::make({}, cst).toString(), refLin(LinTerm::make({}, cst), nullptr));
  }
}

TEST_F(RenderTest, TablesMatchTheRecursiveRenderer) {
  util::Rng rng(7);
  CTable t(Schema("T", {{"a", ValueType::Any}, {"b", ValueType::Any}}));
  for (int i = 0; i < 200; ++i) {
    Value a = rng.chance(0.3) ? cvar(rng) : constant(rng);
    t.append({a, constant(rng)},
             rng.chance(0.3) ? Formula::top() : formula(rng, 3));
  }
  EXPECT_EQ(t.toString(&reg_), refTable(t, &reg_));
  EXPECT_EQ(t.toString(), refTable(t, nullptr));
  EXPECT_EQ(CTable().toString(), "()\n");
}

}  // namespace
}  // namespace faure::smt
