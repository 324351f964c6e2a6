#include "faurelog/textio.hpp"

#include <optional>

#include "datalog/lexer.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace faure::fl {

namespace {

using dl::Tok;
using dl::Token;
using smt::CmpOp;
using smt::Formula;
using smt::LinTerm;

ValueType typeFromName(const Token& t) {
  if (t.text == "int") return ValueType::Int;
  if (t.text == "sym") return ValueType::Sym;
  if (t.text == "prefix") return ValueType::Prefix;
  if (t.text == "path") return ValueType::Path;
  if (t.text == "any") return ValueType::Any;
  throw ParseError("unknown type '" + t.text + "'", t.line, t.column);
}

std::string_view typeKeyword(ValueType t) {
  switch (t) {
    case ValueType::Int:
      return "int";
    case ValueType::Sym:
      return "sym";
    case ValueType::Prefix:
      return "prefix";
    case ValueType::Path:
      return "path";
    case ValueType::Any:
      return "any";
  }
  return "any";
}

class DbParser {
 public:
  explicit DbParser(std::string_view text) : tokens_(dl::lex(text)) {}

  void runInto(rel::Database& db) {
    while (peek().kind != Tok::End) {
      const Token& t = expect(Tok::Ident);
      if (t.text == "var") {
        parseVar(db);
      } else if (t.text == "table") {
        parseTable(db);
      } else if (t.text == "row") {
        parseRow(db);
      } else {
        throw ParseError("expected 'var', 'table' or 'row'", t.line,
                         t.column);
      }
    }
  }

  // +Pred(v, ...) [ '|' condition ]  |  -Pred(v, ...)   per directive.
  std::vector<Edit> runEdits(rel::Database& db) {
    std::vector<Edit> out;
    while (peek().kind != Tok::End) {
      Edit e;
      if (accept(Tok::Plus)) {
        e.kind = Edit::Kind::Insert;
      } else if (accept(Tok::Minus)) {
        e.kind = Edit::Kind::Retract;
      } else {
        fail("expected an edit directive '+Pred(...)' or '-Pred(...)'");
      }
      const Token& name = expect(Tok::Ident);
      if (!db.has(name.text)) {
        throw ParseError("edit to undeclared table '" + name.text + "'",
                         name.line, name.column);
      }
      e.pred = name.text;
      expect(Tok::LParen);
      if (!accept(Tok::RParen)) {
        do {
          e.vals.push_back(value(db));
        } while (accept(Tok::Comma));
        expect(Tok::RParen);
      }
      size_t arity = db.table(name.text).schema().arity();
      if (e.vals.size() != arity) {
        throw ParseError("arity mismatch editing '" + name.text + "': got " +
                             std::to_string(e.vals.size()) + ", want " +
                             std::to_string(arity),
                         name.line, name.column);
      }
      if (peek().kind == Tok::Pipe) {
        if (e.kind == Edit::Kind::Retract) {
          throw ParseError(
              "a retraction takes no condition (it removes the data part "
              "outright)",
              peek().line, peek().column);
        }
        advance();
        e.cond = disjunction(db);
      }
      out.push_back(std::move(e));
    }
    return out;
  }

 private:
  const Token& peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& advance() { return tokens_[pos_++]; }
  [[noreturn]] void fail(const std::string& msg) {
    const Token& t = peek();
    throw ParseError(msg + " (got " + std::string(dl::tokName(t.kind)) + ")",
                     t.line, t.column);
  }
  const Token& expect(Tok kind) {
    if (peek().kind != kind) fail("expected " + std::string(dl::tokName(kind)));
    return advance();
  }
  bool accept(Tok kind) {
    if (peek().kind != kind) return false;
    advance();
    return true;
  }

  // var <name_> <type> [lo hi | { v, v, ... }]
  void parseVar(rel::Database& db) {
    const Token& name = expect(Tok::CVarName);
    ValueType type = typeFromName(expect(Tok::Ident));
    if (peek().kind == Tok::Int ||
        (peek().kind == Tok::Minus && peek(1).kind == Tok::Int)) {
      bool neg = accept(Tok::Minus);
      int64_t lo = expect(Tok::Int).intVal * (neg ? -1 : 1);
      bool neg2 = accept(Tok::Minus);
      int64_t hi = expect(Tok::Int).intVal * (neg2 ? -1 : 1);
      if (type != ValueType::Int) fail("integer range on non-int variable");
      db.cvars().declareInt(name.text, lo, hi);
      return;
    }
    if (accept(Tok::LBrace)) {
      std::vector<Value> domain;
      if (!accept(Tok::RBrace)) {
        do {
          domain.push_back(value(db));
        } while (accept(Tok::Comma));
        expect(Tok::RBrace);
      }
      db.cvars().declare(name.text, type, std::move(domain));
      return;
    }
    db.cvars().declare(name.text, type);
  }

  // table <Name>(<attr> <type>, ...)
  void parseTable(rel::Database& db) {
    const Token& name = expect(Tok::Ident);
    std::vector<rel::Attribute> attrs;
    expect(Tok::LParen);
    if (!accept(Tok::RParen)) {
      do {
        const Token& attr = expect(Tok::Ident);
        ValueType type = typeFromName(expect(Tok::Ident));
        attrs.push_back(rel::Attribute{attr.text, type});
      } while (accept(Tok::Comma));
      expect(Tok::RParen);
    }
    db.create(rel::Schema(name.text, std::move(attrs)));
  }

  // row <Name> <value>... [ '|' condition ]
  void parseRow(rel::Database& db) {
    const Token& name = expect(Tok::Ident);
    if (!db.has(name.text)) {
      throw ParseError("row for undeclared table '" + name.text + "'",
                       name.line, name.column);
    }
    rel::CTable& table = db.table(name.text);
    std::vector<Value> vals;
    for (size_t i = 0; i < table.schema().arity(); ++i) {
      vals.push_back(value(db));
    }
    Formula cond = Formula::top();
    if (accept(Tok::Pipe)) cond = disjunction(db);
    table.insert(std::move(vals), std::move(cond));
  }

  // One c-domain value (constant or declared c-variable).
  Value value(rel::Database& db) {
    const Token& t = peek();
    switch (t.kind) {
      case Tok::Int:
        advance();
        return Value::fromInt(t.intVal);
      case Tok::Minus: {
        advance();
        const Token& n = expect(Tok::Int);
        return Value::fromInt(-n.intVal);
      }
      case Tok::PrefixLit:
        advance();
        return Value::parsePrefix(t.text);
      case Tok::Str:
        advance();
        return Value::sym(t.text);
      case Tok::Ident:
        advance();
        return Value::sym(t.text);
      case Tok::CVarName: {
        advance();
        CVarId id = db.cvars().find(t.text);
        if (id == CVarRegistry::kNotFound) {
          throw ParseError("undeclared c-variable '" + t.text +
                               "' (declare it with 'var' first)",
                           t.line, t.column);
        }
        return Value::cvar(id);
      }
      case Tok::LBracket: {
        advance();
        std::vector<std::string> elems;
        while (!accept(Tok::RBracket)) {
          const Token& e = peek();
          if (e.kind == Tok::Ident) {
            elems.push_back(e.text);
            advance();
          } else if (e.kind == Tok::Int) {
            elems.push_back(std::to_string(e.intVal));
            advance();
          } else {
            fail("expected path element");
          }
          accept(Tok::Comma);
        }
        return Value::path(elems);
      }
      default:
        fail("expected a value");
    }
  }

  // cond := conj { '|' conj } ;  conj := prim { '&' prim }
  // prim := '(' cond ')' | comparison
  Formula disjunction(rel::Database& db) {
    std::vector<Formula> parts{conjunction(db)};
    while (accept(Tok::Pipe)) parts.push_back(conjunction(db));
    return Formula::disj(std::move(parts));
  }

  Formula conjunction(rel::Database& db) {
    std::vector<Formula> parts{primary(db)};
    while (accept(Tok::Amp) || accept(Tok::Comma)) {
      parts.push_back(primary(db));
    }
    return Formula::conj(std::move(parts));
  }

  Formula primary(rel::Database& db) {
    if (accept(Tok::LParen)) {
      Formula f = disjunction(db);
      expect(Tok::RParen);
      return f;
    }
    return comparison(db);
  }

  // linexpr op linexpr, over ground values.
  Formula comparison(rel::Database& db) {
    LinSide lhs = linSide(db);
    CmpOp op;
    switch (peek().kind) {
      case Tok::Eq:
        op = CmpOp::Eq;
        break;
      case Tok::Ne:
        op = CmpOp::Ne;
        break;
      case Tok::Lt:
        op = CmpOp::Lt;
        break;
      case Tok::Le:
        op = CmpOp::Le;
        break;
      case Tok::Gt:
        op = CmpOp::Gt;
        break;
      case Tok::Ge:
        op = CmpOp::Ge;
        break;
      default:
        fail("expected comparison operator");
    }
    advance();
    LinSide rhs = linSide(db);
    // Plain value-vs-value comparison when both sides are single values.
    if (lhs.single.has_value() && rhs.single.has_value()) {
      return Formula::cmp(*lhs.single, op, *rhs.single);
    }
    return Formula::lin(lhs.term.minus(rhs.term), op);
  }

  struct LinSide {
    std::optional<Value> single;  // set when the side is one bare value
    LinTerm term;                 // always populated (Int semantics)
  };

  LinSide linSide(rel::Database& db) {
    LinSide side;
    std::vector<std::pair<CVarId, int64_t>> entries;
    int64_t cst = 0;
    size_t terms = 0;
    int64_t sign = accept(Tok::Minus) ? -1 : 1;
    while (true) {
      int64_t coef = sign;
      if (peek().kind == Tok::Int && peek(1).kind == Tok::Star) {
        coef = sign * advance().intVal;
        advance();  // '*'
      }
      Value v = value(db);
      ++terms;
      if (terms == 1 && coef == sign && sign == 1) side.single = v;
      if (v.isCVar()) {
        entries.emplace_back(v.asCVar(), coef);
      } else if (v.kind() == Value::Kind::Int) {
        cst += coef * v.asInt();
      } else if (terms > 1 || coef != 1) {
        const Token& t = peek();
        throw ParseError("arithmetic on a non-integer value", t.line,
                         t.column);
      }
      if (accept(Tok::Plus)) {
        sign = 1;
      } else if (accept(Tok::Minus)) {
        sign = -1;
      } else {
        break;
      }
      side.single.reset();
    }
    if (terms > 1) side.single.reset();
    side.term = LinTerm::make(std::move(entries), cst);
    return side;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

/// True when `text` lexes back to a single bare identifier (no quoting
/// needed when formatting).
bool isPlainIdent(const std::string& text) {
  if (text.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(text[0]))) return false;
  for (char c : text) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '&')) {
      return false;
    }
  }
  // A trailing underscore would lex as a c-variable.
  return text.back() != '_';
}

std::string formatValue(const Value& v, const CVarRegistry& reg) {
  if (v.kind() == Value::Kind::Sym) {
    const std::string& text = util::symText(v.asSym());
    if (isPlainIdent(text)) return text;
    return "'" + text + "'";
  }
  return v.toString(&reg);
}

}  // namespace

rel::Database parseDatabase(std::string_view text) {
  rel::Database db;
  DbParser(text).runInto(db);
  return db;
}

void parseDatabaseInto(std::string_view text, rel::Database& db) {
  DbParser(text).runInto(db);
}

std::string formatDatabase(const rel::Database& db) {
  std::string out;
  const CVarRegistry& reg = db.cvars();
  for (CVarId v = 0; v < reg.size(); ++v) {
    const auto& info = reg.info(v);
    out += "var " + info.name + " " + std::string(typeKeyword(info.type));
    if (!info.domain.empty()) {
      out += " { ";
      for (size_t i = 0; i < info.domain.size(); ++i) {
        if (i > 0) out += ", ";
        out += formatValue(info.domain[i], reg);
      }
      out += " }";
    }
    out += "\n";
  }
  for (const auto& [name, table] : db.tables()) {
    out += "table " + name + "(";
    for (size_t i = 0; i < table.schema().arity(); ++i) {
      if (i > 0) out += ", ";
      const auto& attr = table.schema().attribute(i);
      out += attr.name + " " + std::string(typeKeyword(attr.type));
    }
    out += ")\n";
  }
  for (const auto& [name, table] : db.tables()) {
    for (const auto& row : table.rows()) {
      out += "row " + name;
      for (const auto& v : row.vals) out += " " + formatValue(v, reg);
      if (!row.cond.isTrue()) out += " | " + row.cond.toString(&reg);
      out += "\n";
    }
  }
  return out;
}

std::vector<Edit> parseEditScript(std::string_view text, rel::Database& db) {
  // One directive per line: the lexer discards newlines, so a linear
  // parse would swallow the `+` of the next directive as an arithmetic
  // continuation of the previous condition (`l2_ = 1  +Acl(...)` reads
  // as `l2_ = 1 + Acl(...)`). Each line is lexed on its own, padded
  // with the newlines before it so ParseError positions stay global.
  std::vector<Edit> out;
  size_t lineNo = 0;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    std::string_view line = text.substr(
        start, end == std::string_view::npos ? std::string_view::npos
                                             : end - start);
    std::string padded(lineNo, '\n');
    padded.append(line);
    std::vector<Edit> parsed = DbParser(padded).runEdits(db);
    for (Edit& e : parsed) out.push_back(std::move(e));
    if (end == std::string_view::npos) break;
    start = end + 1;
    ++lineNo;
  }
  return out;
}

void RelationRenderer::render(std::string& out,
                              const std::map<std::string, rel::CTable>& idb,
                              const CVarRegistry& reg) const {
  renderInto(out, idb, reg, nullptr);
}

void RelationRenderer::renderAndKeep(
    std::string& out, const std::map<std::string, rel::CTable>& idb,
    const CVarRegistry& reg) {
  renderInto(out, idb, reg, &kept_);
}

void RelationRenderer::renderInto(
    std::string& out, const std::map<std::string, rel::CTable>& idb,
    const CVarRegistry& reg, std::map<std::string, Kept>* keep) const {
  obs::Span span(tracer_, "textio.render");
  util::Stopwatch clock;
  const size_t before = out.size();
  uint64_t tables = 0;
  uint64_t reused = 0;
  for (const auto& [pred, table] : idb) {
    if (relation_ && pred != *relation_) continue;
    ++tables;
    auto it = kept_.find(pred);
    if (it != kept_.end() && it->second.stamp == table.stamp()) {
      out += it->second.text;
      ++reused;
    } else {
      const size_t start = out.size();
      table.appendTo(out, &reg);
      if (keep != nullptr) {
        (*keep)[pred] = Kept{table.stamp(), out.substr(start)};
      }
    }
    out += '\n';
  }
  if (tracer_ != nullptr) {
    obs::Registry& m = tracer_->metrics();
    m.counter("textio.render.tables").add(tables);
    m.counter("textio.render.reused_tables").add(reused);
    m.counter("textio.render.bytes").add(out.size() - before);
    m.histogram("textio.render_seconds").observe(clock.elapsed());
  }
}

std::string formatEdit(const Edit& e, const CVarRegistry& reg) {
  std::string out(e.kind == Edit::Kind::Insert ? "+" : "-");
  out += e.pred + "(";
  for (size_t i = 0; i < e.vals.size(); ++i) {
    if (i > 0) out += ", ";
    out += formatValue(e.vals[i], reg);
  }
  out += ")";
  if (!e.cond.isTrue()) out += " | " + e.cond.toString(&reg);
  return out;
}

}  // namespace faure::fl
