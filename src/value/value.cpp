#include "value/value.hpp"

#include <charconv>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace faure {

std::string_view typeName(ValueType t) {
  switch (t) {
    case ValueType::Int:
      return "Int";
    case ValueType::Sym:
      return "Sym";
    case ValueType::Prefix:
      return "Prefix";
    case ValueType::Path:
      return "Path";
    case ValueType::Any:
      return "Any";
  }
  return "?";
}

Value Value::prefix(uint32_t addr, uint8_t len) {
  if (len > 32) throw TypeError("prefix length > 32");
  Value x;
  x.kind_ = Kind::Prefix;
  // Normalize: zero the bits below the mask so equal prefixes compare equal.
  uint32_t mask = len == 0 ? 0 : (0xffffffffu << (32 - len));
  x.pfx_ = Pfx{addr & mask, len};
  return x;
}

namespace {

uint32_t parseOctet(std::string_view s) {
  unsigned v = 0;
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || p != s.data() + s.size() || v > 255) {
    throw TypeError("bad IPv4 octet '" + std::string(s) + "'");
  }
  return v;
}

}  // namespace

Value Value::parsePrefix(std::string_view text) {
  uint8_t len = 32;
  size_t slash = text.find('/');
  if (slash != std::string_view::npos) {
    unsigned l = 0;
    auto rest = text.substr(slash + 1);
    auto [p, ec] = std::from_chars(rest.data(), rest.data() + rest.size(), l);
    if (ec != std::errc() || p != rest.data() + rest.size() || l > 32) {
      throw TypeError("bad prefix length in '" + std::string(text) + "'");
    }
    len = static_cast<uint8_t>(l);
    text = text.substr(0, slash);
  }
  auto parts = util::split(text, '.');
  if (parts.size() != 4) {
    throw TypeError("bad IPv4 address '" + std::string(text) + "'");
  }
  uint32_t addr = 0;
  for (const auto& part : parts) addr = (addr << 8) | parseOctet(part);
  return prefix(addr, len);
}

Value Value::path(const std::vector<std::string>& names) {
  std::vector<util::SymbolId> ids;
  ids.reserve(names.size());
  for (const auto& n : names) ids.push_back(util::sym(n));
  return pathId(util::PathTable::instance().intern(ids));
}

ValueType Value::constantType() const {
  switch (kind_) {
    case Kind::Int:
      return ValueType::Int;
    case Kind::Sym:
      return ValueType::Sym;
    case Kind::Prefix:
      return ValueType::Prefix;
    case Kind::Path:
      return ValueType::Path;
    case Kind::CVar:
      throw TypeError("constantType() called on a c-variable");
  }
  return ValueType::Any;
}

bool operator<(const Value& a, const Value& b) {
  if (a.kind_ != b.kind_) return a.kind_ < b.kind_;
  switch (a.kind_) {
    case Value::Kind::Int:
      return a.int_ < b.int_;
    case Value::Kind::Sym:
      return a.sym_ < b.sym_;
    case Value::Kind::Prefix:
      return a.pfx_.addr != b.pfx_.addr ? a.pfx_.addr < b.pfx_.addr
                                        : a.pfx_.len < b.pfx_.len;
    case Value::Kind::Path:
      return a.path_ < b.path_;
    case Value::Kind::CVar:
      return a.var_ < b.var_;
  }
  return false;
}

size_t Value::hash() const {
  uint64_t payload;
  switch (kind_) {
    case Kind::Int:
      payload = static_cast<uint64_t>(int_);
      break;
    case Kind::Sym:
      payload = sym_;
      break;
    case Kind::Prefix:
      payload = (static_cast<uint64_t>(pfx_.addr) << 8) | pfx_.len;
      break;
    case Kind::Path:
      payload = path_;
      break;
    case Kind::CVar:
      payload = var_;
      break;
    default:
      payload = 0;
  }
  uint64_t z = payload + 0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(kind_) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<size_t>(z ^ (z >> 31));
}

void appendInt(std::string& out, int64_t v) {
  char buf[20];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

void Value::appendTo(std::string& out, const CVarRegistry* reg) const {
  switch (kind_) {
    case Kind::Int:
      appendInt(out, int_);
      return;
    case Kind::Sym:
      out += util::symText(sym_);
      return;
    case Kind::Path:
      util::PathTable::instance().appendText(path_, out);
      return;
    case Kind::Prefix:
      for (int shift = 24; shift >= 0; shift -= 8) {
        appendInt(out, (pfx_.addr >> shift) & 0xff);
        if (shift > 0) out += '.';
      }
      if (pfx_.len != 32) {
        out += '/';
        appendInt(out, pfx_.len);
      }
      return;
    case Kind::CVar:
      if (reg != nullptr && var_ < reg->size()) {
        out += reg->info(var_).name;
      } else {
        out += '?';
        appendInt(out, var_);
      }
      return;
  }
  out += '?';
}

std::string Value::toString(const CVarRegistry* reg) const {
  std::string out;
  appendTo(out, reg);
  return out;
}

size_t hashValues(const std::vector<Value>& vals) {
  size_t h = 0xcbf29ce484222325ULL;
  for (const auto& v : vals) h = (h ^ v.hash()) * 1099511628211ULL;
  return h;
}

CVarId CVarRegistry::declare(std::string_view name, ValueType type,
                             std::vector<Value> domain) {
  std::string key(name);
  if (index_.count(key) != 0) {
    throw TypeError("c-variable '" + key + "' already declared");
  }
  for (const auto& v : domain) {
    if (!v.isConstant()) {
      throw TypeError("domain of '" + key + "' must contain constants only");
    }
  }
  CVarId id = static_cast<CVarId>(vars_.size());
  vars_.push_back(Info{key, type, std::move(domain)});
  index_.emplace(std::move(key), id);
  return id;
}

CVarId CVarRegistry::declareInt(std::string_view name, int64_t lo,
                                int64_t hi) {
  if (lo > hi) throw TypeError("empty integer domain");
  std::vector<Value> domain;
  domain.reserve(static_cast<size_t>(hi - lo + 1));
  for (int64_t v = lo; v <= hi; ++v) domain.push_back(Value::fromInt(v));
  return declare(name, ValueType::Int, std::move(domain));
}

CVarId CVarRegistry::declareFresh(std::string_view stem, ValueType type,
                                  std::vector<Value> domain) {
  std::string base(stem);
  std::string name = base;
  int suffix = 0;
  while (index_.count(name) != 0) {
    name = base + std::to_string(++suffix);
  }
  return declare(name, type, std::move(domain));
}

void CVarRegistry::setDomain(CVarId id, std::vector<Value> domain) {
  if (id >= vars_.size()) throw TypeError("unknown c-variable id");
  for (const auto& v : domain) {
    if (!v.isConstant()) {
      throw TypeError("domain of '" + vars_[id].name +
                      "' must contain constants only");
    }
  }
  vars_[id].domain = std::move(domain);
  ++mutationEpoch_;
}

CVarId CVarRegistry::find(std::string_view name) const {
  auto it = index_.find(std::string(name));
  return it == index_.end() ? kNotFound : it->second;
}

const CVarRegistry::Info& CVarRegistry::info(CVarId id) const {
  if (id >= vars_.size()) throw TypeError("unknown c-variable id");
  return vars_[id];
}

bool CVarRegistry::allFinite() const {
  for (const auto& v : vars_) {
    if (v.domain.empty()) return false;
  }
  return true;
}

uint64_t CVarRegistry::worldCount(uint64_t cap) const {
  uint64_t count = 1;
  for (const auto& v : vars_) {
    if (v.domain.empty()) return 0;
    if (count > cap / v.domain.size()) return cap;
    count *= v.domain.size();
  }
  return count;
}

}  // namespace faure
