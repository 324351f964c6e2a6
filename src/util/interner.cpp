#include "util/interner.hpp"

#include <cassert>

namespace faure::util {

SymbolTable& SymbolTable::instance() {
  static SymbolTable table;
  return table;
}

SymbolId SymbolTable::intern(std::string_view text) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(text);
  if (it != index_.end()) return it->second;
  SymbolId id = static_cast<SymbolId>(strings_.size());
  strings_.emplace_back(text);
  // The key view points into the deque element, whose address is stable.
  index_.emplace(std::string_view(strings_.back()), id);
  return id;
}

const std::string& SymbolTable::text(SymbolId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  assert(id < strings_.size());
  // Safe to hand out past the unlock: entries are never removed or moved.
  return strings_[id];
}

size_t SymbolTable::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return strings_.size();
}

PathTable& PathTable::instance() {
  static PathTable table;
  return table;
}

PathId PathTable::intern(const std::vector<SymbolId>& elems) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(elems);
  if (it != index_.end()) return it->second;
  PathId id = static_cast<PathId>(paths_.size());
  paths_.push_back(elems);
  index_.emplace(paths_.back(), id);
  return id;
}

const std::vector<SymbolId>& PathTable::elems(PathId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  assert(id < paths_.size());
  return paths_[id];
}

std::string PathTable::text(PathId id) const {
  std::string out;
  appendText(id, out);
  return out;
}

void PathTable::appendText(PathId id, std::string& out) const {
  out += '[';
  const auto& es = elems(id);
  for (size_t i = 0; i < es.size(); ++i) {
    if (i > 0) out += ' ';
    out += SymbolTable::instance().text(es[i]);
  }
  out += ']';
}

}  // namespace faure::util
