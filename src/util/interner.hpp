// String and sequence interning.
//
// Values in fauré tuples must be cheap to copy, hash and compare because
// evaluation shuffles millions of them. Symbols (names like "Mkt" or AS
// identifiers) and paths (sequences of symbols like [A,B,C]) are interned
// into process-wide tables and referenced by 32-bit ids.
//
// Interned data is pure string content with no per-problem semantics, so a
// process-wide table is safe; per-problem state (c-variable domains) lives
// in CVarRegistry instead.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace faure::util {

/// Id of an interned string. 0 is a valid id (the first interned string).
using SymbolId = uint32_t;

/// Id of an interned symbol sequence (a "path").
using PathId = uint32_t;

/// Process-wide string interner. Thread-safe: concurrent scenario forks
/// parse and format values from their own threads, so both interners
/// serialize behind a mutex. Interning is far off the
/// join/derive hot path, so the lock is uncontended in practice.
class SymbolTable {
 public:
  static SymbolTable& instance();

  /// Returns the id for `text`, interning it on first sight.
  SymbolId intern(std::string_view text);

  /// The text behind an id. The reference stays valid for the process
  /// lifetime (strings are never removed or moved).
  const std::string& text(SymbolId id) const;

  /// Number of distinct symbols interned so far.
  size_t size() const;

 private:
  SymbolTable() = default;
  mutable std::mutex mu_;
  // deque: element addresses are stable under growth, so the string_view
  // keys in index_ (which point into the stored strings) stay valid, and
  // references handed out by text() survive later interning.
  std::deque<std::string> strings_;
  std::unordered_map<std::string_view, SymbolId> index_;
};

/// Process-wide interner for symbol sequences (forwarding paths).
class PathTable {
 public:
  static PathTable& instance();

  /// Returns the id for `elems`, interning on first sight.
  PathId intern(const std::vector<SymbolId>& elems);

  /// The sequence behind an id. Stable for the process lifetime.
  const std::vector<SymbolId>& elems(PathId id) const;

  /// Renders a path as "[A B C]".
  std::string text(PathId id) const;
  /// text(id), appended to `out`.
  void appendText(PathId id, std::string& out) const;

  size_t size() const;

 private:
  PathTable() = default;

  mutable std::mutex mu_;

  struct VecHash {
    size_t operator()(const std::vector<SymbolId>& v) const {
      size_t h = 0x9e3779b97f4a7c15ULL;
      for (SymbolId s : v) h = h * 1099511628211ULL ^ s;
      return h;
    }
  };

  std::deque<std::vector<SymbolId>> paths_;
  std::unordered_map<std::vector<SymbolId>, PathId, VecHash> index_;
};

/// Convenience: intern a symbol and get its id.
inline SymbolId sym(std::string_view text) {
  return SymbolTable::instance().intern(text);
}

/// Convenience: the text of a symbol id.
inline const std::string& symText(SymbolId id) {
  return SymbolTable::instance().text(id);
}

}  // namespace faure::util
