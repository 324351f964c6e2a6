// A fauré database: named c-tables plus the c-variable registry that gives
// the c-variables their meaning (PATH' = {P^i, C} in Table 2).
#pragma once

#include <map>
#include <string>

#include "relational/ctable.hpp"

namespace faure::rel {

class Database {
 public:
  Database() = default;

  // Databases own registries; copying one by accident is usually a bug in
  // calling code, so be explicit.
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  /// Explicit copy for snapshot forking (scenario.hpp): the registry
  /// copy preserves every CVarId and domain, and each table copy shares
  /// the original's copy-on-write body (rows and persistent
  /// JoinIndexes) until either side writes it. Forks are fully
  /// independent for mutation — edits to a clone never touch the
  /// original, nor edits to the original the clone.
  Database clone() const;

  CVarRegistry& cvars() { return cvars_; }
  const CVarRegistry& cvars() const { return cvars_; }

  /// Creates an empty table; throws EvalError if the name exists.
  CTable& create(Schema schema);

  /// Inserts or replaces a table under its schema name.
  CTable& put(CTable table);

  bool has(const std::string& name) const { return tables_.count(name) != 0; }

  /// Table by name; throws EvalError when absent.
  CTable& table(const std::string& name);
  const CTable& table(const std::string& name) const;

  /// Table by name, or nullptr.
  const CTable* find(const std::string& name) const;

  const std::map<std::string, CTable>& tables() const { return tables_; }

  std::string toString() const;

 private:
  CVarRegistry cvars_;
  std::map<std::string, CTable> tables_;
};

}  // namespace faure::rel
