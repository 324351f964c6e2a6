#include "relational/database.hpp"

#include "util/error.hpp"

namespace faure::rel {

Database Database::clone() const {
  Database fork;
  fork.cvars_ = cvars_;    // member-wise copy: CVarIds and domains survive
  fork.tables_ = tables_;  // CTable copies share their bodies
  return fork;
}

CTable& Database::create(Schema schema) {
  std::string name = schema.name();
  auto [it, inserted] = tables_.emplace(name, CTable(std::move(schema)));
  if (!inserted) throw EvalError("table '" + name + "' already exists");
  return it->second;
}

CTable& Database::put(CTable table) {
  std::string name = table.schema().name();
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return tables_.emplace(name, std::move(table)).first->second;
  }
  it->second = std::move(table);
  return it->second;
}

CTable& Database::table(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) throw EvalError("unknown table '" + name + "'");
  return it->second;
}

const CTable& Database::table(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) throw EvalError("unknown table '" + name + "'");
  return it->second;
}

const CTable* Database::find(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

std::string Database::toString() const {
  std::string out;
  for (const auto& [name, table] : tables_) {
    out += table.toString(&cvars_);
    out += "\n";
  }
  return out;
}

}  // namespace faure::rel
