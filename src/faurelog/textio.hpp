// Textual database format: declare c-variables, schemas, and conditional
// rows in a plain file, so fauré can be driven without writing C++
// (used by the `faure` CLI and by tests).
//
// Syntax (one statement per line; '%' and '//' start comments):
//
//   var x_ int 0 1                 % integer c-variable with domain [0,1]
//   var p_ int                     % unbounded integer
//   var s_ sym { Mkt, R&D }        % symbol with finite domain
//   var d_ prefix                  % IPv4-prefix-valued unknown
//   var q_ any                     % untyped
//
//   table F(flow sym, from int, to int)
//   table R(a any, b any)          % `any` columns accept every type
//
//   row F f0 1 2 | x_ = 1          % condition after '|': & (and),
//   row F f0 1 3 | x_ = 0 & p_ != 80   %   | (or), parentheses
//   row F f0 4 5                   % no condition = regular tuple
//   row P 1.2.3.4 [A B C]          % prefix and path literals
//   row P 1.2.3.5 s_               % c-variables as data entries
//
// Rows are ground: identifiers denote symbol constants (regardless of
// case), `x_`-style names denote c-variables; there are no program
// variables in this format.
//
// Edit scripts (`faure whatif`, Session::watch) reuse the same value and
// condition grammar with a `--watch`-style directive per line:
//
//   +F(f0, 2, 6) | m_ = 1          % insert a (conditional) fact
//   -F(f0, 2, 3)                   % retract every row with this data part
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"
#include "relational/database.hpp"

namespace faure::fl {

/// Parses the textual format into a fresh database. Throws ParseError
/// (with position info) on malformed input, TypeError/EvalError on
/// inconsistent declarations.
rel::Database parseDatabase(std::string_view text);

/// Parses into an existing database: declarations and rows accumulate
/// (existing c-variables may be referenced; redeclaring a name throws).
void parseDatabaseInto(std::string_view text, rel::Database& db);

/// Serializes a database back into the textual format (modulo comments
/// and ordering); parseDatabase(formatDatabase(db)) reproduces db.
std::string formatDatabase(const rel::Database& db);

/// One what-if directive: insert a conditional fact into, or retract a
/// data part from, a base (EDB) relation.
struct Edit {
  enum class Kind { Insert, Retract };
  Kind kind = Kind::Insert;
  std::string pred;
  std::vector<Value> vals;
  /// Insert-only: the tuple's condition ('true' when none was written).
  /// Retractions remove the data part outright, whatever its condition.
  smt::Formula cond = smt::Formula::top();
};

/// Parses a `+Fact(...)` / `-Fact(...)` edit script against `db`'s
/// declarations (tables must exist, arities must match, c-variables in
/// values or conditions must be declared). The database itself is not
/// modified. Throws ParseError with position info on malformed input.
std::vector<Edit> parseEditScript(std::string_view text, rel::Database& db);

/// Renders derived relations the way `faure run` and `faure whatif`
/// print them: each table's CTable::appendTo text followed by a blank
/// line, in name order; with a `relation`, only the table of that name
/// (an empty name matches no table).
///
/// A renderer remembers the bytes of what it rendered with
/// renderAndKeep(), keyed by relation name and the table's content
/// stamp (CTable::stamp). A later call copies those bytes instead of
/// rendering a table whose stamp still matches: equal stamps mean
/// byte-identical tables. The bytes also depend on the c-variable names
/// of the registry, so every call on one renderer must name the
/// c-variables of the kept tables alike — true for the epochs of one
/// database, and for scenario forks of it, whose edit scripts cannot
/// declare c-variables.
///
/// With a tracer each call opens a `textio.render` span, observes its
/// time in the `textio.render_seconds` histogram and counts
/// `textio.render.tables` (tables printed), `textio.render.reused_tables`
/// (of those, copied from kept bytes) and `textio.render.bytes`.
class RelationRenderer {
 public:
  explicit RelationRenderer(std::optional<std::string> relation = {},
                            obs::Tracer* tracer = nullptr)
      : relation_(std::move(relation)), tracer_(tracer) {}

  /// Appends `idb`'s tables to `out`, reusing kept bytes. Read-only, so
  /// concurrent scenario lanes may share one renderer.
  void render(std::string& out,
              const std::map<std::string, rel::CTable>& idb,
              const CVarRegistry& reg) const;

  /// render(), then keeps the bytes of every table it printed (replacing
  /// what was kept under the same name) for later calls.
  void renderAndKeep(std::string& out,
                     const std::map<std::string, rel::CTable>& idb,
                     const CVarRegistry& reg);

 private:
  struct Kept {
    uint64_t stamp = 0;
    std::string text;
  };

  void renderInto(std::string& out,
                  const std::map<std::string, rel::CTable>& idb,
                  const CVarRegistry& reg,
                  std::map<std::string, Kept>* keep) const;

  std::optional<std::string> relation_;
  obs::Tracer* tracer_;
  std::map<std::string, Kept> kept_;
};

/// Renders an edit back into script syntax (deterministic; used for the
/// `faure whatif` epoch headers).
std::string formatEdit(const Edit& e, const CVarRegistry& reg);

}  // namespace faure::fl
