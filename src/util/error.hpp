// Error hierarchy for the faure library.
//
// All recoverable failures surface as subclasses of faure::Error so that
// callers can catch either the specific class (ParseError while loading a
// program from text) or the whole family at an API boundary.
#pragma once

#include <stdexcept>
#include <string>

namespace faure {

/// Base class for all errors raised by the faure library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Raised by the fauré-log / datalog front end on malformed input text.
class ParseError : public Error {
 public:
  ParseError(const std::string& what, int line, int column)
      : Error("parse error at " + std::to_string(line) + ":" +
              std::to_string(column) + ": " + what),
        line_(line),
        column_(column) {}

  int line() const { return line_; }
  int column() const { return column_; }

 private:
  int line_;
  int column_;
};

/// Raised when values or schemas are combined at incompatible types,
/// e.g. joining an Int attribute with a Path attribute.
class TypeError : public Error {
 public:
  explicit TypeError(const std::string& what) : Error("type error: " + what) {}
};

/// Raised during rule evaluation: unknown relation, unsafe rule,
/// non-stratifiable program, arity mismatch, ...
class EvalError : public Error {
 public:
  explicit EvalError(const std::string& what) : Error("eval error: " + what) {}
};

/// A solver backend failed for reasons of its own — the engine is
/// missing (a build without Z3), the backing library raised, or a check
/// aborted inside the backend. Distinct from EvalError (bad input) so
/// the fault-tolerance layer (smt::SupervisedSolver) can catch engine
/// trouble and retry / fail over without masking genuine programming
/// errors.
class SolverBackendError : public Error {
 public:
  SolverBackendError(std::string backend, const std::string& what)
      : Error("solver backend '" + backend + "': " + what),
        backend_(std::move(backend)) {}

  /// The failing backend's stable name ("z3", "native", ...).
  const std::string& backend() const { return backend_; }

 private:
  std::string backend_;
};

/// Resource-governance failures (util/resource_guard.hpp). The engine's
/// default is to *degrade* (Sat::Unknown, incomplete results) rather than
/// raise; these surface only where a caller opts into strict budgets.
class ResourceError : public Error {
 public:
  explicit ResourceError(const std::string& what)
      : Error("resource error: " + what) {}
};

/// A configured budget tripped under strict budgets
/// (fl::EvalOptions::throwOnBudget). `budget` is the stable reason code
/// (budgetText: "deadline", "steps", ...); `reason` embeds the limit,
/// e.g. "steps(limit=100)".
class BudgetExceeded : public ResourceError {
 public:
  BudgetExceeded(std::string budget, std::string reason)
      : ResourceError("budget exceeded: " + reason),
        budget_(std::move(budget)),
        reason_(std::move(reason)) {}

  /// The tripped budget kind ("deadline", "steps", "tuples", ...).
  const std::string& budget() const { return budget_; }
  /// Kind plus the configured limit, machine-readable.
  const std::string& reason() const { return reason_; }

 private:
  std::string budget_;
  std::string reason_;
};

}  // namespace faure
