// Formula transformations: substitution, DNF conversion.
#pragma once

#include <optional>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "smt/formula.hpp"

namespace faure::smt {

/// A (partial) assignment of c-variables to constants.
using Assignment = std::unordered_map<CVarId, Value>;

/// Substitutes assigned c-variables by their constants and folds the
/// result. Unassigned variables are left in place.
Formula substitute(const Formula& f, const Assignment& a);

/// A conjunction of atoms (each Formula here is Cmp/Lin/True/False — never
/// And/Or/Not).
using Cube = std::vector<Formula>;

/// Converts to disjunctive normal form: the result represents
/// OR over cubes of AND over atoms. Formulas built through the Formula
/// factories are already in negation normal form, so no NOT nodes occur.
///
/// Returns std::nullopt if the DNF would exceed `maxCubes` (callers fall
/// back to enumeration or an external solver).
std::optional<std::vector<Cube>> toDnf(const Formula& f, size_t maxCubes);

/// Exactly `toDnf(f, maxCubes).has_value()`, computed by counting cubes
/// instead of building them, with the same budget rule (so a formula
/// over budget is over budget for both).
bool dnfFits(const Formula& f, size_t maxCubes);

/// One DNF cube as pointers to its atoms inside the walked formula.
using CubeView = std::vector<const Formula*>;
using CubeVisitFn = bool (*)(void* ctx, const CubeView& cube);

/// Visits the cubes of f's DNF one at a time, in exactly the order toDnf()
/// lists them: an Or yields its kids' cubes kid by kid; an And yields the
/// product of its kids' cubes, first kid varying slowest, each cube's
/// atoms concatenated left to right. Only the current cube exists at any
/// time. The walk stops as soon as `visit` returns true; the result says
/// whether it did. There is no budget: check dnfFits() first.
bool forEachDnfCube(const Formula& f, CubeVisitFn visit, void* ctx);

template <class Visit>
bool forEachDnfCube(const Formula& f, Visit&& visit) {
  using V = std::remove_reference_t<Visit>;
  return forEachDnfCube(
      f,
      [](void* ctx, const CubeView& cube) -> bool {
        return (*static_cast<V*>(ctx))(cube);
      },
      const_cast<void*>(static_cast<const void*>(&visit)));
}

/// Rebuilds a Formula from a DNF.
Formula fromDnf(const std::vector<Cube>& dnf);

/// Sound under-approximation of ∃ vars . f — used by the §5 containment
/// reduction, where c-variables of the *subsuming* constraint program are
/// rule-scoped existentials.
///
/// Per DNF cube: equalities binding an existential variable are
/// eliminated by substitution; residual disequalities `v != c` over an
/// unbounded-domain existential are dropped (a witness always exists).
/// A cube whose existential part cannot be eliminated soundly is dropped
/// entirely, so
/// the result R always satisfies R ⇒ ∃vars.f (callers testing
/// `premise ⇒ ∃vars.f` via R stay sound and may only lose completeness).
Formula projectExistentials(const Formula& f, const std::vector<CVarId>& vars,
                            const CVarRegistry& reg,
                            size_t maxCubes = 4096);

}  // namespace faure::smt
