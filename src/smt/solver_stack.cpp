#include "smt/solver_stack.hpp"

#include "obs/trace.hpp"
#include "smt/z3_solver.hpp"
#include "util/error.hpp"

namespace faure::smt {

SolverStack buildSolverStack(const CVarRegistry& reg,
                             const SolverStackOptions& opts,
                             VerdictCache* shared) {
  SolverStack stack;
  if (opts.backend == "z3") {
    stack.solver = requireZ3Solver(reg);
  } else if (opts.backend == "native") {
    stack.solver = std::make_unique<NativeSolver>(reg, opts.native);
  } else {
    throw EvalError("unknown solver '" + opts.backend + "'");
  }
  if (shared == nullptr && opts.cacheEntries > 0) {
    stack.cache = std::make_unique<VerdictCache>(reg, opts.cacheEntries);
    shared = stack.cache.get();
  }
  stack.solver->setVerdictCache(shared);
  if (opts.supervision.enabled) {
    // The wrapper adopts the backend's cache: caching lives on the
    // outermost layer only.
    auto sup = std::make_unique<SupervisedSolver>(reg, opts.supervision);
    sup->addBackend(opts.backend, std::move(stack.solver));
    if (opts.supervision.failover) sup->addNativeFallback();
    stack.solver = std::move(sup);
  }
  return stack;
}

void attachGuardAndTracer(SolverBase& solver, ResourceGuard& guard,
                          obs::Tracer* tracer) {
  solver.setTracer(tracer);
  solver.setGuard(guard.active() ? &guard : nullptr);
  if (tracer == nullptr) {
    guard.onTrip(nullptr);
    return;
  }
  guard.onTrip([tracer](Budget, const std::string& reason) {
    tracer->event("budget.trip", reason);
  });
}

}  // namespace faure::smt
