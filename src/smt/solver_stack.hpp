// One way to build a condition-solver stack (DESIGN.md §9).
//
// Every entry point (the CLI commands, Session, scenario forks, the
// verifier's per-rule containment) wraps its solver the same way:
//
//   backend ("native" | "z3")
//     → verdict cache (bounded LRU; created here or shared by the caller)
//     → SupervisedSolver + native fallback, when supervision is enabled
//
// SolverStackOptions describes that chain and buildSolverStack() builds
// it; attachGuardAndTracer() then wires one operation's ResourceGuard
// and tracer into it. The cache always sits on the outermost layer, so
// verdicts shaped by supervision never reach it.
#pragma once

#include <memory>
#include <string>

#include "smt/solver.hpp"
#include "smt/supervised_solver.hpp"
#include "smt/verdict_cache.hpp"

namespace faure::smt {

struct SolverStackOptions {
  /// "native" or "z3".
  std::string backend = "native";
  /// Configuration of a native backend (ignored for "z3").
  NativeSolver::Options native;
  /// Verdict-cache capacity in LRU entries; 0 builds no cache. Follows
  /// FAURE_SOLVER_CACHE like every entry point (default 65536).
  size_t cacheEntries = VerdictCache::capacityFromEnv();
  /// Wraps the backend in a SupervisedSolver (plus a native last resort
  /// when `failover` holds) only when `enabled`.
  SupervisionOptions supervision;
};

/// An owned solver chain. `cache` is the verdict cache the builder
/// created (null when it adopted a shared one or built none); it is
/// declared first so it outlives the solver that points at it.
struct SolverStack {
  std::unique_ptr<VerdictCache> cache;
  std::unique_ptr<SolverBase> solver;
};

/// Builds backend → cache → supervision as `opts` describes, over `reg`.
/// A non-null `shared` cache is adopted instead of creating one (it must
/// be bound to `reg` and outlive the stack). Throws EvalError for an
/// unknown backend name and SolverBackendError for "z3" in a build
/// without Z3.
SolverStack buildSolverStack(const CVarRegistry& reg,
                             const SolverStackOptions& opts,
                             VerdictCache* shared = nullptr);

/// Attaches `tracer` to the stack's outermost layer and `guard` too while
/// it is armed (an unarmed guard governs nothing). With a tracer, the
/// guard's budget trips become `budget.trip` events carrying its reason;
/// a null tracer detaches that observer.
void attachGuardAndTracer(SolverBase& solver, ResourceGuard& guard,
                          obs::Tracer* tracer);

}  // namespace faure::smt
