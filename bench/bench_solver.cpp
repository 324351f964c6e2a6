// Solver micro-benchmarks: the native decision procedure vs the Z3
// backend on the condition corpora fauré actually generates (§6 step 3
// ablation). The gap explains the paper's Table-4 "Z3" columns.
#include <benchmark/benchmark.h>

#include "smt/solver.hpp"
#include "smt/verdict_cache.hpp"
#include "smt/z3_solver.hpp"
#include "util/rng.hpp"

namespace faure::smt {
namespace {

/// Corpus of reachability-style conditions: conjunctions/disjunctions of
/// bit equalities plus a linear pattern atom, like the q6 pipeline emits.
std::vector<Formula> reachabilityCorpus(const CVarRegistry& reg,
                                        const std::vector<CVarId>& bits,
                                        size_t n) {
  (void)reg;
  util::Rng rng(7);
  std::vector<Formula> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<Formula> guards;
    size_t paths = 1 + rng.below(3);
    for (size_t p = 0; p < paths; ++p) {
      std::vector<Formula> conj;
      for (size_t b = 0; b < bits.size(); ++b) {
        if (rng.chance(0.6)) {
          conj.push_back(Formula::cmp(Value::cvar(bits[b]), CmpOp::Eq,
                                      Value::fromInt(rng.range(0, 1))));
        }
      }
      guards.push_back(Formula::conj(std::move(conj)));
    }
    Formula cond = Formula::disj(std::move(guards));
    // Failure pattern: x + y + z = 1.
    cond = Formula::conj2(
        cond, Formula::lin(LinTerm::make({{bits[0], 1}, {bits[1], 1},
                                          {bits[2], 1}},
                                         -1),
                           CmpOp::Eq));
    out.push_back(std::move(cond));
  }
  return out;
}

struct Fixture {
  CVarRegistry reg;
  std::vector<CVarId> bits;
  std::vector<Formula> corpus;

  Fixture() {
    for (int i = 0; i < 4; ++i) {
      bits.push_back(reg.declareInt("b" + std::to_string(i) + "_", 0, 1));
    }
    corpus = reachabilityCorpus(reg, bits, 256);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_NativeSolverReachabilityConditions(benchmark::State& state) {
  Fixture& f = fixture();
  NativeSolver solver(f.reg);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.check(f.corpus[i++ % f.corpus.size()]));
  }
}
BENCHMARK(BM_NativeSolverReachabilityConditions);

void BM_Z3SolverReachabilityConditions(benchmark::State& state) {
  Fixture& f = fixture();
  auto z3 = makeZ3Solver(f.reg);
  if (z3 == nullptr) {
    state.SkipWithError("built without Z3");
    return;
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(z3->check(f.corpus[i++ % f.corpus.size()]));
  }
}
BENCHMARK(BM_Z3SolverReachabilityConditions);

void BM_NativeSolverCachedReachabilityConditions(benchmark::State& state) {
  // Steady state of the verdict cache on the same corpus: after one
  // sweep every check is a hit, so the loop measures pure replay cost
  // (lookup + accountCacheHit). The physical/logical counters quantify
  // how much decision-procedure work the cache removed.
  Fixture& f = fixture();
  NativeSolver solver(f.reg);
  VerdictCache cache(f.reg, size_t{1} << 16);
  solver.setVerdictCache(&cache);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.check(f.corpus[i++ % f.corpus.size()]));
  }
  const VerdictCache::Stats cs = cache.stats();
  state.counters["logical_checks"] =
      static_cast<double>(solver.stats().checks);
  state.counters["physical_checks"] =
      static_cast<double>(solver.stats().checks - cs.hits);
  state.counters["cache_hits"] = static_cast<double>(cs.hits);
  state.counters["cache_misses"] = static_cast<double>(cs.misses);
}
BENCHMARK(BM_NativeSolverCachedReachabilityConditions);

void BM_NativeImplication(benchmark::State& state) {
  Fixture& f = fixture();
  NativeSolver solver(f.reg);
  size_t i = 0;
  for (auto _ : state) {
    const Formula& a = f.corpus[i % f.corpus.size()];
    const Formula& b = f.corpus[(i + 1) % f.corpus.size()];
    benchmark::DoNotOptimize(solver.implies(a, b));
    ++i;
  }
}
BENCHMARK(BM_NativeImplication);

void BM_NativeWideImplication(benchmark::State& state) {
  // The Table-4 merge-subsumption shape: a ⇒ b1 ∨ … ∨ bn over link bits,
  // each bi a two-link path guard (x_i = 1 ∧ x_{i+1} = 0). Its check
  // a ∧ ¬b1 ∧ … ∧ ¬bn has 2^n cubes. With holds=0 the implication fails
  // and the solver may stop at the first Sat cube. With holds=1 the
  // disjuncts x_1 = 1 and x_1 = 0 are added: no syntactic fold sees that
  // they cover every world, so every cube is visited and found Unsat.
  const size_t n = static_cast<size_t>(state.range(0));
  const bool holds = state.range(1) != 0;
  CVarRegistry reg;
  std::vector<CVarId> x;
  for (size_t i = 0; i < n; ++i) {
    x.push_back(reg.declareInt("x" + std::to_string(i) + "_", 0, 1));
  }
  auto bit = [&](size_t i, int64_t v) {
    return Formula::cmp(Value::cvar(x[i % n]), CmpOp::Eq, Value::fromInt(v));
  };
  Formula a = bit(0, 1);
  std::vector<Formula> paths;
  if (holds) {
    paths.push_back(bit(1, 1));
    paths.push_back(bit(1, 0));
  }
  for (size_t i = 0; i < n; ++i) {
    paths.push_back(Formula::conj2(bit(i, 1), bit(i + 1, 0)));
  }
  Formula b = Formula::disj(std::move(paths));
  NativeSolver solver(reg);
  bool last = false;
  for (auto _ : state) {
    last = solver.implies(a, b);
    benchmark::DoNotOptimize(last);
  }
  if (last != holds) state.SkipWithError("unexpected implication verdict");
}
BENCHMARK(BM_NativeWideImplication)
    ->ArgsProduct({{4, 8, 11}, {0, 1}})
    ->ArgNames({"n", "holds"});

void BM_NativeCachedImplication(benchmark::State& state) {
  // implies() memoizes per ordered (a, b) pair; the corpus gives 256
  // distinct pairs, so steady state is all hits.
  Fixture& f = fixture();
  NativeSolver solver(f.reg);
  VerdictCache cache(f.reg, size_t{1} << 16);
  solver.setVerdictCache(&cache);
  size_t i = 0;
  for (auto _ : state) {
    const Formula& a = f.corpus[i % f.corpus.size()];
    const Formula& b = f.corpus[(i + 1) % f.corpus.size()];
    benchmark::DoNotOptimize(solver.implies(a, b));
    ++i;
  }
  const VerdictCache::Stats cs = cache.stats();
  state.counters["logical_checks"] =
      static_cast<double>(solver.stats().checks);
  state.counters["cache_hits"] = static_cast<double>(cs.hits);
  state.counters["cache_misses"] = static_cast<double>(cs.misses);
}
BENCHMARK(BM_NativeCachedImplication);

void BM_NativeUnsatConjunction(benchmark::State& state) {
  // The common pruning case: a guard conjoined with its complement bit.
  Fixture& f = fixture();
  NativeSolver solver(f.reg);
  Formula contradiction = Formula::conj2(
      Formula::lin(LinTerm::make(
                       {{f.bits[0], 1}, {f.bits[1], 1}, {f.bits[2], 1}}, -3),
                   CmpOp::Eq),
      Formula::cmp(Value::cvar(f.bits[0]), CmpOp::Eq, Value::fromInt(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.check(contradiction));
  }
}
BENCHMARK(BM_NativeUnsatConjunction);

void BM_DnfConversion(benchmark::State& state) {
  Fixture& f = fixture();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(toDnf(f.corpus[i++ % f.corpus.size()], 4096));
  }
}
BENCHMARK(BM_DnfConversion);

void BM_ModelEnumeration(benchmark::State& state) {
  Fixture& f = fixture();
  size_t i = 0;
  for (auto _ : state) {
    size_t models = 0;
    forEachModel(f.corpus[i++ % f.corpus.size()], f.reg, f.bits,
                 [&](const Assignment&) { ++models; });
    benchmark::DoNotOptimize(models);
  }
}
BENCHMARK(BM_ModelEnumeration);

}  // namespace
}  // namespace faure::smt

BENCHMARK_MAIN();
