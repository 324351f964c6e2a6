// C-table algebra micro-benchmarks and the loss-less-modeling payoff
// (§4): one query over a single c-table vs the same query repeated over
// every possible world.
#include <benchmark/benchmark.h>

#include "datalog/parser.hpp"
#include "datalog/pure_eval.hpp"
#include "faurelog/eval.hpp"
#include "net/frr.hpp"
#include "relational/algebra.hpp"
#include "relational/worlds.hpp"
#include "util/rng.hpp"

namespace faure {
namespace {

rel::Schema anySchema(const std::string& name, size_t arity) {
  std::vector<rel::Attribute> attrs(arity);
  for (size_t i = 0; i < arity; ++i) {
    attrs[i] = rel::Attribute{"a" + std::to_string(i), ValueType::Any};
  }
  return rel::Schema(name, attrs);
}

/// A conditional table over `nBits` failure bits with `rows` rows.
struct TableFixture {
  rel::Database db;
  std::vector<CVarId> bits;

  TableFixture(size_t rows, size_t nBits) {
    for (size_t i = 0; i < nBits; ++i) {
      bits.push_back(db.cvars().declareInt("b" + std::to_string(i) + "_",
                                           0, 1));
    }
    util::Rng rng(5);
    auto& t = db.create(anySchema("T", 2));
    for (size_t i = 0; i < rows; ++i) {
      smt::Formula cond = smt::Formula::cmp(
          Value::cvar(bits[rng.below(nBits)]), smt::CmpOp::Eq,
          Value::fromInt(rng.range(0, 1)));
      t.insert({Value::fromInt(static_cast<int64_t>(rng.below(rows / 2 + 1))),
                Value::fromInt(static_cast<int64_t>(rng.below(rows / 2 + 1)))},
               cond);
    }
  }
};

void BM_CTableSelect(benchmark::State& state) {
  TableFixture f(static_cast<size_t>(state.range(0)), 8);
  for (auto _ : state) {
    auto out = rel::select(f.db.table("T"), 0, smt::CmpOp::Eq,
                           Value::fromInt(3));
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_CTableSelect)->Arg(1000)->Arg(10000);

void BM_CTableJoin(benchmark::State& state) {
  TableFixture f(static_cast<size_t>(state.range(0)), 8);
  for (auto _ : state) {
    auto out = rel::join(f.db.table("T"), f.db.table("T"), {{1, 0}}, "J");
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_CTableJoin)->Arg(100)->Arg(400);

void BM_CTableProject(benchmark::State& state) {
  TableFixture f(static_cast<size_t>(state.range(0)), 8);
  for (auto _ : state) {
    auto out = rel::project(f.db.table("T"), {0}, "P");
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_CTableProject)->Arg(1000)->Arg(10000);

void BM_CTableDifference(benchmark::State& state) {
  TableFixture f(static_cast<size_t>(state.range(0)), 8);
  for (auto _ : state) {
    auto out = rel::difference(f.db.table("T"), f.db.table("T"), "D");
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_CTableDifference)->Arg(100)->Arg(200);

void BM_PruneUnsat(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    TableFixture f(static_cast<size_t>(state.range(0)), 8);
    auto joined = rel::join(f.db.table("T"), f.db.table("T"), {{1, 0}}, "J");
    smt::NativeSolver solver(f.db.cvars());
    state.ResumeTiming();
    benchmark::DoNotOptimize(rel::pruneUnsat(joined, solver));
  }
}
BENCHMARK(BM_PruneUnsat)->Arg(100);

// ---- The data-part table: derive's pattern. Before each append the
// ---- evaluator asks for the part's merged condition (subsumption), so
// ---- a part with k rows is looked up k times while it grows.

void BM_ConditionOfThenAppend(benchmark::State& state) {
  const auto k = static_cast<size_t>(state.range(0));
  const size_t parts = 4096 / k;
  CVarRegistry reg;
  const CVarId x = reg.declare("x_", ValueType::Int);
  std::vector<std::vector<Value>> data;
  for (size_t p = 0; p < parts; ++p) {
    data.push_back({Value::fromInt(static_cast<int64_t>(p)),
                    Value::fromInt(static_cast<int64_t>(p % 7))});
  }
  // Row j of every part carries its own atom, so a part's condition
  // grows to a k-way disjunction.
  std::vector<smt::Formula> conds;
  for (size_t j = 0; j < k; ++j) {
    conds.push_back(smt::Formula::cmp(Value::cvar(x), smt::CmpOp::Eq,
                                      Value::fromInt(static_cast<int64_t>(j))));
  }
  for (auto _ : state) {
    rel::CTable t(anySchema("T", 2));
    // Round-robin over the parts, as the rounds of a fixpoint append.
    for (size_t j = 0; j < k; ++j) {
      for (size_t p = 0; p < parts; ++p) {
        benchmark::DoNotOptimize(t.conditionOf(data[p]));
        t.append(data[p], conds[j]);
      }
    }
    benchmark::DoNotOptimize(t.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(parts * k));
}
BENCHMARK(BM_ConditionOfThenAppend)->Arg(1)->Arg(8)->Arg(64);

// ---- The loss-less payoff (§4): reachability over an FRR chain with k
// ---- protected links — one c-table query vs 2^k explicit worlds.

/// Chain 1 -> 2 -> ... -> k+1 where hop i is protected by bit bi_ and
/// detours through a dedicated backup node when the bit is 0.
void buildChain(rel::Database& db, size_t k) {
  net::FrrNetwork netw;
  for (size_t i = 1; i <= k; ++i) {
    std::string bit = "b" + std::to_string(i) + "_";
    int64_t from = static_cast<int64_t>(i);
    int64_t to = static_cast<int64_t>(i + 1);
    int64_t detour = static_cast<int64_t>(1000 + i);
    netw.add("f0", {from, to, bit, 1});
    netw.add("f0", {from, detour, bit, 0});
    netw.add("f0", {detour, to, "", 1});
  }
  netw.buildForwarding(db);
}

const char* kReach =
    "R(f,n1,n2) :- F(f,n1,n2).\n"
    "R(f,n1,n2) :- F(f,n1,n3), R(f,n3,n2).\n";

void BM_LossLessSingleCTableQuery(benchmark::State& state) {
  rel::Database db;
  buildChain(db, static_cast<size_t>(state.range(0)));
  dl::Program p = dl::parseProgram(kReach, db.cvars());
  for (auto _ : state) {
    smt::NativeSolver solver(db.cvars());
    auto res = fl::evalFaure(p, db, &solver, fl::EvalOptions{});
    benchmark::DoNotOptimize(res.relation("R").size());
  }
}
// k = 12 is feasible but takes minutes: on this adversarial chain the
// exact per-pair conditions genuinely contain 2^(j-i) cubes, so the
// symbolic representation grows as fast as the world count (see
// EXPERIMENTS.md for the honest discussion).
BENCHMARK(BM_LossLessSingleCTableQuery)->Arg(3)->Arg(6)->Arg(9);

void BM_LossLessWorldEnumeration(benchmark::State& state) {
  // The de-facto complete approach: enumerate every concrete data plane
  // (2^k of them) and run pure datalog on each.
  rel::Database db;
  buildChain(db, static_cast<size_t>(state.range(0)));
  CVarRegistry pureReg;
  dl::Program p = dl::parseProgram(kReach, pureReg);
  for (auto _ : state) {
    size_t total = 0;
    rel::forEachWorld(db, 1u << 20,
                      [&](const smt::Assignment&, const rel::World& world) {
                        rel::Database ground;
                        auto& table = ground.create(anySchema("F", 3));
                        for (const auto& row : world.at("F")) {
                          table.insertConcrete(row);
                        }
                        auto res = dl::evalPure(p, ground);
                        total += res.relation("R").size();
                      });
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_LossLessWorldEnumeration)->Arg(3)->Arg(6)->Arg(9)->Arg(12);

// ---- Where the c-table approach wins decisively: many *independent*
// ---- uncertainty sources. N Figure-1 gadgets (one per flow), each with
// ---- its own 3 failure bits: the world count is 8^N while the c-table
// ---- representation and query cost stay linear in N.

void buildGadgets(rel::Database& db, size_t n) {
  net::FrrNetwork netw;
  for (size_t g = 0; g < n; ++g) {
    std::string flow = "f" + std::to_string(g);
    std::string x = "x" + std::to_string(g) + "_";
    std::string y = "y" + std::to_string(g) + "_";
    std::string z = "z" + std::to_string(g) + "_";
    netw.add(flow, {1, 2, x, 1});
    netw.add(flow, {1, 3, x, 0});
    netw.add(flow, {2, 3, y, 1});
    netw.add(flow, {2, 4, y, 0});
    netw.add(flow, {3, 5, z, 1});
    netw.add(flow, {3, 4, z, 0});
    netw.add(flow, {4, 5, "", 1});
  }
  netw.buildForwarding(db);
}

void BM_IndependentGadgetsSingleQuery(benchmark::State& state) {
  rel::Database db;
  buildGadgets(db, static_cast<size_t>(state.range(0)));
  dl::Program p = dl::parseProgram(kReach, db.cvars());
  for (auto _ : state) {
    smt::NativeSolver solver(db.cvars());
    auto res = fl::evalFaure(p, db, &solver, fl::EvalOptions{});
    benchmark::DoNotOptimize(res.relation("R").size());
  }
}
BENCHMARK(BM_IndependentGadgetsSingleQuery)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64);

void BM_IndependentGadgetsEnumeration(benchmark::State& state) {
  // 8^N worlds: already at N = 4 this is 4096 data planes; N = 16 would
  // be 2.8e14 — the benchmark caps where the complete approach stops
  // being runnable at all.
  rel::Database db;
  buildGadgets(db, static_cast<size_t>(state.range(0)));
  CVarRegistry pureReg;
  dl::Program p = dl::parseProgram(kReach, pureReg);
  for (auto _ : state) {
    size_t total = 0;
    bool ok = rel::forEachWorld(
        db, 1u << 20, [&](const smt::Assignment&, const rel::World& world) {
          rel::Database ground;
          auto& table = ground.create(anySchema("F", 3));
          for (const auto& row : world.at("F")) table.insertConcrete(row);
          auto res = dl::evalPure(p, ground);
          total += res.relation("R").size();
        });
    if (!ok) state.SkipWithError("world space too large to enumerate");
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_IndependentGadgetsEnumeration)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

}  // namespace
}  // namespace faure

BENCHMARK_MAIN();
