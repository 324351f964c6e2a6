// Reproduction of Table 4 (§6): running time of reachability analysis
// (q4-q8, Listing 2) on four RIB-derived forwarding states.
//
// The paper ran PostgreSQL + Z3 on a 1.4 GHz laptop against the
// route-views2 RIB (sizes 1000 / 10000 / 100000 / 922067 prefixes, '-' =
// over 2 hours). This harness runs the native engine on the synthetic
// RIB generator (DESIGN.md documents the substitution) and prints both
// the measured rows and the paper's rows for shape comparison:
//   - solver time exceeds relational ("sql") time per query class,
//   - q6 >> q8 >> q7 in tuple count (pattern selectivity),
//   - times and tuple counts grow roughly linearly in #prefixes.
//
// Sizes: 1000 and 10000 by default; set FAURE_TABLE4_FULL=1 to add
// 100000 (a few minutes) — the 922067-prefix point needs more memory
// than a CI box and is reported as extrapolation in EXPERIMENTS.md.
// FAURE_TABLE4_SIZES=10,20 overrides the size list entirely (CI smoke).
//
// Each run regenerates the RIB so no run sees a predecessor's derived
// tables.
//
// Repeats: every measured configuration — each size's run and its
// cache-off control below — runs kRepeats times, going
// round-robin over all configurations, and the wall recorded (and
// printed) is the median. The printed row and its gauges are those of
// the repeat whose wall is the median. One run at the gate sizes takes a
// few tens of milliseconds, short enough to land wholly in a slow
// stretch of the host; round-robin makes every configuration's median
// sample the same stretch, which matters because tools/bench_check.py
// divides all walls by one of them. Counters in the report add up all
// repeats.
//
// Solver verdict cache: every size's run attaches a fresh
// VerdictCache sized by FAURE_SOLVER_CACHE (0 disables). The cached row
// records `table4[N].solver.cache.{hits,misses,evictions}` plus
// `table4[N].solver_checks_{logical,physical}` (physical = logical -
// hits: a hit replays a verdict without running the decision
// procedure), and each size gets one extra cache-off pass
// recorded as `table4[N].nocache.wall_seconds` so the gated baseline
// (tools/bench_check.py) tracks both configurations.
//
// Resource governance: the FAURE_DEADLINE / FAURE_MAX_* / FAURE_FAIL_AFTER
// knobs (util/resource_guard.hpp) budget each size's pipeline run; rows
// that hit a budget are annotated with the trip reason and count instead
// of the paper's silent '-'.
//
// Besides the console tables, the run is traced (obs/) and exported as a
// machine-readable run report — per-query sql/solver/tuple gauges and the
// full metric registry — to BENCH_table4.json (override the path with
// FAURE_BENCH_JSON; set it to "0" to skip the file). The report is the
// span-free bench summary; FAURE_BENCH_FULL_SPANS=1 restores the raw
// `table4[size=N]` span tree. FAURE_BENCH_TRACE=0 detaches the tracer
// entirely — the timing configuration for overhead comparisons (no
// report file).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>

#include "net/pipeline.hpp"
#include "obs/report.hpp"
#include "smt/solver_stack.hpp"
#include "smt/z3_solver.hpp"
#include "util/resource_guard.hpp"
#include "util/timer.hpp"

using namespace faure;

namespace {

struct PaperRow {
  size_t prefixes;
  const char* q45sql;
  const char* q6sql;
  const char* q6z3;
  const char* q6tuples;
  const char* q7sql;
  const char* q7z3;
  const char* q7tuples;
  const char* q8sql;
  const char* q8z3;
  const char* q8tuples;
};

const PaperRow kPaper[] = {
    {1000, "0.625", "0.85", "796.35", "42425", "0.08", "0.27", "16", "0.15",
     "12.64", "828"},
    {10000, "5.75", "8.96", "-", "418224", "0.27", "3.41", "194", "1.8",
     "137.05", "8706"},
    {100000, "54.85", "113.48", "-", "4435862", "1.66", "25.22", "1387",
     "34.67", "1941.04", "86360"},
    {922067, "816.4", "4169.02", "-", "46503247", "11.1", "288.17", "16490",
     "267.05", "-", "858180"},
};

void printPaperTable() {
  std::printf(
      "---- paper (PostgreSQL + Z3, 1.4 GHz laptop, route-views2 RIB; "
      "seconds; '-' = over 2h) ----\n");
  std::printf("%9s | %9s | %9s %9s %9s | %9s %9s %7s | %9s %9s %8s\n",
              "#prefix", "q4-q5 sql", "q6 sql", "q6 Z3", "#tuples", "q7 sql",
              "q7 Z3", "#tuples", "q8 sql", "q8 Z3", "#tuples");
  for (const auto& r : kPaper) {
    std::printf("%9zu | %9s | %9s %9s %9s | %9s %9s %7s | %9s %9s %8s\n",
                r.prefixes, r.q45sql, r.q6sql, r.q6z3, r.q6tuples, r.q7sql,
                r.q7z3, r.q7tuples, r.q8sql, r.q8z3, r.q8tuples);
  }
}

/// Records one pipeline row into the registry under a size-scoped prefix,
/// e.g. `table4[1000].q6.solver_seconds`.
void recordRow(obs::Registry& reg, size_t n, const net::Table4Result& r,
               double wallSeconds) {
  const std::string base = "table4[" + std::to_string(n) + "].";
  auto query = [&](const char* name, const net::QueryTiming& t) {
    reg.gauge(base + name + ".sql_seconds").set(t.sqlSeconds);
    reg.gauge(base + name + ".solver_seconds").set(t.solverSeconds);
    reg.gauge(base + name + ".tuples").set(static_cast<double>(t.tuples));
  };
  query("q45", r.q45);
  query("q6", r.q6);
  query("q7", r.q7);
  query("q8", r.q8);
  reg.gauge(base + "wall_seconds").set(wallSeconds);
}

std::vector<size_t> parseList(const char* text) {
  std::vector<size_t> out;
  for (const char* p = text; *p != '\0';) {
    char* end = nullptr;
    unsigned long long n = std::strtoull(p, &end, 10);
    if (end == p) break;
    if (n > 0) out.push_back(static_cast<size_t>(n));
    p = (*end == ',') ? end + 1 : end;
  }
  return out;
}

/// Runs of each configuration; the report carries the median walls.
constexpr size_t kRepeats = 9;

/// One pipeline run on a freshly generated RIB.
struct Run {
  double wall = 0.0;
  net::Table4Result result;
  smt::SolverStats solver;
  smt::VerdictCache::Stats cache;
  bool governed = false;
};

/// One measured configuration and its repeats.
struct Config {
  size_t n = 0;
  bool nocache = false;
  std::vector<Run> runs;

  /// The repeat whose wall is the median.
  const Run& median() const {
    std::vector<size_t> order(runs.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    auto mid = order.begin() + order.size() / 2;
    std::nth_element(order.begin(), mid, order.end(), [&](size_t a, size_t b) {
      return runs[a].wall < runs[b].wall;
    });
    return runs[*mid];
  }
};

Run runOnce(const Config& c, size_t cacheEntries, const ResourceLimits& limits,
            obs::Tracer* tracer) {
  // Fresh state per run: a previous run stored its derived R/T1/T2/T3
  // back into the database, which would seed — and skew — a repeat on
  // the same instance.
  net::RibConfig cfg;
  cfg.numPrefixes = c.n;
  rel::Database db;
  net::RibGenResult rib = net::generateRib(db, cfg);
  smt::SolverStackOptions sopts;
  sopts.cacheEntries = c.nocache ? 0 : cacheEntries;
  smt::SolverStack stack = smt::buildSolverStack(db.cvars(), sopts);
  ResourceGuard guard(limits);
  smt::attachGuardAndTracer(*stack.solver, guard, tracer);
  fl::EvalOptions opts;
  opts.tracer = tracer;
  if (guard.active()) opts.guard = &guard;
  std::string tag = "table4[size=" + std::to_string(c.n) + "]";
  if (c.nocache) tag += "[nocache]";
  Run run;
  util::Stopwatch watch;
  {
    obs::Span span(tracer, tag);
    run.result = net::runTable4(db, rib, *stack.solver, opts);
  }
  run.wall = watch.elapsed();
  run.solver = stack.solver->stats();
  if (stack.cache != nullptr) run.cache = stack.cache->stats();
  run.governed = guard.active();
  return run;
}

}  // namespace

int main() {
  printPaperTable();

  std::vector<size_t> sizes = {1000, 10000};
  if (const char* full = std::getenv("FAURE_TABLE4_FULL");
      full != nullptr && full[0] == '1') {
    sizes.push_back(100000);
  }
  if (const char* list = std::getenv("FAURE_TABLE4_SIZES");
      list != nullptr && list[0] != '\0') {
    sizes = parseList(list);
    if (sizes.empty()) sizes = {1000, 10000};
  }

  obs::Tracer tracer;
  bool traceOn = true;
  if (const char* t = std::getenv("FAURE_BENCH_TRACE");
      t != nullptr && t[0] == '0') {
    traceOn = false;
  }

  std::printf(
      "\n---- this implementation (native engine + native solver, "
      "synthetic RIB; median of %zu runs) ----\n%s\n",
      kRepeats, net::table4Header().c_str());
  ResourceLimits limits = ResourceLimits::fromEnv();
  const size_t cacheEntries = smt::VerdictCache::capacityFromEnv();

  // Per size: the cached run, then the cache-off control (same size,
  // no VerdictCache, so the report carries both configurations for the
  // gated baseline).
  std::vector<Config> configs;
  for (size_t n : sizes) {
    configs.push_back(Config{n, false, {}});
    if (cacheEntries > 0) configs.push_back(Config{n, true, {}});
  }
  obs::Tracer* tp = traceOn ? &tracer : nullptr;
  for (size_t r = 0; r < kRepeats; ++r) {
    for (Config& c : configs) {
      c.runs.push_back(runOnce(c, cacheEntries, limits, tp));
    }
  }

  double cachedWall = 0.0;  // of the current size
  for (const Config& c : configs) {
    const Run& run = c.median();
    const net::Table4Result& r = run.result;
    const double wall = run.wall;
    const size_t n = c.n;
    if (c.nocache) {
      if (traceOn) {
        tracer.metrics()
            .gauge("table4[" + std::to_string(n) + "].nocache.wall_seconds")
            .set(wall);
        tracer.metrics()
            .gauge("table4[" + std::to_string(n) +
                   "].nocache.solver_checks_physical")
            .set(static_cast<double>(run.solver.checks));
      }
      std::printf("%s   (cache off", net::formatTable4Row(n, r).c_str());
      if (cachedWall > 0.0 && wall > 0.0) {
        std::printf(", cached is %.2fx", wall / cachedWall);
      }
      std::printf(")\n");
    } else {
      cachedWall = wall;
      if (traceOn) recordRow(tracer.metrics(), n, r, wall);
      std::printf("%s\n", net::formatTable4Row(n, r).c_str());
      if (cacheEntries > 0) {
        // Cache accounting: every cache hit is one logical check that
        // skipped the decision procedure, so physical = logical - hits.
        const smt::VerdictCache::Stats& cs = run.cache;
        const uint64_t logical = run.solver.checks;
        const uint64_t physical = logical - cs.hits;
        std::printf(
            "%9s cache: %llu/%llu physical/logical checks, %llu hits, "
            "%llu misses, %llu evictions\n",
            "", static_cast<unsigned long long>(physical),
            static_cast<unsigned long long>(logical),
            static_cast<unsigned long long>(cs.hits),
            static_cast<unsigned long long>(cs.misses),
            static_cast<unsigned long long>(cs.evictions));
        if (traceOn) {
          obs::Registry& reg = tracer.metrics();
          const std::string base = "table4[" + std::to_string(n) + "].";
          reg.gauge(base + "solver.cache.hits")
              .set(static_cast<double>(cs.hits));
          reg.gauge(base + "solver.cache.misses")
              .set(static_cast<double>(cs.misses));
          reg.gauge(base + "solver.cache.evictions")
              .set(static_cast<double>(cs.evictions));
          reg.gauge(base + "solver_checks_logical")
              .set(static_cast<double>(logical));
          reg.gauge(base + "solver_checks_physical")
              .set(static_cast<double>(physical));
        }
      }
    }
    if (run.governed && !c.nocache) {
      std::printf(
          "%9s governed: %s, %llu eval budget-trips, %llu degraded solver "
          "checks\n",
          "", r.incomplete ? r.degradeReason.c_str() : "within budget",
          static_cast<unsigned long long>(r.budgetTrips),
          static_cast<unsigned long long>(run.solver.budgetTrips));
    }
    std::fflush(stdout);
  }

  const char* jsonPath = std::getenv("FAURE_BENCH_JSON");
  if (jsonPath == nullptr) jsonPath = "BENCH_table4.json";
  if (traceOn && std::strcmp(jsonPath, "0") != 0) {
    obs::ReportMeta meta;
    meta.command = "bench.table4";
    std::string sizeList;
    for (size_t n : sizes) {
      if (!sizeList.empty()) sizeList += ",";
      sizeList += std::to_string(n);
    }
    meta.add("sizes", sizeList);
    meta.add("solver_cache", std::to_string(cacheEntries));
    std::ofstream out(jsonPath);
    if (out) {
      out << obs::benchReportJson(tracer, meta);
      std::printf("\nrun report written to %s\n", jsonPath);
    } else {
      std::fprintf(stderr, "cannot write '%s'\n", jsonPath);
    }
  }

  // The paper's own backend: per-derived-tuple Z3 checks. One (small)
  // size is enough to show the orders-of-magnitude gap that dominates
  // Table 4's solver columns.
  if (smt::z3Available()) {
    std::printf(
        "\n---- ablation: Z3 as the condition solver (paper-faithful "
        "backend) ----\n%s\n",
        net::table4Header().c_str());
    net::RibConfig cfg;
    cfg.numPrefixes = 100;
    rel::Database db;
    net::RibGenResult rib = net::generateRib(db, cfg);
    auto z3 = smt::makeZ3Solver(db.cvars());
    net::Table4Result r = net::runTable4(db, rib, *z3);
    std::printf("%s\n", net::formatTable4Row(cfg.numPrefixes, r).c_str());
    std::printf(
        "(solver column dominates sql exactly as in the paper's Table 4)\n");
  }
  return 0;
}
