// Cost-based join planning benchmark (DESIGN.md "Cost-based join
// planning").
//
// Synthesises a join-heavy workload where program order is the wrong
// order and per-firing index rebuilds dominate:
//
//   T(x,z)   :- A(x,y), B(y,z), C(z).    (selective C listed last)
//   Reach(b) :- Src(b).
//   Reach(b) :- Reach(a), L(a,b).        (N-round chain recursion)
//
// A and B carry N rows each (y bucketed into kBuckets values, so the
// program-order A x B prefix is ~N^2/kBuckets combinations before the
// ~N/50-row C filters anything), a few A rows hold c-variable data so
// the wild-row path of the persistent indexes is exercised, and the
// chain rule re-probes L once per fixpoint round — the case where a
// per-firing local index costs O(N) per round but a persistent
// rel::JoinIndex is built once and only probed after that.
//
// Each size runs in two modes:
//
//   plan   — EvalOptions::plan = PlanMode::On: greedy selectivity
//            reorder plus persistent indexes. Recorded as
//            `join[N].wall_seconds`; the smallest size's entry is the
//            calibration unit for tools/bench_check.py --family join
//            against bench/baseline_join.json.
//   noplan — PlanMode::Off, the pristine program-order path. Recorded
//            as `join[N].noplan.wall_seconds` plus a speedup gauge.
//
// Each mode runs FAURE_JOIN_REPS times per size, alternating noplan and
// plan (the first of the pair swaps every repeat) and going round-robin
// over the sizes, and the walls recorded (and printed) are the medians:
// the calibration entry is a few milliseconds, so one burst of host
// noise must not decide it, and every entry samples the same stretch of
// time as the entry the gate divides by.
//
// Every run's derived tables are rendered to text in both modes and the
// harness aborts on any byte difference, so a bench run is also a
// planner byte-identity check on a workload larger than the data/
// fixtures. After the timed runs the planned mode repeats once under a
// tracer so the report carries the eval.plan.* counters.
//
// Knobs: FAURE_JOIN_SIZES (default "600,1200"), FAURE_JOIN_REPS
// (runs per mode and size, median taken; default 5),
// FAURE_SOLVER_CACHE (verdict cache entries; 0 disables),
// FAURE_BENCH_JSON (report path, default BENCH_join.json, "0" skips),
// FAURE_BENCH_TRACE=0 detaches the tracer. The report is
// the span-free bench summary; FAURE_BENCH_FULL_SPANS=1 restores the
// raw span tree.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "datalog/parser.hpp"
#include "faurelog/eval.hpp"
#include "faurelog/textio.hpp"
#include "obs/report.hpp"
#include "smt/solver_stack.hpp"
#include "util/timer.hpp"

using namespace faure;

namespace {

constexpr const char* kProgram =
    "T(x,z) :- A(x,y), B(y,z), C(z).\n"
    "Reach(b) :- Src(b).\n"
    "Reach(b) :- Reach(a), L(a,b).\n";

constexpr size_t kBuckets = 16;   // distinct y values in A and B
constexpr size_t kWildRows = 4;   // A rows carrying c-variable data

/// The synthetic workload in the textual .fdb format (parsed fresh per
/// mode so neither run sees the other's interner or c-var state).
std::string makeDbText(size_t n) {
  std::string text;
  for (size_t i = 0; i < kWildRows; ++i) {
    text += "var w" + std::to_string(i) + "_ int 0 " +
            std::to_string(kBuckets - 1) + "\n";
  }
  text += "table A(x int, y int)\n";
  text += "table B(y int, z int)\n";
  text += "table C(z int)\n";
  text += "table L(a int, b int)\n";
  text += "table Src(b int)\n";
  for (size_t i = 0; i < n; ++i) {
    text += "row A " + std::to_string(i) + " " +
            std::to_string(i % kBuckets) + "\n";
    text += "row B " + std::to_string(i % kBuckets) + " " +
            std::to_string(i) + "\n";
  }
  // Wild rows: c-variable y values force every probe of A's y column
  // through the index's wild-row list.
  for (size_t i = 0; i < kWildRows; ++i) {
    text += "row A " + std::to_string(n + i) + " w" + std::to_string(i) +
            "_\n";
  }
  for (size_t z = 0; z < n; z += 50) {
    text += "row C " + std::to_string(z) + "\n";
  }
  for (size_t i = 0; i < n; ++i) {
    text += "row L " + std::to_string(i) + " " + std::to_string(i + 1) +
            "\n";
  }
  text += "row Src 0\n";
  return text;
}

struct RunResult {
  double wallSeconds = 0.0;
  std::string rendering;  // every derived table, text form
  bool incomplete = false;
};

/// One evaluation of the program in `plan` mode on a fresh parse.
RunResult runOnce(const std::string& dbText, fl::PlanMode plan,
                  obs::Tracer* tracer) {
  rel::Database db = fl::parseDatabase(dbText);
  dl::Program program = dl::parseProgram(kProgram, db.cvars());
  smt::SolverStack stack = smt::buildSolverStack(db.cvars(), {});
  fl::EvalOptions opts;
  opts.plan = plan;
  opts.tracer = tracer;
  util::Stopwatch watch;
  watch.lap();
  fl::EvalResult res = fl::evalFaure(program, db, stack.solver.get(), opts);
  RunResult out;
  out.wallSeconds = watch.lap();
  out.incomplete = res.incomplete;
  for (const auto& [name, table] : res.idb) {
    out.rendering += name + "\n" + table.toString(&db.cvars()) + "\n";
  }
  return out;
}

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
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

}  // namespace

int main() {
  std::vector<size_t> sizes = {600, 1200};
  if (const char* list = std::getenv("FAURE_JOIN_SIZES");
      list != nullptr && list[0] != '\0') {
    sizes = parseList(list);
    if (sizes.empty()) sizes = {600, 1200};
  }
  size_t reps = 5;
  if (const char* n = std::getenv("FAURE_JOIN_REPS");
      n != nullptr && n[0] != '\0') {
    reps = static_cast<size_t>(std::strtoull(n, nullptr, 10));
    if (reps == 0) reps = 5;
  }

  obs::Tracer tracer;
  bool traceOn = true;
  if (const char* t = std::getenv("FAURE_BENCH_TRACE");
      t != nullptr && t[0] == '0') {
    traceOn = false;
  }

  std::printf(
      "---- cost-based join planning vs program order "
      "(median of %zu evaluations per mode) ----\n",
      reps);
  std::printf("%8s | %12s %12s %8s\n", "#rows", "noplan (s)", "plan (s)",
              "speedup");

  struct SizeRuns {
    std::string dbText;
    std::vector<double> noplanWalls, planWalls;
    bool failed = false;  // incomplete or diverged: no row
  };
  std::vector<SizeRuns> runs(sizes.size());
  for (size_t i = 0; i < sizes.size(); ++i) {
    runs[i].dbText = makeDbText(sizes[i]);
  }
  // Timed runs are untraced: the comparison is the two join paths, not
  // their span overhead.
  bool diverged = false;
  for (size_t rep = 0; rep < reps; ++rep) {
    for (size_t i = 0; i < sizes.size(); ++i) {
      SizeRuns& sr = runs[i];
      if (sr.failed) continue;
      RunResult noplan;
      RunResult plan;
      if (rep % 2 == 0) {
        noplan = runOnce(sr.dbText, fl::PlanMode::Off, nullptr);
        plan = runOnce(sr.dbText, fl::PlanMode::On, nullptr);
      } else {
        plan = runOnce(sr.dbText, fl::PlanMode::On, nullptr);
        noplan = runOnce(sr.dbText, fl::PlanMode::Off, nullptr);
      }
      if (noplan.incomplete || plan.incomplete) {
        std::fprintf(stderr, "size %zu: run incomplete, skipping row\n",
                     sizes[i]);
        sr.failed = true;
        continue;
      }
      if (noplan.rendering != plan.rendering) {
        std::fprintf(stderr,
                     "size %zu: PLANNER DIVERGENCE — planned results are "
                     "not byte-identical to program order\n",
                     sizes[i]);
        sr.failed = true;
        diverged = true;
        continue;
      }
      sr.noplanWalls.push_back(noplan.wallSeconds);
      sr.planWalls.push_back(plan.wallSeconds);
    }
  }

  for (size_t i = 0; i < sizes.size(); ++i) {
    const SizeRuns& sr = runs[i];
    if (sr.failed) continue;
    const size_t n = sizes[i];
    const double noplanSeconds = median(sr.noplanWalls);
    const double planSeconds = median(sr.planWalls);
    const double speedup = planSeconds > 0.0 ? noplanSeconds / planSeconds
                                             : 0.0;
    std::printf("%8zu | %12.4f %12.4f %7.2fx\n", n, noplanSeconds,
                planSeconds, speedup);
    std::fflush(stdout);
    if (traceOn) {
      // One observed planned run so the report carries eval.plan.*
      // (index builds, probe hit rates, estimate totals) per size.
      obs::Span span(&tracer, "join[size=" + std::to_string(n) + "]");
      runOnce(sr.dbText, fl::PlanMode::On, &tracer);
      obs::Registry& reg = tracer.metrics();
      const std::string base = "join[" + std::to_string(n) + "].";
      reg.gauge(base + "wall_seconds").set(planSeconds);
      reg.gauge(base + "noplan.wall_seconds").set(noplanSeconds);
      reg.gauge(base + "speedup").set(speedup);
    }
  }

  const char* jsonPath = std::getenv("FAURE_BENCH_JSON");
  if (jsonPath == nullptr) jsonPath = "BENCH_join.json";
  if (traceOn && std::strcmp(jsonPath, "0") != 0) {
    obs::ReportMeta meta;
    meta.command = "bench.join_planner";
    std::string sizeList;
    for (size_t n : sizes) {
      if (!sizeList.empty()) sizeList += ",";
      sizeList += std::to_string(n);
    }
    meta.add("sizes", sizeList);
    meta.add("reps", std::to_string(reps));
    meta.add("solver_cache",
             std::to_string(smt::VerdictCache::capacityFromEnv()));
    std::ofstream out(jsonPath);
    if (out) {
      out << obs::benchReportJson(tracer, meta);
      std::printf("\nrun report written to %s\n", jsonPath);
    } else {
      std::fprintf(stderr, "cannot write '%s'\n", jsonPath);
    }
  }
  return diverged ? 1 : 0;
}
