// Incremental what-if evaluation benchmark (DESIGN.md §10).
//
// Synthesises the two-team what-if workload at scale: a forwarding
// chain 1..N+1 for flow f0 (every seventh link protected by an l<k>_
// fast-reroute pair, as in Figure 1) plus an Acl relation with N/2
// policy rows, evaluated under the data/whatif_reach.fl program shape
// (recursive reachability units {R}, {Deliver} and policy units {Open},
// {Lockdown}). A seeded edit script (mostly security-team Acl churn
// with occasional forwarding-team link flaps — the paper's "what if"
// edits) is replayed in two modes per size:
//
//   full — the oracle: IncrementalEngine with incrementality off, so
//          every epoch reruns every stratum. Recorded as
//          `incremental[N].wall_seconds`; the smallest size's entry is
//          the calibration unit for tools/bench_check.py --family
//          incremental against bench/baseline_incremental.json.
//   inc  — the same engine with delta propagation on. Recorded as
//          `incremental[N].inc.wall_seconds`, plus a speedup gauge and
//          the refired/skipped rule counters from IncStats.
//
// Each mode runs kRepeats times per size, alternating full and inc and
// going round-robin over the sizes, and the walls recorded (and printed)
// are the medians: the inc walls are a tenth of a second or two, short
// enough for one run to catch a slow stretch of the host. The report's
// counters (eval.*, eval.inc.*) add up all repeats.
//
// Every epoch's derived tables are checksummed in both modes and the
// harness aborts on any divergence, so a bench run is also an oracle-
// contract check on a workload larger than the data/ fixtures.
//
// Knobs: FAURE_INC_SIZES (default "80,120"), FAURE_INC_EDITS (default
// 16), FAURE_SOLVER_CACHE (verdict cache entries; 0 disables),
// FAURE_BENCH_JSON (report path, default BENCH_incremental.json, "0"
// skips), FAURE_BENCH_TRACE=0 detaches the tracer. The report is the
// span-free bench summary; FAURE_BENCH_FULL_SPANS=1 restores the raw
// span tree for interactive profiling.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "datalog/parser.hpp"
#include "faurelog/incremental.hpp"
#include "faurelog/textio.hpp"
#include "obs/report.hpp"
#include "smt/solver_stack.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace faure;

namespace {

constexpr const char* kProgram =
    "R(f,a,b) :- F(f,a,b).\n"
    "R(f,a,b) :- F(f,a,c), R(f,c,b).\n"
    "Deliver(f) :- R(f,1,%END%).\n"
    "Open(app,p) :- Acl(app,p), p < 1024.\n"
    "Lockdown(app) :- Acl(app,p), !Open(app,p).\n";

/// Protected links live only in this prefix of the chain. Every
/// protected link doubles the derivation alternatives OR-merged into
/// every downstream R tuple's condition, so the count must stay O(1)
/// as the chain grows — scaling it with N makes the formulas (and the
/// solver's enumeration) exponential in N, which would benchmark the
/// condition language rather than the incremental engine.
constexpr size_t kProtectedSpan = 42;  // 6 protected links (every 7th)

/// Runs of each mode per size; the report carries the median walls.
constexpr size_t kRepeats = 5;

/// The synthetic network in the textual .fdb format (parsed fresh per
/// mode so neither run sees the other's interner or c-var state).
std::string makeDbText(size_t links) {
  std::string text;
  size_t prot = 0;
  for (size_t i = 0; i < links && i < kProtectedSpan; i += 7) {
    text += "var l" + std::to_string(prot++) + "_ int 0 1\n";
  }
  text += "table F(flow sym, from int, to int)\n";
  text += "table Acl(app sym, port int)\n";
  size_t detour = links + 2;  // spare node ids for reroute pairs
  prot = 0;
  for (size_t i = 0; i < links; ++i) {
    const std::string a = std::to_string(i + 1);
    const std::string b = std::to_string(i + 2);
    if (i % 7 == 0 && i < kProtectedSpan) {
      const std::string v = "l" + std::to_string(prot++) + "_";
      const std::string d = std::to_string(detour++);
      text += "row F f0 " + a + " " + b + " | " + v + " = 1\n";
      text += "row F f0 " + a + " " + d + " | " + v + " = 0\n";
      text += "row F f0 " + d + " " + b + "\n";
    } else {
      text += "row F f0 " + a + " " + b + "\n";
    }
  }
  util::Rng rng(0xac1dc0deULL);
  for (size_t i = 0; i < links / 2; ++i) {
    text += "row Acl app" + std::to_string(i) + " " +
            std::to_string(rng.range(20, 9000)) + "\n";
  }
  return text;
}

/// Seeded edit script in the `faure whatif` directive syntax: ~3/4
/// security-team Acl churn (leaves the recursive reachability units
/// untouched), ~1/4 forwarding-team link flaps (dirties them).
std::string makeEditScript(size_t links, size_t edits) {
  util::Rng rng(0x5eed5ULL + links);
  std::string text;
  for (size_t e = 0; e < edits; ++e) {
    if (rng.chance(0.75)) {
      const std::string app = "app" + std::to_string(rng.below(links / 2));
      const std::string port = std::to_string(rng.range(20, 9000));
      if (rng.chance(0.5)) {
        text += "+Acl(" + app + ", " + port + ")\n";
      } else {
        text += "-Acl(" + app + ", " + port + ")\n";
      }
    } else {
      // Flap an unprotected link: retract it, then (next trip through
      // the script, possibly) reinsert one nearby.
      size_t i = rng.below(links);
      if (i % 7 == 0) ++i;  // keep protected links stable
      const std::string a = std::to_string(i + 1);
      const std::string b = std::to_string(i + 2);
      if (rng.chance(0.5)) {
        text += "-F(f0, " + a + ", " + b + ")\n";
      } else {
        text += "+F(f0, " + a + ", " + b + ")\n";
      }
    }
  }
  return text;
}

struct ModeResult {
  double wallSeconds = 0.0;     // edit epochs only (epoch 0 excluded)
  double initialSeconds = 0.0;  // epoch 0 (identical work in both modes)
  fl::IncStats stats;
  std::vector<size_t> checksums;  // one per epoch, for the oracle check
  bool incomplete = false;
};

/// Replays the edit script in one mode; checksums every epoch's derived
/// tables so the caller can assert full/inc agreement byte-for-byte.
ModeResult runMode(size_t links, const std::string& dbText,
                   const std::string& editText, bool incremental,
                   obs::Tracer* tracer) {
  rel::Database db = fl::parseDatabase(dbText);
  std::string progText = kProgram;
  const std::string end = std::to_string(links + 1);
  progText.replace(progText.find("%END%"), 5, end);
  dl::Program program = dl::parseProgram(progText, db.cvars());
  std::vector<fl::Edit> edits = fl::parseEditScript(editText, db);

  smt::SolverStack stack = smt::buildSolverStack(db.cvars(), {});

  fl::EvalOptions opts;
  if (tracer != nullptr) opts.tracer = tracer;
  fl::IncrementalEngine eng(std::move(program), db, stack.solver.get(), opts);
  eng.setIncremental(incremental);

  ModeResult out;
  auto checksum = [&db](const fl::EvalResult& res) {
    size_t h = 0;
    for (const auto& [name, table] : res.idb) {
      h ^= std::hash<std::string>{}(name + "\n" +
                                    table.toString(&db.cvars())) +
           0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  };

  util::Stopwatch watch;
  watch.lap();
  fl::EvalResult res = eng.reevaluate();
  out.initialSeconds = watch.lap();
  out.checksums.push_back(checksum(res));
  if (res.incomplete) {
    out.incomplete = true;
    return out;
  }
  watch.lap();
  for (const fl::Edit& e : edits) {
    eng.apply(e);
    res = eng.reevaluate();
    out.checksums.push_back(checksum(res));
    if (res.incomplete) {
      out.incomplete = true;
      break;
    }
  }
  out.wallSeconds = watch.lap();
  out.stats = eng.stats();
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
  std::vector<size_t> sizes = {80, 120};
  if (const char* list = std::getenv("FAURE_INC_SIZES");
      list != nullptr && list[0] != '\0') {
    sizes = parseList(list);
    if (sizes.empty()) sizes = {80, 120};
  }
  size_t edits = 16;
  if (const char* n = std::getenv("FAURE_INC_EDITS");
      n != nullptr && n[0] != '\0') {
    edits = static_cast<size_t>(std::strtoull(n, nullptr, 10));
    if (edits == 0) edits = 16;
  }

  obs::Tracer tracer;
  bool traceOn = true;
  if (const char* t = std::getenv("FAURE_BENCH_TRACE");
      t != nullptr && t[0] == '0') {
    traceOn = false;
  }

  std::printf(
      "---- incremental what-if vs full-recompute oracle "
      "(%zu edit epochs per size) ----\n",
      edits);
  std::printf("%8s | %10s %10s %8s | %8s %8s %8s\n", "#links", "full (s)",
              "inc (s)", "speedup", "refired", "skipped", "reused");

  // Repeats go round-robin over the sizes, so every size's median samples
  // the same stretch of time: the gate divides all walls by one of them.
  struct SizeRuns {
    std::string dbText, editText;
    ModeResult full, inc;  // the last repeat (or the first bad one)
    std::vector<double> fullWalls, fullInitials, incWalls;
  };
  std::vector<SizeRuns> runs(sizes.size());
  for (size_t i = 0; i < sizes.size(); ++i) {
    runs[i].dbText = makeDbText(sizes[i]);
    runs[i].editText = makeEditScript(sizes[i], edits);
  }
  auto bad = [](const SizeRuns& s) {
    return s.full.incomplete || s.inc.incomplete ||
           s.full.checksums != s.inc.checksums;
  };
  obs::Tracer* tp = traceOn ? &tracer : nullptr;
  for (size_t r = 0; r < kRepeats; ++r) {
    for (size_t i = 0; i < sizes.size(); ++i) {
      SizeRuns& s = runs[i];
      if (r > 0 && bad(s)) continue;  // reported below
      const size_t n = sizes[i];
      {
        obs::Span span(tp,
                       "incremental[size=" + std::to_string(n) + "][full]");
        s.full = runMode(n, s.dbText, s.editText, /*incremental=*/false, tp);
      }
      {
        obs::Span span(tp, "incremental[size=" + std::to_string(n) + "][inc]");
        s.inc = runMode(n, s.dbText, s.editText, /*incremental=*/true, tp);
      }
      if (bad(s)) continue;
      s.fullWalls.push_back(s.full.wallSeconds);
      s.fullInitials.push_back(s.full.initialSeconds);
      s.incWalls.push_back(s.inc.wallSeconds);
    }
  }

  bool diverged = false;
  for (size_t i = 0; i < sizes.size(); ++i) {
    const size_t n = sizes[i];
    ModeResult& full = runs[i].full;
    ModeResult& inc = runs[i].inc;
    if (full.incomplete || inc.incomplete) {
      std::fprintf(stderr, "size %zu: run incomplete, skipping row\n", n);
      continue;
    }
    if (full.checksums != inc.checksums) {
      std::fprintf(stderr,
                   "size %zu: ORACLE DIVERGENCE — incremental epochs are "
                   "not byte-identical to the full recompute\n",
                   n);
      diverged = true;
      continue;
    }
    full.wallSeconds = median(runs[i].fullWalls);
    full.initialSeconds = median(runs[i].fullInitials);
    inc.wallSeconds = median(runs[i].incWalls);
    const double speedup =
        inc.wallSeconds > 0.0 ? full.wallSeconds / inc.wallSeconds : 0.0;
    std::printf("%8zu | %10.4f %10.4f %7.2fx | %8llu %8llu %8llu\n", n,
                full.wallSeconds, inc.wallSeconds, speedup,
                static_cast<unsigned long long>(inc.stats.refiredRules),
                static_cast<unsigned long long>(inc.stats.skippedRules),
                static_cast<unsigned long long>(inc.stats.reusedStrata));
    std::fflush(stdout);
    if (traceOn) {
      obs::Registry& reg = tracer.metrics();
      const std::string base = "incremental[" + std::to_string(n) + "].";
      reg.gauge(base + "wall_seconds").set(full.wallSeconds);
      reg.gauge(base + "initial_seconds").set(full.initialSeconds);
      reg.gauge(base + "inc.wall_seconds").set(inc.wallSeconds);
      reg.gauge(base + "speedup").set(speedup);
      reg.gauge(base + "edits").set(static_cast<double>(edits));
      reg.gauge(base + "inc.refired_rules")
          .set(static_cast<double>(inc.stats.refiredRules));
      reg.gauge(base + "inc.skipped_rules")
          .set(static_cast<double>(inc.stats.skippedRules));
      reg.gauge(base + "inc.reused_strata")
          .set(static_cast<double>(inc.stats.reusedStrata));
      reg.gauge(base + "full.refired_rules")
          .set(static_cast<double>(full.stats.refiredRules));
    }
  }

  const char* jsonPath = std::getenv("FAURE_BENCH_JSON");
  if (jsonPath == nullptr) jsonPath = "BENCH_incremental.json";
  if (traceOn && std::strcmp(jsonPath, "0") != 0) {
    obs::ReportMeta meta;
    meta.command = "bench.incremental";
    std::string sizeList;
    for (size_t n : sizes) {
      if (!sizeList.empty()) sizeList += ",";
      sizeList += std::to_string(n);
    }
    meta.add("sizes", sizeList);
    meta.add("edits", std::to_string(edits));
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
