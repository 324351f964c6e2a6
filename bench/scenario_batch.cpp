// Batched scenario evaluation vs sequential one-shot runs (DESIGN.md
// §12).
//
// Synthesises the whatif_incremental network (forwarding chain with
// fast-reroute pairs plus Acl policy rows) and N independent what-if
// scenarios — seeded, divergent edit scripts in the `faure whatif`
// directive syntax. Each count is answered twice:
//
//   seq   — the status quo: one fresh ScenarioSet *per scenario*, each
//           paying its own parse + epoch-0 derivation before replaying
//           its script serially. This is byte-for-byte what N separate
//           `faure whatif --edit-script` invocations cost (minus process
//           startup, which only flatters the batch). Recorded as
//           `scenario[N].wall_seconds`; the smallest count's entry is
//           the calibration unit for tools/bench_check.py --family
//           scenario against bench/baseline_scenario.json.
//   batch — one ScenarioSet: epoch 0 derived once, then all N scenarios
//           forked from the snapshot and fanned out over the thread
//           pool. Recorded as `scenario[N].batch.wall_seconds`, plus a
//           speedup gauge.
//
// Each mode runs kRepeats times per count, alternating seq and batch
// and going round-robin over the counts, and the walls recorded (and
// printed) are the medians: the batch walls fan out over several cores,
// so one run swings with how many of them the host has free. The
// report's counters add up all repeats.
//
// Every scenario's outcome bytes are compared across the two modes in
// every repeat and the harness aborts on any divergence, so a bench run
// is also a fork-isolation check on a workload larger than the data/
// fixtures.
//
// Knobs: FAURE_SCEN_COUNTS (default "4,8"), FAURE_SCEN_THREADS (batch
// fan-out width, default 4), FAURE_SCEN_EDITS (epochs per scenario,
// default 3), FAURE_SCEN_LINKS (network size, default 60),
// FAURE_SOLVER_CACHE (verdict cache entries; 0 disables),
// FAURE_BENCH_JSON (report path, default BENCH_scenario.json, "0"
// skips), FAURE_BENCH_TRACE=0 detaches the tracer.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "datalog/parser.hpp"
#include "faurelog/scenario.hpp"
#include "faurelog/textio.hpp"
#include "obs/report.hpp"
#include "smt/verdict_cache.hpp"
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

/// Runs of each mode per count; the report carries the median walls.
constexpr size_t kRepeats = 5;

/// Protected links live only in this prefix — see whatif_incremental.cpp
/// for why the count must stay O(1) as the chain grows.
constexpr size_t kProtectedSpan = 42;  // 6 protected links (every 7th)

std::string makeDbText(size_t links) {
  std::string text;
  size_t prot = 0;
  for (size_t i = 0; i < links && i < kProtectedSpan; i += 7) {
    text += "var l" + std::to_string(prot++) + "_ int 0 1\n";
  }
  text += "table F(flow sym, from int, to int)\n";
  text += "table Acl(app sym, port int)\n";
  size_t detour = links + 2;
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

/// One scenario's seeded edit script: mostly Acl churn, occasional link
/// flaps. Scenarios diverge (the seed folds in the scenario index), so
/// forks genuinely edit the shared relations in conflicting directions.
std::string makeScenarioScript(size_t links, size_t edits, size_t scenario) {
  util::Rng rng(0x5ce9a210ULL + scenario * 7919 + links);
  std::string text;
  for (size_t e = 0; e < edits; ++e) {
    if (rng.chance(0.6)) {
      const std::string app = "app" + std::to_string(rng.below(links / 2));
      const std::string port = std::to_string(rng.range(20, 9000));
      text += (rng.chance(0.5) ? "+Acl(" : "-Acl(") + app + ", " + port + ")\n";
    } else {
      size_t i = rng.below(links);
      if (i % 7 == 0) ++i;  // keep protected links stable
      const std::string a = std::to_string(i + 1);
      const std::string b = std::to_string(i + 2);
      text += (rng.chance(0.5) ? "-F(f0, " : "+F(f0, ") + a + ", " + b + ")\n";
    }
  }
  return text;
}

/// Parses the workload fresh (its own registry/interner state) and
/// builds a ScenarioSet over it at the given fan-out width.
fl::ScenarioSet makeSet(size_t links, const std::string& dbText,
                       unsigned threads, obs::Tracer* tracer) {
  rel::Database db = fl::parseDatabase(dbText);
  std::string progText = kProgram;
  progText.replace(progText.find("%END%"), 5, std::to_string(links + 1));
  dl::Program program = dl::parseProgram(progText, db.cvars());
  fl::ScenarioSetOptions opts;
  opts.eval.threads = threads;
  if (tracer != nullptr) opts.eval.tracer = tracer;
  return fl::ScenarioSet(std::move(program), std::move(db), std::move(opts));
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

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

size_t envSize(const char* name, size_t dflt) {
  if (const char* v = std::getenv(name); v != nullptr && v[0] != '\0') {
    const size_t n = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    if (n > 0) return n;
  }
  return dflt;
}

}  // namespace

int main() {
  std::vector<size_t> counts = {4, 8};
  if (const char* list = std::getenv("FAURE_SCEN_COUNTS");
      list != nullptr && list[0] != '\0') {
    counts = parseList(list);
    if (counts.empty()) counts = {4, 8};
  }
  const size_t threads = envSize("FAURE_SCEN_THREADS", 4);
  const size_t edits = envSize("FAURE_SCEN_EDITS", 3);
  const size_t links = envSize("FAURE_SCEN_LINKS", 60);

  obs::Tracer tracer;
  bool traceOn = true;
  if (const char* t = std::getenv("FAURE_BENCH_TRACE");
      t != nullptr && t[0] == '0') {
    traceOn = false;
  }
  obs::Tracer* tp = traceOn ? &tracer : nullptr;

  std::printf(
      "---- batched scenarios vs sequential one-shot runs "
      "(%zu links, %zu epochs/scenario, batch fan-out %zu) ----\n",
      links, edits, threads);
  std::printf("%6s | %10s %10s %8s\n", "#scen", "seq (s)", "batch (s)",
              "speedup");

  const std::string dbText = makeDbText(links);
  struct CountRuns {
    std::vector<fl::Scenario> scenarios;
    std::vector<double> seqWalls, batchWalls;
  };
  std::vector<CountRuns> runs(counts.size());
  for (size_t c = 0; c < counts.size(); ++c) {
    for (size_t i = 0; i < counts[c]; ++i) {
      runs[c].scenarios.push_back(
          {std::to_string(i + 1), makeScenarioScript(links, edits, i)});
    }
  }
  // Repeats go round-robin over the counts, so every count's median
  // samples the same stretch of time: the gate divides all walls by one
  // of them.
  bool diverged = false;
  for (size_t r = 0; r < kRepeats && !diverged; ++r) {
    for (size_t c = 0; c < counts.size(); ++c) {
      const size_t n = counts[c];
      const std::vector<fl::Scenario>& scenarios = runs[c].scenarios;
      util::Stopwatch watch;
      std::vector<fl::ScenarioOutcome> seq;
      watch.lap();
      {
        obs::Span span(tp, "scenario[n=" + std::to_string(n) + "][seq]");
        for (const fl::Scenario& s : scenarios) {
          fl::ScenarioSet one = makeSet(links, dbText, 1, tp);
          std::vector<fl::ScenarioOutcome> out = one.evaluate({s});
          seq.push_back(std::move(out.front()));
        }
      }
      runs[c].seqWalls.push_back(watch.lap());

      std::vector<fl::ScenarioOutcome> batch;
      watch.lap();
      {
        obs::Span span(tp, "scenario[n=" + std::to_string(n) + "][batch]");
        fl::ScenarioSet set =
            makeSet(links, dbText, static_cast<unsigned>(threads), tp);
        batch = set.evaluate(scenarios);
      }
      runs[c].batchWalls.push_back(watch.lap());

      for (size_t i = 0; i < n; ++i) {
        if (seq[i].exitCode != 0 || batch[i].exitCode != 0) {
          std::fprintf(stderr,
                       "count %zu scenario %zu: nonzero exit (%d/%d)\n", n,
                       i + 1, seq[i].exitCode, batch[i].exitCode);
          diverged = true;
        } else if (seq[i].output != batch[i].output) {
          std::fprintf(stderr,
                       "count %zu scenario %zu: FORK DIVERGENCE — batched "
                       "output is not byte-identical to its one-shot run\n",
                       n, i + 1);
          diverged = true;
        }
      }
    }
  }

  for (size_t c = 0; c < counts.size(); ++c) {
    const size_t n = counts[c];
    const double seqSeconds = median(runs[c].seqWalls);
    const double batchSeconds = median(runs[c].batchWalls);
    const double speedup = batchSeconds > 0.0 ? seqSeconds / batchSeconds : 0.0;
    std::printf("%6zu | %10.4f %10.4f %7.2fx\n", n, seqSeconds, batchSeconds,
                speedup);
    std::fflush(stdout);
    if (traceOn) {
      obs::Registry& reg = tracer.metrics();
      const std::string base = "scenario[" + std::to_string(n) + "].";
      reg.gauge(base + "wall_seconds").set(seqSeconds);
      reg.gauge(base + "batch.wall_seconds").set(batchSeconds);
      reg.gauge(base + "speedup").set(speedup);
      reg.gauge(base + "threads").set(static_cast<double>(threads));
      reg.gauge(base + "epochs_per_scenario").set(static_cast<double>(edits));
    }
  }

  const char* jsonPath = std::getenv("FAURE_BENCH_JSON");
  if (jsonPath == nullptr) jsonPath = "BENCH_scenario.json";
  if (traceOn && std::strcmp(jsonPath, "0") != 0) {
    obs::ReportMeta meta;
    meta.command = "bench.scenario";
    std::string countList;
    for (size_t n : counts) {
      if (!countList.empty()) countList += ",";
      countList += std::to_string(n);
    }
    meta.add("counts", countList);
    meta.add("threads", std::to_string(threads));
    meta.add("edits", std::to_string(edits));
    meta.add("links", std::to_string(links));
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
