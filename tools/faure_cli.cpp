// `faure` — command-line front end to the library.
//
//   faure run <db.fdb> <program.fl> [options]   evaluate a fauré-log
//                                               program on a database
//   faure whatif <db.fdb> <program.fl> <edits.fl>
//                                               evaluate, then replay a
//                                               +Fact/-Fact edit script
//                                               incrementally (§10)
//   faure serve <db.fdb> <program.fl>           concurrent scenario
//                                               service (§12): EVAL/GO
//                                               line protocol on stdin
//                                               or a unix socket
//   faure check <db.fdb> <constraint.fl>        state-level constraint
//                                               verdict (§5 level iii)
//   faure worlds <db.fdb> [cap]                 enumerate possible worlds
//   faure fmt <db.fdb>                          parse and reprint
//
// `whatif` prints the derived relations once per epoch (the initial
// state, then after each edit) under `== epoch N: ... ==` headers. The
// incremental engine re-fires only strata affected by each edit;
// FAURE_INCREMENTAL=0 or --full-recompute selects the full-recompute
// oracle, whose output is byte-identical (DESIGN.md §10).
//
// `whatif --scenarios FILE` evaluates N independent edit scripts (one
// per `---`-delimited block of FILE) concurrently against one shared
// base snapshot (DESIGN.md §12), printing each scenario's epochs —
// byte-identical to N single whatif runs — under
// `=== scenario I: exit E ===` frames in input order. `serve` exposes
// the same engine as a long-lived service: `EVAL <id> <script>` queues
// a scenario (`;` separates edits), an empty line or `GO` evaluates
// the queued batch concurrently and answers
// `RESULT <id> <exit> <nbytes> [reason]` + nbytes payload per request
// in queue order, `PING` answers `PONG`, `QUIT`/EOF drains the queue
// and closes, `SHUTDOWN` additionally stops a socket server
// (--socket PATH listens on a unix socket instead of stdin/stdout). A
// request line over 1 MiB is answered with `ERR line too long` and
// skipped; an `EVAL` beyond 64 queued requests (kMaxServeBatch) is
// answered with `ERR batch full` and dropped, while the queued ones are
// still answered on the next `GO`. Either way the connection stays
// usable.
//
// Options for `run`:
//   --relation NAME   print only this derived relation
//   --simplify        semantically simplify result conditions
//   --solver z3       use the Z3 backend (if built in)
//   --stats           print evaluation + solver statistics
//   --plan MODE       cost-based join planning: on | off | explain
//                     (run and whatif; default FAURE_PLAN env, else on)
//
// Observability (run and check; see DESIGN.md "Observability"):
//   --trace           human-readable span tree on stderr
//   --trace=FILE      Chrome trace_event JSON to FILE (about://tracing)
//   --metrics         JSON run report on stdout (replaces normal output,
//                     so the stream stays parseable)
//   --metrics=FILE    JSON run report to FILE, normal output kept
// FAURE_TRACE_FINE=1 additionally records per-join / per-solver-check
// spans (they dominate the span count on solver-heavy runs).
//
// Resource governance (run and check; see DESIGN.md "Resource
// governance & degradation"): on budget exhaustion the engine degrades —
// run prints the tuples derived so far plus `incomplete: <reason>` and
// exits 2; check answers `unknown` with the reason.
//   --deadline S            wall-clock deadline in seconds
//   --max-steps N           relational work budget
//   --max-tuples N          derivation budget
//   --max-solver-checks N   satisfiability-check budget
//   --fail-after N          deterministic fault injection (testing)
// Environment defaults: FAURE_DEADLINE, FAURE_MAX_STEPS,
// FAURE_MAX_TUPLES, FAURE_MAX_SOLVER_CHECKS, FAURE_MAX_MEMORY,
// FAURE_FAIL_AFTER.
//
// Fault tolerance (run and check; see DESIGN.md §9): any of these wraps
// the solver in a SupervisedSolver (watchdog, bounded deterministic
// retry, circuit breaker, failover, seeded chaos injection):
//   --retries N             retry a failed backend call up to N times
//   --solver-timeout-ms MS  per-attempt watchdog deadline
//   --failover              append a native last-resort backend
//   --chaos-seed N          deterministic fault injection (implies
//                           --failover; N = 0 disables)
// Environment defaults: FAURE_RETRIES, FAURE_SOLVER_TIMEOUT_MS,
// FAURE_FAILOVER, FAURE_CHAOS_SEED.
//
// Exit codes (stable contract, tested by tests/cli):
//   0  definite result — run completed; check verdict is holds /
//      violated / conditionally-violated
//   1  hard error — bad usage, unreadable input, parse failure
//   2  degraded result — run incomplete (budget) or check verdict
//      unknown: rerun with more resources
//
// Database files use the textio format (see src/faurelog/textio.hpp);
// programs are fauré-log text (see src/datalog/lexer.hpp).
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "datalog/parser.hpp"
#include "faurelog/eval.hpp"
#include "faurelog/incremental.hpp"
#include "faurelog/scenario.hpp"
#include "faurelog/textio.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "relational/worlds.hpp"
#include "smt/interner.hpp"
#include "smt/solver_stack.hpp"
#include "util/error.hpp"
#include "util/fault_plan.hpp"
#include "util/resource_guard.hpp"
#include "verify/verifier.hpp"

using namespace faure;

namespace {

std::string readFile(const char* path) {
  std::ifstream in(path);
  if (!in) throw Error(std::string("cannot open '") + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  faure run <db.fdb> <program.fl> [--relation NAME] [--simplify]\n"
      "            [--solver native|z3] [--stats] [--db-out FILE]\n"
      "            [--threads N | -jN] [--plan MODE] [--solver-cache N]\n"
      "            [observability options] [budget options]\n"
      "  faure whatif <db.fdb> <program.fl> <edits.fl> [--relation NAME]\n"
      "            [--incremental | --full-recompute] [--solver native|z3]\n"
      "            [--stats] [--threads N | -jN] [--plan MODE]\n"
      "            [--solver-cache N]\n"
      "            [observability options] [budget options]\n"
      "            (default mode: FAURE_INCREMENTAL env, on unless \"0\";\n"
      "             both modes print byte-identical epochs)\n"
      "  faure whatif <db.fdb> <program.fl> --scenarios FILE [...]\n"
      "            evaluate one scenario per ----delimited block of FILE\n"
      "            concurrently against a shared base snapshot; -jN sets\n"
      "            the fan-out width, output is byte-identical to N\n"
      "            single whatif runs (framed per scenario, input order)\n"
      "  faure serve <db.fdb> <program.fl> [--socket PATH] [whatif flags]\n"
      "            scenario service: EVAL/GO/PING/QUIT/SHUTDOWN line\n"
      "            protocol on stdin/stdout, or on a unix socket\n"
      "  faure check <db.fdb> <constraint.fl> [--stats] [--solver-cache N]\n"
      "            [observability options] [budget options]\n"
      "  faure worlds <db.fdb> [cap]\n"
      "  faure fmt <db.fdb>\n"
      "parallelism (DESIGN.md \"Parallelism lives at scenario fan-out\"):\n"
      "  --threads N / -jN  scenarios evaluated at once by whatif\n"
      "                     --scenarios and serve; 0 = hardware\n"
      "                     concurrency. Default: FAURE_THREADS env,\n"
      "                     else 1. A single evaluation is always\n"
      "                     serial; results are identical for every N.\n"
      "join planning (DESIGN.md \"Cost-based join planning\"):\n"
      "  --plan MODE  on: reorder body literals by estimated selectivity\n"
      "               and probe persistent c-table indexes; off: pristine\n"
      "               program-order joins; explain: plan and dump each\n"
      "               chosen plan to stderr. Default: FAURE_PLAN env,\n"
      "               else on. Results are identical in every mode.\n"
      "solver verdict cache (DESIGN.md \"Condition performance\"):\n"
      "  --solver-cache N  memoized check()/implies() verdicts (LRU\n"
      "                    entries); 0 disables. Default: FAURE_SOLVER_CACHE\n"
      "                    env, else 65536. Results are identical for\n"
      "                    every N; only physical solver work changes.\n"
      "observability options (DESIGN.md \"Observability\"):\n"
      "  --trace[=FILE]    span tree on stderr / Chrome trace to FILE\n"
      "  --metrics[=FILE]  JSON run report on stdout / to FILE\n"
      "budget options (degrade to incomplete/unknown, never hang):\n"
      "  --deadline S  --max-steps N  --max-tuples N\n"
      "  --max-solver-checks N  --fail-after N\n"
      "fault-tolerance options (DESIGN.md \"Fault tolerance\"):\n"
      "  --retries N  --solver-timeout-ms MS  --failover  --chaos-seed N\n"
      "exit codes: 0 definite result, 1 hard error, 2 degraded result\n"
      "            (run incomplete / check verdict unknown)\n");
  return 1;
}

/// Parses one budget flag at argv[i] (advancing i past its value);
/// returns false when argv[i] is not a budget flag.
bool parseBudgetFlag(int argc, char** argv, int& i, ResourceLimits& limits) {
  auto need = [&](uint64_t& out) {
    if (i + 1 >= argc) throw Error("missing value for budget option");
    out = std::strtoull(argv[++i], nullptr, 10);
  };
  if (std::strcmp(argv[i], "--deadline") == 0) {
    if (i + 1 >= argc) throw Error("missing value for --deadline");
    limits.deadlineSeconds = std::strtod(argv[++i], nullptr);
  } else if (std::strcmp(argv[i], "--max-steps") == 0) {
    need(limits.maxSteps);
  } else if (std::strcmp(argv[i], "--max-tuples") == 0) {
    need(limits.maxTuples);
  } else if (std::strcmp(argv[i], "--max-solver-checks") == 0) {
    need(limits.maxSolverChecks);
  } else if (std::strcmp(argv[i], "--fail-after") == 0) {
    need(limits.failAfter);
  } else {
    return false;
  }
  return true;
}

/// Parses a thread-count flag (`--threads N`, `--threads=N`, `-jN`,
/// `-j N`) at argv[i], advancing i past any separate value; returns
/// false when argv[i] is not a thread flag.
bool parseThreadsFlag(int argc, char** argv, int& i,
                      std::optional<unsigned>& threads) {
  auto parse = [](const char* s) {
    return static_cast<unsigned>(std::strtoul(s, nullptr, 10));
  };
  if (std::strncmp(argv[i], "--threads=", 10) == 0) {
    threads = parse(argv[i] + 10);
  } else if (std::strcmp(argv[i], "--threads") == 0) {
    if (i + 1 >= argc) throw Error("missing value for --threads");
    threads = parse(argv[++i]);
  } else if (std::strncmp(argv[i], "-j", 2) == 0) {
    if (argv[i][2] != '\0') {
      threads = parse(argv[i] + 2);
    } else {
      if (i + 1 >= argc) throw Error("missing value for -j");
      threads = parse(argv[++i]);
    }
  } else {
    return false;
  }
  return true;
}

/// Parses `--solver-cache N` / `--solver-cache=N` (verdict-cache LRU
/// entries; 0 disables) at argv[i], advancing i past any separate value;
/// returns false when argv[i] is not the cache flag.
bool parseSolverCacheFlag(int argc, char** argv, int& i, size_t& entries) {
  if (std::strncmp(argv[i], "--solver-cache=", 15) == 0) {
    entries = static_cast<size_t>(std::strtoull(argv[i] + 15, nullptr, 10));
  } else if (std::strcmp(argv[i], "--solver-cache") == 0) {
    if (i + 1 >= argc) throw Error("missing value for --solver-cache");
    entries = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
  } else {
    return false;
  }
  return true;
}

/// Parses `--plan MODE` / `--plan=MODE` (MODE: on|off|explain; the
/// cost-based join planner, DESIGN.md §11) at argv[i], advancing i past
/// any separate value; returns false when argv[i] is not the plan flag.
bool parsePlanFlag(int argc, char** argv, int& i,
                   std::optional<fl::PlanMode>& plan) {
  const char* value = nullptr;
  if (std::strncmp(argv[i], "--plan=", 7) == 0) {
    value = argv[i] + 7;
  } else if (std::strcmp(argv[i], "--plan") == 0) {
    if (i + 1 >= argc) throw Error("missing value for --plan");
    value = argv[++i];
  } else {
    return false;
  }
  if (std::strcmp(value, "off") == 0) {
    plan = fl::PlanMode::Off;
  } else if (std::strcmp(value, "on") == 0) {
    plan = fl::PlanMode::On;
  } else if (std::strcmp(value, "explain") == 0) {
    plan = fl::PlanMode::Explain;
  } else {
    throw Error("--plan expects on, off or explain");
  }
  return true;
}

const char* planModeName(fl::PlanMode m) {
  switch (m) {
    case fl::PlanMode::Off:
      return "off";
    case fl::PlanMode::Explain:
      return "explain";
    case fl::PlanMode::On:
      break;
  }
  return "on";
}

/// Parses one fault-tolerance flag at argv[i] (advancing i past its
/// value); returns false when argv[i] is not a supervision flag. `sup`
/// starts from SupervisionOptions::fromEnv(), so flags override the
/// FAURE_* environment defaults.
bool parseSupervisionFlag(int argc, char** argv, int& i,
                          smt::SupervisionOptions& sup) {
  auto need = [&](const char* flag) -> const char* {
    if (i + 1 >= argc) {
      throw Error(std::string("missing value for ") + flag);
    }
    return argv[++i];
  };
  if (std::strcmp(argv[i], "--retries") == 0) {
    sup.maxRetries =
        static_cast<int>(std::strtol(need("--retries"), nullptr, 10));
    sup.enabled = true;
  } else if (std::strcmp(argv[i], "--solver-timeout-ms") == 0) {
    sup.watchdogMs = std::strtod(need("--solver-timeout-ms"), nullptr);
    sup.enabled = true;
  } else if (std::strcmp(argv[i], "--failover") == 0) {
    sup.failover = true;
    sup.enabled = true;
  } else if (std::strcmp(argv[i], "--chaos-seed") == 0) {
    uint64_t seed = std::strtoull(need("--chaos-seed"), nullptr, 10);
    if (seed == 0) {
      sup.chaos = nullptr;
    } else {
      sup.chaos = util::FaultPlan::defaultChaos(seed);
      sup.seed = seed;
      // The default plan faults only the primary backend; the native
      // last resort keeps chaos runs output-transparent.
      sup.failover = true;
      sup.enabled = true;
    }
  } else {
    return false;
  }
  return true;
}

/// Supervision entries for the run report / --stats.
void addSupervisionMeta(obs::ReportMeta& meta,
                        const smt::SupervisionOptions& sup) {
  if (!sup.enabled) return;
  meta.add("supervision", "on");
  if (sup.chaos != nullptr) {
    meta.add("chaos_seed", std::to_string(sup.chaos->seed()));
  }
}

void printSuperviseStats(const obs::MetricsSnapshot& snap) {
  std::printf(
      "supervise: %llu retries, %llu failovers, %llu breaker-open, "
      "%llu quarantined, %llu watchdog-trips, %llu faults-injected\n",
      static_cast<unsigned long long>(
          snap.counter("solver.supervise.retries")),
      static_cast<unsigned long long>(
          snap.counter("solver.supervise.failovers")),
      static_cast<unsigned long long>(
          snap.counter("solver.supervise.breaker_open")),
      static_cast<unsigned long long>(
          snap.counter("solver.supervise.quarantined")),
      static_cast<unsigned long long>(
          snap.counter("solver.supervise.watchdog_trips")),
      static_cast<unsigned long long>(
          snap.counter("solver.supervise.faults_injected")));
}

/// Observability flags shared by run and check.
struct ObsFlags {
  bool stats = false;
  bool trace = false;
  const char* traceFile = nullptr;  // null: human tree on stderr
  bool metrics = false;
  const char* metricsFile = nullptr;  // null: report on stdout

  bool any() const { return stats || trace || metrics; }
  /// Bare --metrics owns stdout: normal output is suppressed so the
  /// stream is a single parseable JSON document.
  bool quietStdout() const { return metrics && metricsFile == nullptr; }
};

bool parseObsFlag(const char* arg, ObsFlags& obs) {
  if (std::strcmp(arg, "--stats") == 0) {
    obs.stats = true;
  } else if (std::strcmp(arg, "--trace") == 0) {
    obs.trace = true;
  } else if (std::strncmp(arg, "--trace=", 8) == 0) {
    obs.trace = true;
    obs.traceFile = arg + 8;
  } else if (std::strcmp(arg, "--metrics") == 0) {
    obs.metrics = true;
  } else if (std::strncmp(arg, "--metrics=", 10) == 0) {
    obs.metrics = true;
    obs.metricsFile = arg + 10;
  } else {
    return false;
  }
  return true;
}

/// Flag groups a command may accept on top of the ones every command
/// takes (--solver-cache, observability, budget and fault tolerance).
enum CliFlags : unsigned {
  kRelation = 1u << 0,   // --relation NAME
  kSolver = 1u << 1,     // --solver native|z3
  kEvalFlags = 1u << 2,  // --threads N / -jN, --plan MODE
  kSimplify = 1u << 3,   // --simplify
  kDbOut = 1u << 4,      // --db-out FILE
  kMode = 1u << 5,       // --incremental / --full-recompute
  kScenarios = 1u << 6,  // --scenarios FILE
  kSocket = 1u << 7,     // --socket PATH
};
constexpr unsigned kWhatifFlags = kRelation | kSolver | kEvalFlags | kMode;

/// Every flag of every command, parsed once; the FAURE_* environment
/// supplies the defaults and flags override it.
struct CliOptions {
  const char* relation = nullptr;
  const char* dbOut = nullptr;
  const char* scenarios = nullptr;
  const char* socket = nullptr;
  bool simplify = false;
  int mode = -1;  // -1: FAURE_INCREMENTAL env; 0: oracle; 1: incremental
  std::optional<unsigned> threads;
  std::optional<fl::PlanMode> plan;
  ObsFlags obs;
  ResourceLimits limits = ResourceLimits::fromEnv();
  smt::SolverStackOptions solver;

  CliOptions() { solver.supervision = smt::SupervisionOptions::fromEnv(); }

  /// The printer of derived relations, honouring --relation.
  fl::RelationRenderer renderer(obs::Tracer* tracer) const {
    if (relation == nullptr) return fl::RelationRenderer(std::nullopt, tracer);
    return fl::RelationRenderer(std::string(relation), tracer);
  }

  /// Evaluation options of one governed, traced run.
  fl::EvalOptions evalOptions(obs::Tracer* tracer,
                              ResourceGuard& guard) const {
    fl::EvalOptions opts;
    opts.simplifyResults = simplify;
    opts.plan = plan;
    opts.tracer = tracer;
    if (guard.active()) opts.guard = &guard;
    return opts;
  }
};

/// Parses argv[first..argc) into `o`, accepting the common flags plus
/// the groups in `accepted`; returns false on any other argument (the
/// caller prints usage). A value flag missing its value is not accepted.
bool parseCli(int argc, char** argv, int first, unsigned accepted,
              CliOptions& o) {
  for (int i = first; i < argc; ++i) {
    const char* arg = argv[i];
    auto is = [&](unsigned group, const char* flag) {
      return (accepted & group) != 0 && std::strcmp(arg, flag) == 0;
    };
    auto valueOf = [&](unsigned group, const char* flag) -> const char* {
      return is(group, flag) && i + 1 < argc ? argv[++i] : nullptr;
    };
    auto inlineValue = [&](unsigned group, const char* prefix) {
      size_t n = std::strlen(prefix);
      return (accepted & group) != 0 && std::strncmp(arg, prefix, n) == 0
                 ? arg + n
                 : nullptr;
    };
    if (const char* v = valueOf(kRelation, "--relation")) {
      o.relation = v;
    } else if (const char* v = valueOf(kSolver, "--solver")) {
      o.solver.backend = v;
    } else if (const char* v = valueOf(kDbOut, "--db-out")) {
      o.dbOut = v;
    } else if (const char* v = valueOf(kScenarios, "--scenarios")) {
      o.scenarios = v;
    } else if (const char* v = inlineValue(kScenarios, "--scenarios=")) {
      o.scenarios = v;
    } else if (const char* v = valueOf(kSocket, "--socket")) {
      o.socket = v;
    } else if (const char* v = inlineValue(kSocket, "--socket=")) {
      o.socket = v;
    } else if (is(kSimplify, "--simplify")) {
      o.simplify = true;
    } else if (is(kMode, "--incremental")) {
      o.mode = 1;
    } else if (is(kMode, "--full-recompute")) {
      o.mode = 0;
    } else if ((accepted & kEvalFlags) != 0 &&
               (parseThreadsFlag(argc, argv, i, o.threads) ||
                parsePlanFlag(argc, argv, i, o.plan))) {
      continue;
    } else if (parseSolverCacheFlag(argc, argv, i, o.solver.cacheEntries) ||
               parseObsFlag(arg, o.obs) ||
               parseBudgetFlag(argc, argv, i, o.limits) ||
               parseSupervisionFlag(argc, argv, i, o.solver.supervision)) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

/// One tracer per invocation when any observability output is requested
/// (--stats reads its numbers back from the registry).
std::unique_ptr<obs::Tracer> makeTracer(const ObsFlags& flags) {
  if (!flags.any()) return nullptr;
  obs::TracerOptions topts;
  const char* fine = std::getenv("FAURE_TRACE_FINE");
  topts.fineSpans = fine != nullptr && *fine != '\0' && *fine != '0';
  return std::make_unique<obs::Tracer>(topts);
}

void writeFileOrThrow(const char* path, const std::string& text) {
  std::ofstream out(path);
  if (!out) throw Error(std::string("cannot write '") + path + "'");
  out << text;
}

/// Emits the requested --trace / --metrics artifacts. Called after the
/// top-level span is closed so the exported tree is complete.
void exportObs(obs::Tracer& tracer, const ObsFlags& flags,
               const obs::ReportMeta& meta) {
  smt::FormulaInterner::instance().recordStats(tracer.metrics());
  if (flags.trace) {
    if (flags.traceFile != nullptr) {
      writeFileOrThrow(flags.traceFile, tracer.chromeTrace());
    } else {
      std::fputs(tracer.dumpTree().c_str(), stderr);
    }
  }
  if (flags.metrics) {
    std::string report = obs::runReportJson(tracer, meta);
    if (flags.metricsFile != nullptr) {
      writeFileOrThrow(flags.metricsFile, report);
    } else {
      std::printf("%s\n", report.c_str());
    }
  }
}

/// `--stats` output, sourced from the metrics registry (the canonical
/// store; the line format predates it and is kept stable for scripts).
void printSolverStats(const obs::MetricsSnapshot& snap) {
  std::printf(
      "solver: %llu checks, %llu unsat, %llu unknown, "
      "%llu budget-trips, %llu enumerations, %.3fs\n",
      static_cast<unsigned long long>(snap.counter("solver.checks")),
      static_cast<unsigned long long>(snap.counter("solver.unsat")),
      static_cast<unsigned long long>(snap.counter("solver.unknown")),
      static_cast<unsigned long long>(snap.counter("solver.budget_trips")),
      static_cast<unsigned long long>(snap.counter("solver.enumerations")),
      snap.histogram("solver.check_seconds").sum);
}

void printEvalStats(const obs::MetricsSnapshot& snap) {
  std::printf(
      "stats: %llu derivations, %llu inserted, %llu pruned-unsat, "
      "%llu subsumed, %zu rounds, %llu budget-trips, sql %.3fs, "
      "solver %.3fs (%llu checks)\n",
      static_cast<unsigned long long>(snap.counter("eval.derivations")),
      static_cast<unsigned long long>(snap.counter("eval.inserted")),
      static_cast<unsigned long long>(snap.counter("eval.pruned_unsat")),
      static_cast<unsigned long long>(snap.counter("eval.subsumed")),
      static_cast<size_t>(snap.counter("eval.rounds")),
      static_cast<unsigned long long>(snap.counter("eval.budget_trips")),
      snap.histogram("eval.sql_seconds").sum,
      snap.histogram("eval.solver_seconds").sum,
      static_cast<unsigned long long>(snap.counter("solver.checks")));
}

int cmdRun(int argc, char** argv) {
  CliOptions o;
  if (argc < 2 ||
      !parseCli(argc, argv, 2,
                kRelation | kSolver | kEvalFlags | kSimplify | kDbOut, o)) {
    return usage();
  }
  rel::Database db = fl::parseDatabase(readFile(argv[0]));
  dl::Program program = dl::parseProgram(readFile(argv[1]), db.cvars());
  smt::SolverStack stack = smt::buildSolverStack(db.cvars(), o.solver);
  std::unique_ptr<obs::Tracer> tracer = makeTracer(o.obs);
  ResourceGuard guard(o.limits);
  smt::attachGuardAndTracer(*stack.solver, guard, tracer.get());
  fl::EvalOptions opts = o.evalOptions(tracer.get(), guard);
  fl::EvalResult res;
  {
    obs::Span top(tracer.get(), "run");
    if (top) {
      top.note("database", argv[0]);
      top.note("program", argv[1]);
    }
    res = fl::evalFaure(program, db, stack.solver.get(), opts);
  }
  for (const auto& [pred, table] : res.idb) {
    if (o.obs.quietStdout()) break;
    if (o.relation != nullptr && pred != o.relation) continue;
    std::printf("%s\n", table.toString(&db.cvars()).c_str());
  }
  if (o.dbOut != nullptr) {
    // Write the input state plus every derived relation: later `faure`
    // invocations can query the results (the q6/q7 nesting pattern).
    for (auto& [pred, table] : res.idb) db.put(std::move(table));
    std::ofstream out(o.dbOut);
    if (!out) throw Error(std::string("cannot write '") + o.dbOut + "'");
    out << fl::formatDatabase(db);
  }
  if (o.obs.stats && !o.obs.quietStdout()) {
    obs::MetricsSnapshot snap = tracer->metrics().snapshot();
    printEvalStats(snap);
    printSolverStats(snap);
    if (o.solver.supervision.enabled) printSuperviseStats(snap);
  }
  if (tracer != nullptr) {
    obs::ReportMeta meta;
    meta.command = "run";
    meta.add("database", argv[0]);
    meta.add("program", argv[1]);
    meta.add("solver", o.solver.backend);
    meta.add("plan", planModeName(fl::resolvePlanMode(opts.plan)));
    addSupervisionMeta(meta, o.solver.supervision);
    if (res.incomplete) meta.add("incomplete", res.degradeReason);
    exportObs(*tracer, o.obs, meta);
  }
  if (res.incomplete) {
    std::fprintf(stderr,
                 "incomplete: %s — results above are the tuples derived "
                 "before the budget tripped\n",
                 res.degradeReason.c_str());
    return 2;
  }
  return 0;
}

void printIncStats(const fl::IncStats& inc) {
  std::printf(
      "incremental: %llu epochs (%llu full), %llu refired rules, "
      "%llu skipped rules, %llu reused strata, %llu dirty strata, "
      "+%llu/-%llu edits\n",
      static_cast<unsigned long long>(inc.epochs),
      static_cast<unsigned long long>(inc.fullRecomputes),
      static_cast<unsigned long long>(inc.refiredRules),
      static_cast<unsigned long long>(inc.skippedRules),
      static_cast<unsigned long long>(inc.reusedStrata),
      static_cast<unsigned long long>(inc.dirtyStrata),
      static_cast<unsigned long long>(inc.deltaInserts),
      static_cast<unsigned long long>(inc.deltaRetracts));
}

/// The textio.render.* counters: how much of the printed output was
/// copied from kept bytes rather than rendered again.
void printRenderStats(const obs::MetricsSnapshot& snap) {
  std::printf(
      "render: %llu tables, %llu reused, %llu bytes, %.3fs\n",
      static_cast<unsigned long long>(snap.counter("textio.render.tables")),
      static_cast<unsigned long long>(
          snap.counter("textio.render.reused_tables")),
      static_cast<unsigned long long>(snap.counter("textio.render.bytes")),
      snap.histogram("textio.render_seconds").sum);
}

int cmdWhatifBatch(int argc, char** argv);

int cmdWhatif(int argc, char** argv) {
  // `--scenarios FILE` anywhere switches to batch mode: no positional
  // edit script, one scenario per `---`-delimited block of FILE.
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scenarios") == 0 ||
        std::strncmp(argv[i], "--scenarios=", 12) == 0) {
      return cmdWhatifBatch(argc, argv);
    }
  }
  CliOptions o;
  if (argc < 3 || !parseCli(argc, argv, 3, kWhatifFlags, o)) return usage();
  rel::Database db = fl::parseDatabase(readFile(argv[0]));
  dl::Program program = dl::parseProgram(readFile(argv[1]), db.cvars());
  std::vector<fl::Edit> edits = fl::parseEditScript(readFile(argv[2]), db);
  smt::SolverStack stack = smt::buildSolverStack(db.cvars(), o.solver);
  std::unique_ptr<obs::Tracer> tracer = makeTracer(o.obs);
  ResourceGuard guard(o.limits);
  smt::attachGuardAndTracer(*stack.solver, guard, tracer.get());
  fl::EvalOptions opts = o.evalOptions(tracer.get(), guard);
  fl::IncrementalEngine eng(std::move(program), db, stack.solver.get(),
                            opts);
  if (o.mode >= 0) eng.setIncremental(o.mode == 1);

  // Tables an edit did not reach keep their content stamp from epoch to
  // epoch; the renderer prints their kept bytes instead of rendering
  // them again. Epochs render under bare --metrics too, so the report
  // accounts for it.
  fl::RelationRenderer renderer = o.renderer(tracer.get());
  auto printEpoch = [&](const fl::EvalResult& res) {
    std::string text;
    renderer.renderAndKeep(text, res.idb, db.cvars());
    if (!o.obs.quietStdout()) std::fwrite(text.data(), 1, text.size(), stdout);
  };

  int exitCode = 0;
  size_t epochsRun = 0;
  std::string degradeReason;
  {
    obs::Span top(tracer.get(), "whatif");
    if (top) {
      top.note("database", argv[0]);
      top.note("program", argv[1]);
      top.note("edits", argv[2]);
    }
    if (!o.obs.quietStdout()) std::printf("== epoch 0: initial ==\n");
    // Budgets are per epoch: every reevaluation gets the full allowance,
    // like one Session operation.
    if (guard.active()) guard.rearm();
    fl::EvalResult res = eng.reevaluate();
    ++epochsRun;
    printEpoch(res);
    if (res.incomplete) {
      exitCode = 2;
      degradeReason = res.degradeReason;
    }
    for (size_t e = 0; exitCode == 0 && e < edits.size(); ++e) {
      eng.apply(edits[e]);
      if (!o.obs.quietStdout()) {
        std::printf("== epoch %zu: %s ==\n", e + 1,
                    fl::formatEdit(edits[e], db.cvars()).c_str());
      }
      if (guard.active()) guard.rearm();
      res = eng.reevaluate();
      ++epochsRun;
      printEpoch(res);
      if (res.incomplete) {
        exitCode = 2;
        degradeReason = res.degradeReason;
      }
    }
  }
  if (o.obs.stats && !o.obs.quietStdout()) {
    obs::MetricsSnapshot snap = tracer->metrics().snapshot();
    printEvalStats(snap);
    printSolverStats(snap);
    printIncStats(eng.stats());
    printRenderStats(snap);
    if (o.solver.supervision.enabled) printSuperviseStats(snap);
  }
  if (tracer != nullptr) {
    obs::ReportMeta meta;
    meta.command = "whatif";
    meta.add("database", argv[0]);
    meta.add("program", argv[1]);
    meta.add("edits", argv[2]);
    meta.add("solver", o.solver.backend);
    meta.add("plan", planModeName(fl::resolvePlanMode(opts.plan)));
    meta.add("incremental", eng.incremental() ? "on" : "off");
    meta.add("epochs", std::to_string(epochsRun));
    addSupervisionMeta(meta, o.solver.supervision);
    if (exitCode == 2) meta.add("incomplete", degradeReason);
    exportObs(*tracer, o.obs, meta);
  }
  if (exitCode == 2) {
    std::fprintf(stderr,
                 "incomplete: %s — the epoch above holds only the tuples "
                 "derived before the budget tripped; later edits were not "
                 "replayed\n",
                 degradeReason.c_str());
  }
  return exitCode;
}

/// The scenario engine of `whatif --scenarios` and `serve` takes the
/// same knobs as single-scenario whatif.
fl::ScenarioSetOptions scenarioOptions(const CliOptions& o,
                                       obs::Tracer* tracer) {
  fl::ScenarioSetOptions sopts;
  sopts.eval.threads = o.threads;  // the fan-out width
  sopts.eval.plan = o.plan;
  sopts.eval.tracer = tracer;
  sopts.limits = o.limits;
  sopts.solver = o.solver;
  sopts.mode = o.mode;
  if (o.relation != nullptr) sopts.relation = o.relation;
  return sopts;
}

void printServeStats(const obs::MetricsSnapshot& snap) {
  std::printf(
      "serve: %llu scenarios, %llu epochs, %llu degraded, %llu errors\n",
      static_cast<unsigned long long>(snap.counter("serve.scenarios")),
      static_cast<unsigned long long>(snap.counter("serve.epochs")),
      static_cast<unsigned long long>(snap.counter("serve.degraded")),
      static_cast<unsigned long long>(snap.counter("serve.errors")));
}

/// `faure whatif <db> <prog> --scenarios FILE`: batch front end over
/// fl::ScenarioSet. Exit code aggregates the per-scenario contract:
/// 1 if any scenario hard-errored, else 2 if any degraded, else 0.
int cmdWhatifBatch(int argc, char** argv) {
  CliOptions o;
  if (argc < 2 || !parseCli(argc, argv, 2, kWhatifFlags | kScenarios, o) ||
      o.scenarios == nullptr) {
    return usage();
  }
  const char* scenariosFile = o.scenarios;
  rel::Database db = fl::parseDatabase(readFile(argv[0]));
  dl::Program program = dl::parseProgram(readFile(argv[1]), db.cvars());
  std::vector<fl::Scenario> scenarios =
      fl::parseScenarioFile(readFile(scenariosFile));
  std::unique_ptr<obs::Tracer> tracer = makeTracer(o.obs);
  fl::ScenarioSet set(std::move(program), std::move(db),
                      scenarioOptions(o, tracer.get()));
  std::vector<fl::ScenarioOutcome> results;
  {
    obs::Span top(tracer.get(), "whatif.batch");
    if (top) {
      top.note("database", argv[0]);
      top.note("program", argv[1]);
      top.note("scenarios", scenariosFile);
    }
    results = set.evaluate(scenarios);
  }
  int exitCode = 0;
  for (const fl::ScenarioOutcome& r : results) {
    if (!o.obs.quietStdout()) {
      std::printf("=== scenario %s: exit %d ===\n", r.id.c_str(),
                  r.exitCode);
      std::fwrite(r.output.data(), 1, r.output.size(), stdout);
    }
    if (!r.message.empty()) {
      std::fprintf(stderr, "scenario %s: %s\n", r.id.c_str(),
                   r.message.c_str());
    }
    if (r.exitCode == 1) {
      exitCode = 1;
    } else if (r.exitCode == 2 && exitCode == 0) {
      exitCode = 2;
    }
  }
  if (o.obs.stats && !o.obs.quietStdout()) {
    obs::MetricsSnapshot snap = tracer->metrics().snapshot();
    printEvalStats(snap);
    printSolverStats(snap);
    printServeStats(snap);
    printRenderStats(snap);
    if (o.solver.supervision.enabled) printSuperviseStats(snap);
  }
  if (tracer != nullptr) {
    fl::EvalOptions fanout;
    fanout.threads = o.threads;
    obs::ReportMeta meta;
    meta.command = "whatif";
    meta.add("database", argv[0]);
    meta.add("program", argv[1]);
    meta.add("scenarios", scenariosFile);
    meta.add("scenario_count", std::to_string(results.size()));
    meta.add("solver", o.solver.backend);
    meta.add("threads", std::to_string(fl::resolveThreads(fanout)));
    meta.add("plan", planModeName(fl::resolvePlanMode(o.plan)));
    addSupervisionMeta(meta, o.solver.supervision);
    exportObs(*tracer, o.obs, meta);
  }
  return exitCode;
}

/// Longest serve request line, newline excluded (1 MiB). A longer line
/// is answered with `ERR line too long` and discarded up to its newline,
/// so no client can make the server allocate without bound.
constexpr size_t kMaxServeLine = size_t{1} << 20;

/// Most EVAL requests one batch queues before GO (64). Every queued
/// request's outcome holds its whole payload until the batch is
/// answered (about 0.8 MB each on a 40-link network), so a client that
/// never sends GO must not be able to grow the queue without bound. An
/// EVAL beyond it is answered with `ERR batch full` and dropped.
constexpr size_t kMaxServeBatch = 64;

/// Reads one line of `in` into `line`, without its newline; returns false
/// at end of input with nothing read. Past kMaxServeLine bytes the rest
/// of the line is consumed but not stored, and `tooLong` is set.
bool readServeLine(FILE* in, std::string& line, bool& tooLong) {
  line.clear();
  tooLong = false;
  int c = std::getc(in);
  if (c == EOF) return false;
  for (; c != EOF && c != '\n'; c = std::getc(in)) {
    if (line.size() < kMaxServeLine) {
      line.push_back(static_cast<char>(c));
    } else {
      tooLong = true;
    }
  }
  return true;
}

/// One client conversation over the serve line protocol (see the file
/// header). Returns true when the client asked for SHUTDOWN. Queued
/// requests are always drained before returning — graceful shutdown
/// never drops accepted work.
bool serveLoop(fl::ScenarioSet& set, FILE* in, FILE* out) {
  std::vector<fl::Scenario> queue;
  bool shutdown = false;
  auto flush = [&] {
    if (queue.empty()) return;
    std::vector<fl::ScenarioOutcome> results = set.evaluate(queue);
    for (const fl::ScenarioOutcome& r : results) {
      std::string reason = r.message;
      for (char& c : reason) {  // RESULT is line-framed
        if (c == '\n' || c == '\r') c = ' ';
      }
      std::fprintf(out, "RESULT %s %d %zu%s%s\n", r.id.c_str(), r.exitCode,
                   r.output.size(), reason.empty() ? "" : " ",
                   reason.c_str());
      std::fwrite(r.output.data(), 1, r.output.size(), out);
    }
    std::fflush(out);
    queue.clear();
  };
  std::string line;
  bool tooLong = false;
  while (readServeLine(in, line, tooLong)) {
    if (tooLong) {
      std::fputs("ERR line too long\n", out);
      std::fflush(out);
      continue;
    }
    std::string_view cmd(line);
    while (!cmd.empty() && cmd.back() == '\r') cmd.remove_suffix(1);
    if (cmd.empty() || cmd == "GO") {
      flush();
    } else if (cmd == "PING") {
      std::fputs("PONG\n", out);
      std::fflush(out);
    } else if (cmd == "QUIT") {
      break;
    } else if (cmd == "SHUTDOWN") {
      shutdown = true;
      break;
    } else if (cmd.rfind("EVAL ", 0) == 0) {
      std::string_view rest = cmd.substr(5);
      size_t sp = rest.find(' ');
      std::string id(rest.substr(0, sp));
      std::string script(sp == std::string_view::npos
                             ? std::string_view()
                             : rest.substr(sp + 1));
      for (char& c : script) {  // `;` separates edits on the wire
        if (c == ';') c = '\n';
      }
      if (id.empty()) {
        std::fputs("ERR EVAL needs an id\n", out);
        std::fflush(out);
      } else if (queue.size() >= kMaxServeBatch) {
        std::fputs("ERR batch full\n", out);
        std::fflush(out);
      } else {
        queue.push_back({std::move(id), std::move(script)});
      }
    } else {
      std::fprintf(out, "ERR unknown command: %.*s\n",
                   static_cast<int>(cmd.size()), cmd.data());
      std::fflush(out);
    }
  }
  flush();
  return shutdown;
}

/// Accept loop for `serve --socket PATH`: one client at a time (each
/// batch already fans out internally), until a client sends SHUTDOWN.
int serveOnSocket(fl::ScenarioSet& set, const char* path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw Error(std::string("socket: ") + std::strerror(errno));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (std::strlen(path) >= sizeof(addr.sun_path)) {
    ::close(fd);
    throw Error(std::string("--socket path too long: ") + path);
  }
  std::strncpy(addr.sun_path, path, sizeof(addr.sun_path) - 1);
  ::unlink(path);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 8) != 0) {
    std::string err = std::strerror(errno);
    ::close(fd);
    throw Error("cannot listen on '" + std::string(path) + "': " + err);
  }
  // Handshake on stdout so scripts can wait for the socket to exist.
  std::printf("READY %s\n", path);
  std::fflush(stdout);
  bool shutdown = false;
  while (!shutdown) {
    int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) break;
    FILE* cin = ::fdopen(client, "r");
    FILE* cout = cin != nullptr ? ::fdopen(::dup(client), "w") : nullptr;
    if (cout == nullptr) {
      if (cin != nullptr) {
        std::fclose(cin);
      } else {
        ::close(client);
      }
      continue;
    }
    shutdown = serveLoop(set, cin, cout);
    std::fclose(cout);
    std::fclose(cin);
  }
  ::close(fd);
  ::unlink(path);
  return 0;
}

int cmdServe(int argc, char** argv) {
  CliOptions o;
  if (argc < 2 || !parseCli(argc, argv, 2, kWhatifFlags | kSocket, o)) {
    return usage();
  }
  rel::Database db = fl::parseDatabase(readFile(argv[0]));
  dl::Program program = dl::parseProgram(readFile(argv[1]), db.cvars());
  std::unique_ptr<obs::Tracer> tracer = makeTracer(o.obs);
  fl::ScenarioSet set(std::move(program), std::move(db),
                      scenarioOptions(o, tracer.get()));
  // Front-load the shared epoch 0 so the first request pays only its
  // own marginal cost.
  set.prepare();
  if (o.socket != nullptr) return serveOnSocket(set, o.socket);
  std::printf("READY\n");
  std::fflush(stdout);
  serveLoop(set, stdin, stdout);
  return 0;
}

int cmdCheck(int argc, char** argv) {
  CliOptions o;
  if (argc < 2 || !parseCli(argc, argv, 2, 0, o)) return usage();
  rel::Database db = fl::parseDatabase(readFile(argv[0]));
  verify::Constraint c =
      verify::Constraint::parse("constraint", readFile(argv[1]), db.cvars());
  smt::SolverStack stack = smt::buildSolverStack(db.cvars(), o.solver);
  std::unique_ptr<obs::Tracer> tracer = makeTracer(o.obs);
  ResourceGuard guard(o.limits);
  smt::attachGuardAndTracer(*stack.solver, guard, tracer.get());
  verify::StateCheck check;
  {
    obs::Span top(tracer.get(), "check");
    if (top) {
      top.note("database", argv[0]);
      top.note("constraint", argv[1]);
    }
    check = verify::RelativeVerifier::checkOnState(c, db, *stack.solver);
  }
  if (!o.obs.quietStdout()) {
    std::printf("verdict: %s\n",
                std::string(verify::verdictText(check.verdict)).c_str());
    if (check.verdict == verify::Verdict::ConditionallyViolated) {
      std::printf("violated exactly when: %s\n",
                  check.condition.toString(&db.cvars()).c_str());
    }
    if (check.incomplete) {
      std::printf("reason: %s (budget tripped; rerun with more resources)\n",
                  check.reason.c_str());
    }
    if (o.obs.stats) {
      obs::MetricsSnapshot snap = tracer->metrics().snapshot();
      printSolverStats(snap);
      if (o.solver.supervision.enabled) printSuperviseStats(snap);
    }
  }
  if (tracer != nullptr) {
    obs::ReportMeta meta;
    meta.command = "check";
    meta.add("database", argv[0]);
    meta.add("constraint", argv[1]);
    meta.add("verdict", std::string(verify::verdictText(check.verdict)));
    addSupervisionMeta(meta, o.solver.supervision);
    if (check.incomplete) meta.add("incomplete", check.reason);
    exportObs(*tracer, o.obs, meta);
  }
  // Exit-code contract (see the file header): any *definite* verdict —
  // holds, violated, conditionally-violated — is a successful analysis
  // and exits 0; unknown means "rerun with more resources" and exits 2.
  return check.verdict == verify::Verdict::Unknown ? 2 : 0;
}

int cmdWorlds(int argc, char** argv) {
  if (argc < 1 || argc > 2) return usage();
  rel::Database db = fl::parseDatabase(readFile(argv[0]));
  uint64_t cap = argc == 2 ? std::strtoull(argv[1], nullptr, 10) : 1024;
  size_t count = 0;
  bool ok = rel::forEachWorld(
      db, cap, [&](const smt::Assignment& a, const rel::World& world) {
        std::printf("---- world %zu ----\n", count++);
        for (const auto& [var, val] : a) {
          std::printf("  %s = %s\n", db.cvars().info(var).name.c_str(),
                      val.toString(&db.cvars()).c_str());
        }
        for (const auto& [name, rows] : world) {
          for (const auto& row : rows) {
            std::printf("  %s(", name.c_str());
            for (size_t i = 0; i < row.size(); ++i) {
              std::printf("%s%s", i > 0 ? ", " : "",
                          row[i].toString(&db.cvars()).c_str());
            }
            std::printf(")\n");
          }
        }
      });
  if (!ok) {
    std::fprintf(stderr,
                 "world space not enumerable (unbounded domain or more "
                 "than %llu worlds)\n",
                 static_cast<unsigned long long>(cap));
    return 1;
  }
  std::printf("%zu possible worlds\n", count);
  return 0;
}

int cmdFmt(int argc, char** argv) {
  if (argc != 1) return usage();
  rel::Database db = fl::parseDatabase(readFile(argv[0]));
  std::printf("%s", fl::formatDatabase(db).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    if (std::strcmp(argv[1], "run") == 0) return cmdRun(argc - 2, argv + 2);
    if (std::strcmp(argv[1], "whatif") == 0) {
      return cmdWhatif(argc - 2, argv + 2);
    }
    if (std::strcmp(argv[1], "serve") == 0) {
      return cmdServe(argc - 2, argv + 2);
    }
    if (std::strcmp(argv[1], "check") == 0) {
      return cmdCheck(argc - 2, argv + 2);
    }
    if (std::strcmp(argv[1], "worlds") == 0) {
      return cmdWorlds(argc - 2, argv + 2);
    }
    if (std::strcmp(argv[1], "fmt") == 0) return cmdFmt(argc - 2, argv + 2);
    return usage();
  } catch (const Error& e) {
    std::fprintf(stderr, "faure: %s\n", e.what());
    return 1;
  }
}
