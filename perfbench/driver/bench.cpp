// Benchmark runner: one workload per process.
//
//   perfbench_driver --workload table4|whatif|serve|verify --seed N
//                    --seconds S --trace 0|1 [--size N] [--expected FILE]
//                    [--faure BIN] [--io-dir DIR] [--op-log FILE]
//                    [--trace-out FILE]
//
// Phases: set-up, the workload's out-of-band oracles, warm-up ops
// (untimed), then timed ops until --seconds of wall time have passed and
// at least 100 ops have run. Between timed ops the runner takes further
// set-up samples on fresh instances (setup_s is their median).
// throughput_per_s is ops per second of op time, so the runner's own
// work (oracles, checks, set-up samples) is not in it. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 every
// op runs twice, untraced then traced, and the metrics are the
// per-layer ones plus trace_overhead (traced p50 / untraced p50 - 1).
#include "bench.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>

namespace perfbench {

namespace {

std::string jsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

double selfPeakRssMb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB on Linux
}

uint64_t tablesRowSetChecksum(
    const std::map<std::string, faure::rel::CTable>& tables,
    const faure::CVarRegistry& reg) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& [name, table] : tables) {
    h = fnv1a(name + "\n", h);
    const std::string text = table.toString(&reg);
    std::vector<std::string_view> lines;
    for (size_t pos = 0; pos < text.size();) {
      size_t eol = text.find('\n', pos);
      if (eol == std::string::npos) eol = text.size();
      lines.push_back(std::string_view(text).substr(pos, eol - pos));
      pos = eol + 1;
    }
    std::sort(lines.begin(), lines.end());
    for (std::string_view line : lines) {
      h = fnv1a(line, h);
      h = fnv1a("\n", h);
    }
  }
  return h;
}

double Trace::total(const std::string& name) const {
  auto it = counts_.find(name);
  return it == counts_.end() ? 0.0 : it->second;
}

double Trace::perOp(const std::string& name) const {
  return windowOps_ == 0 ? 0.0 : total(name) / static_cast<double>(windowOps_);
}

void Trace::beginOp(size_t op, bool inWindow) {
  op_ = op;
  inWindow_ = inWindow;
  if (inWindow) ++windowOps_;
  ++ops_;
  tracer_ = std::make_unique<faure::obs::Tracer>();
}

Trace::Layer& Trace::layer(const std::string& name) {
  auto it = std::find_if(layers_.begin(), layers_.end(),
                         [&](const auto& l) { return l.first == name; });
  if (it == layers_.end()) {
    layers_.push_back({name, Layer{}});
    it = layers_.end() - 1;
  }
  return it->second;
}

void Trace::endOp() {
  const std::vector<faure::obs::SpanRecord> spans = tracer_->spans();
  dropped_ += tracer_->droppedSpans();
  for (const faure::obs::SpanRecord& s : spans) {
    const std::string parent =
        s.parent < spans.size() ? spans[s.parent].name : std::string();
    Layer& l = layer(s.name);
    l.seconds += s.duration();
    ++l.spans;
    if (!parent.empty()) layer(parent).childSeconds += s.duration();
    if (records_.size() < kMaxRecords) {
      records_.push_back("{\"op\": " + std::to_string(op_) +
                         ", \"name\": " + jsonString(s.name) +
                         ", \"parent\": " + jsonString(parent) +
                         ", \"start_s\": " + jsonNumber(s.start) +
                         ", \"dur_s\": " + jsonNumber(s.duration()) + "}");
    }
  }
  tracer_.reset();
}

const Trace::Layer* Trace::find(const std::string& name) const {
  for (const auto& [n, layer] : layers_) {
    if (n == name) return &layer;
  }
  return nullptr;
}

double Trace::spanSeconds(const std::string& name) const {
  const Layer* l = find(name);
  return l == nullptr ? 0.0 : l->seconds;
}

size_t Trace::spanCount(const std::string& name) const {
  const Layer* l = find(name);
  return l == nullptr ? 0 : l->spans;
}

void countInterner(Trace& trace, const InternerSample& before) {
  auto s = faure::smt::FormulaInterner::instance().stats();
  trace.count("smt.interner.calls",
              static_cast<double>(s.hits + s.misses - before.calls));
  trace.count("smt.interner.new_nodes",
              static_cast<double>(s.misses - before.newNodes));
  trace.count("smt.interner.live_nodes", static_cast<double>(s.entries));
}

void countSolver(Trace& trace, const SolverSample& before,
                 const SolverSample& after) {
  const double checks = static_cast<double>(after.checks - before.checks);
  const double hits = static_cast<double>(after.hits - before.hits);
  trace.count("smt.solver.checks", checks);
  trace.count("smt.solver.physical_checks", checks - hits);
  trace.count("smt.cache.hits", hits);
  trace.count("smt.solver.seconds", after.seconds - before.seconds);
}

void countEval(Trace& trace, const faure::fl::EvalStats& stats) {
  trace.count("faurelog.eval.derivations", static_cast<double>(stats.derivations));
  trace.count("faurelog.eval.inserted", static_cast<double>(stats.inserted));
  trace.count("faurelog.eval.subsumed", static_cast<double>(stats.subsumed));
  trace.count("faurelog.eval.pruned_unsat", static_cast<double>(stats.prunedUnsat));
  trace.count("faurelog.eval.sql_seconds", stats.sqlSeconds);
}

void countEvalMetrics(Trace& trace) {
  const faure::obs::MetricsSnapshot m = trace.tracer()->metrics().snapshot();
  for (const char* name : {"derivations", "inserted", "subsumed", "pruned_unsat"}) {
    trace.count(std::string("faurelog.eval.") + name,
                static_cast<double>(m.counter(std::string("eval.") + name)));
  }
  trace.count("faurelog.eval.sql_seconds", m.histogram("eval.sql_seconds").sum);
}

void countInc(Trace& trace, const faure::fl::IncStats& before,
              const faure::fl::IncStats& after) {
  trace.count("faurelog.incremental.refired_rules",
              static_cast<double>(after.refiredRules - before.refiredRules));
  trace.count("faurelog.incremental.reused_strata",
              static_cast<double>(after.reusedStrata - before.reusedStrata));
  trace.count("faurelog.incremental.dirty_strata",
              static_cast<double>(after.dirtyStrata - before.dirtyStrata));
}

std::vector<LayerValue> engineLayers(const Trace& t) {
  auto ratio = [&](const char* num, double den) {
    return den > 0 ? t.total(num) / den : 0.0;
  };
  const double reused = t.total("faurelog.incremental.reused_strata");
  return {
      {"smt.interner.calls", t.perOp("smt.interner.calls")},
      {"smt.interner.new_nodes", t.perOp("smt.interner.new_nodes")},
      {"smt.interner.live_nodes", t.perOp("smt.interner.live_nodes")},
      {"smt.solver.checks", t.perOp("smt.solver.checks")},
      {"smt.solver.physical_checks", t.perOp("smt.solver.physical_checks")},
      {"smt.cache.hit_ratio",
       ratio("smt.cache.hits", t.total("smt.solver.checks"))},
      {"smt.solver.ms", 1e3 * t.perOp("smt.solver.seconds")},
      {"faurelog.eval.sql_ms", 1e3 * t.perOp("faurelog.eval.sql_seconds")},
      {"faurelog.eval.derivations", t.perOp("faurelog.eval.derivations")},
      {"faurelog.eval.inserted", t.perOp("faurelog.eval.inserted")},
      {"faurelog.eval.subsumed", t.perOp("faurelog.eval.subsumed")},
      {"faurelog.eval.pruned_unsat", t.perOp("faurelog.eval.pruned_unsat")},
      {"faurelog.eval.useful_ratio",
       ratio("faurelog.eval.inserted", t.total("faurelog.eval.derivations"))},
      {"faurelog.incremental.refired_rules",
       t.perOp("faurelog.incremental.refired_rules")},
      {"faurelog.incremental.reused_strata",
       t.perOp("faurelog.incremental.reused_strata")},
      {"faurelog.incremental.reuse_ratio",
       ratio("faurelog.incremental.reused_strata",
             reused + t.total("faurelog.incremental.dirty_strata"))},
  };
}

namespace {

// Set-up samples: the first set-up, then one on a fresh instance after
// an op whenever the samples so far took under kSetupShare of the timed
// phase and the last one is at least kSetupGap seconds back, so that
// they spread over the run as the ops do (a burst at the start would
// sample one speed phase of the host only) without crowding short ops.
// At least kMinSetups (topped up after the ops).
constexpr size_t kMinSetups = 5;
constexpr double kSetupShare = 0.1;
constexpr double kSetupGap = 0.1;
// An untimed run times at least this many ops, so that its p90 has at
// least 10 samples beyond it.
constexpr size_t kMinOps = 100;

struct MetricDecl {
  const char* name;
  const char* unit;
};

// Must list exactly the per_layer metrics of BENCHMARK.json (the
// self-test checks both directions).
const MetricDecl kPerLayer[] = {
    {"smt.interner.calls", "count"},
    {"smt.interner.new_nodes", "count"},
    {"smt.interner.live_nodes", "count"},
    {"smt.solver.checks", "count"},
    {"smt.solver.physical_checks", "count"},
    {"smt.cache.hit_ratio", "ratio"},
    {"smt.solver.ms", "ms"},
    {"faurelog.eval.q45_ms", "ms"},
    {"faurelog.eval.q6_ms", "ms"},
    {"faurelog.eval.q7_ms", "ms"},
    {"faurelog.eval.q8_ms", "ms"},
    {"faurelog.eval.sql_ms", "ms"},
    {"faurelog.eval.derivations", "count"},
    {"faurelog.eval.inserted", "count"},
    {"faurelog.eval.subsumed", "count"},
    {"faurelog.eval.pruned_unsat", "count"},
    {"faurelog.eval.useful_ratio", "ratio"},
    {"faurelog.incremental.fail_ms", "ms"},
    {"faurelog.incremental.restore_ms", "ms"},
    {"faurelog.incremental.apply_ms", "ms"},
    {"faurelog.incremental.refired_rules", "count"},
    {"faurelog.incremental.reused_strata", "count"},
    {"faurelog.incremental.reuse_ratio", "ratio"},
    {"faurelog.textio.parse_edit_ms", "ms"},
    {"faurelog.textio.parse_db_ms", "ms"},
    {"faurelog.scenario.evaluate_ms", "ms"},
    {"relational.clone_ms", "ms"},
    {"faurelog.textio.render_ms", "ms"},
    {"serve.payload_bytes", "bytes"},
    {"serve.transport_ms", "ms"},
    {"verify.subsumption_us", "us"},
    {"verify.unfold_us", "us"},
    {"verify.holds", "count"},
    {"verify.unknown", "count"},
    {"verify.agree_ratio", "ratio"},
    {"trace_overhead", "ratio"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload table4|whatif|serve|verify"
               " --seed N --seconds S --trace 0|1 [--size N]"
               " [--expected FILE] [--faure BIN] [--io-dir DIR]"
               " [--op-log FILE] [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Options parseArgs(int argc, char** argv) {
  Options o;
  bool haveSeed = false, haveSeconds = false, haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      haveSeed = end != v && *end == '\0';
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &end);
      haveSeconds = end != v && *end == '\0' && o.seconds > 0.0;
    } else if (a == "--trace") {
      haveTrace = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
      o.trace = std::strcmp(v, "1") == 0;
    } else if (a == "--size") {
      o.size = static_cast<size_t>(std::strtoull(v, &end, 10));
    } else if (a == "--expected") {
      o.expectedFile = v;
    } else if (a == "--faure") {
      o.faureBinary = v;
    } else if (a == "--io-dir") {
      o.ioDir = v;
    } else if (a == "--op-log") {
      o.opLog = v;
    } else if (a == "--trace-out") {
      o.traceOut = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!haveSeed) usage("--seed must be a whole number");
  if (!haveSeconds) usage("--seconds must be a positive number");
  if (!haveTrace) usage("--trace must be 0 or 1");
  return o;
}

/// Linear-interpolated quantile (q in [0,1]) of unsorted samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Self time per layer (span time minus the time of its child spans)
/// and its share of the mean traced op.
void printLayerReport(const std::string& workload, const Trace& trace,
                      double tracedOpMean, double overhead) {
  const double ops = static_cast<double>(std::max<size_t>(trace.ops(), 1));
  std::printf("layer report: %s, %zu traced ops, mean traced op %.3f ms, "
              "trace_overhead %+.4f\n",
              workload.c_str(), trace.ops(), tracedOpMean * 1e3, overhead);
  if (trace.droppedSpans() != 0) {
    std::printf("  (%llu spans beyond the tracer's cap are missing)\n",
                static_cast<unsigned long long>(trace.droppedSpans()));
  }
  std::printf("  %-40s %12s %12s %8s\n", "layer (span)", "ms/op", "self ms/op",
              "share");
  for (const auto& [name, layer] : trace.layers()) {
    const double self = (layer.seconds - layer.childSeconds) / ops;
    std::printf("  %-40s %12.4f %12.4f %7.1f%%\n", name.c_str(),
                layer.seconds / ops * 1e3, self * 1e3,
                tracedOpMean > 0.0 ? 100.0 * self / tracedOpMean : 0.0);
  }
}

void writeSpans(const std::string& path, const Trace& trace) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write trace file '%s'\n", path.c_str());
    return;
  }
  for (const std::string& r : trace.records()) out << r << "\n";
}

std::unique_ptr<Workload> makeWorkload(const Options& o) {
  if (o.workload == "table4") return makeTable4(o);
  if (o.workload == "whatif") return makeWhatif(o);
  if (o.workload == "serve") return makeServe(o);
  if (o.workload == "verify") return makeVerify(o);
  usage(("unknown workload " + o.workload).c_str());
}

/// Times set-up on a fresh instance, then stops it.
double setupSample(const Options& o) {
  std::unique_ptr<Workload> probe = makeWorkload(o);
  const double t0 = now();
  probe->setup();
  const double seconds = now() - t0;
  if (!probe->finish()) throw std::runtime_error("set-up sample did not stop cleanly");
  return seconds;
}

int run(const Options& o) {
  std::unique_ptr<Workload> w = makeWorkload(o);

  std::vector<double> setups;
  {
    const double t0 = now();
    w->setup();
    setups.push_back(now() - t0);
  }
  w->prepareChecks();

  std::FILE* opLog = nullptr;
  if (!o.opLog.empty()) {
    opLog = std::fopen(o.opLog.c_str(), "w");
    if (opLog == nullptr) {
      throw std::runtime_error("cannot write op log '" + o.opLog + "'");
    }
  }
  size_t attempted = 0;
  size_t failed = 0;
  size_t failuresShown = 0;
  auto runOne = [&](size_t i, Trace* trace) {
    OpResult r;
    try {
      r = w->op(i, trace);
    } catch (const std::exception& e) {
      r.ok = false;
      r.error = e.what();
    }
    if (opLog != nullptr) {
      std::fprintf(opLog, "%zu %s %s\n", i, trace != nullptr ? "T" : "U",
                   w->opLabel(i).c_str());
    }
    if (!r.ok && ++failuresShown <= 20) {
      std::fprintf(stderr, "failed op %zu (%s): %s\n", i,
                   w->opLabel(i).c_str(), r.error.c_str());
    }
    return r;
  };

  // Warm-up: checked, never timed. A failure here fails the run.
  bool warmOk = true;
  const size_t warm = w->warmupOps();
  for (size_t i = 0; i < warm; ++i) warmOk = runOne(i, nullptr).ok && warmOk;

  // The timed phase: --seconds of wall time, not counting set-up
  // samples, and at least kMinOps ops in an untraced run.
  std::vector<double> plain;   // untraced latencies
  std::vector<double> traced;  // traced latencies (trace run only)
  Trace trace;
  const double t0 = now();
  double sampling = 0.0;  // wall time spent on set-up samples
  double lastSample = t0;
  for (size_t i = warm;; ++i) {
    const bool timeLeft = now() - t0 - sampling < o.seconds;
    if (!o.trace && !timeLeft && plain.size() >= kMinOps) break;
    if (o.trace && !timeLeft && trace.windowOps() >= w->countWindow()) break;
    OpResult r = runOne(i, nullptr);
    ++attempted;
    if (!r.ok) ++failed;
    plain.push_back(r.seconds);
    if (o.trace) {
      trace.beginOp(i, trace.windowOps() < w->countWindow());
      OpResult rt = runOne(i, &trace);
      trace.endOp();
      ++attempted;
      if (!rt.ok) ++failed;
      traced.push_back(rt.seconds);
    } else if (sampling < kSetupShare * (now() - t0 - sampling) &&
               now() - lastSample >= kSetupGap) {
      const double s0 = now();
      setups.push_back(setupSample(o));
      lastSample = now();
      sampling += lastSample - s0;
    }
  }
  double opSeconds = 0.0;
  for (double x : plain) opSeconds += x;
  while (!o.trace && setups.size() < kMinSetups) setups.push_back(setupSample(o));
  if (opLog != nullptr) std::fclose(opLog);
  const bool finishOk = w->finish();

  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;
  if (!o.trace) {
    metrics.push_back({"setup_s", {quantile(setups, 0.5), "s"}});
    metrics.push_back({"op_p50_ms", {quantile(plain, 0.5) * 1e3, "ms"}});
    metrics.push_back({"op_p90_ms", {quantile(plain, 0.9) * 1e3, "ms"}});
    metrics.push_back(
        {"throughput_per_s",
         {static_cast<double>(plain.size()) / opSeconds, "1/s"}});
    metrics.push_back({"peak_rss_mb", {w->peakRssMb(), "MB"}});
    std::printf("%s: %zu timed ops, %.2f s of op time, %zu failed; %zu set-up "
                "samples, min %.4f s, max %.4f s\n",
                o.workload.c_str(), plain.size(), opSeconds, failed,
                setups.size(), *std::min_element(setups.begin(), setups.end()),
                *std::max_element(setups.begin(), setups.end()));
  } else {
    const double overhead =
        quantile(traced, 0.5) / quantile(plain, 0.5) - 1.0;
    std::map<std::string, double> values;
    for (const LayerValue& v : w->layers(trace)) values[v.name] = v.value;
    values["trace_overhead"] = overhead;
    for (const MetricDecl& d : kPerLayer) {
      auto it = values.find(d.name);
      if (it == values.end()) {
        metrics.push_back({d.name, {0.0, d.unit}});
      } else {
        metrics.push_back({d.name, {it->second, d.unit}});
        values.erase(it);
      }
    }
    if (!values.empty()) {
      throw std::logic_error("undeclared per-layer metric " +
                             values.begin()->first);
    }
    printLayerReport(o.workload, trace, mean(traced), overhead);
    if (!o.traceOut.empty()) writeSpans(o.traceOut, trace);
  }

  const bool correct = warmOk && finishOk && failed == 0;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t k = 0; k < metrics.size(); ++k) {
    if (k > 0) line += ", ";
    line += jsonString(metrics[k].first) + ": {\"value\": " +
            jsonNumber(metrics[k].second.first) +
            ", \"unit\": " + jsonString(metrics[k].second.second) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options o = perfbench::parseArgs(argc, argv);
  // Watchdog: a hung engine or server ends the run (SIGALRM terminates
  // the process, and a `faure serve` child then reads EOF and exits)
  // instead of stalling whoever runs the benchmark.
  ::alarm(static_cast<unsigned>(o.seconds) + 150);
  try {
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
