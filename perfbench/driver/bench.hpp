// Shared pieces of the benchmark driver: the workload interface the
// runner drives, the per-layer fold of a traced run's obs::Tracer spans
// with its count window, and small helpers (checksums, peak RSS,
// interner/solver counter deltas).
//
// A workload is a fixed, seeded sequence of homogeneous ops: op i is a
// function of (seed, i) only, never of how long the run lasts. The
// runner (bench.cpp) times set-up, warm-up and the timed ops, and asks
// the workload to check every op's output.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "faurelog/eval.hpp"
#include "faurelog/incremental.hpp"
#include "obs/trace.hpp"
#include "relational/ctable.hpp"
#include "smt/interner.hpp"
#include "smt/solver.hpp"
#include "smt/verdict_cache.hpp"

namespace perfbench {

inline double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// FNV-1a 64 over bytes: a platform-independent output checksum.
inline uint64_t fnv1a(std::string_view s, uint64_t h = 0xcbf29ce484222325ULL) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Checksum of derived tables: each table's name, then its rendered
/// rows (CTable::toString lines) in sorted order, so two renderings of
/// the same rows in another order agree.
uint64_t tablesRowSetChecksum(
    const std::map<std::string, faure::rel::CTable>& tables,
    const faure::CVarRegistry& reg);

/// Peak resident set size of this process, in MB.
double selfPeakRssMb();

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Input size override (0 = the workload's stated size); the
  /// self-test runs every workload at tiny sizes through it.
  size_t size = 0;
  std::string expectedFile;  // table4 oracle
  std::string faureBinary;   // serve: the CLI under test
  std::string ioDir;         // serve: where generated inputs are written
  std::string opLog;         // optional: labels of every executed op
  std::string traceOut;      // traced run: span records (JSON lines)
};

/// The traced run's recorder. Each traced op gets a fresh obs::Tracer:
/// the workload opens obs::Span on it and may hand it to the engine as
/// EvalOptions::tracer. At the end of the op its span tree is folded
/// into per-layer totals (a layer is a span name), and the first
/// kMaxRecords spans are kept for the trace file. Counts accumulate only
/// over the count window (the first `window` traced ops), so per-op
/// counts do not depend on run length.
class Trace {
 public:
  static constexpr size_t kMaxRecords = 20000;

  struct Layer {
    double seconds = 0.0;
    double childSeconds = 0.0;  // time of its direct child spans
    size_t spans = 0;
  };

  /// Starts traced op `op` on a fresh tracer.
  void beginOp(size_t op, bool inWindow);
  /// Folds the op's spans into the layers and drops its tracer.
  void endOp();
  /// The current op's tracer (null outside an op).
  faure::obs::Tracer* tracer() { return tracer_.get(); }

  void count(const std::string& name, double v) {
    if (inWindow_) counts_[name] += v;
  }

  bool inWindow() const { return inWindow_; }
  size_t ops() const { return ops_; }
  size_t windowOps() const { return windowOps_; }
  /// Spans beyond a tracer's cap, over all traced ops (0 expected).
  uint64_t droppedSpans() const { return dropped_; }
  /// The kept spans, one JSON object per line.
  const std::vector<std::string>& records() const { return records_; }
  /// Layers in order of first appearance.
  const std::vector<std::pair<std::string, Layer>>& layers() const {
    return layers_;
  }
  /// Window total of a count (0 when never recorded).
  double total(const std::string& name) const;
  /// Window total divided by the window's op count.
  double perOp(const std::string& name) const;
  /// Total seconds of all spans with this name, over all traced ops.
  double spanSeconds(const std::string& name) const;
  /// Number of spans with this name.
  size_t spanCount(const std::string& name) const;

 private:
  const Layer* find(const std::string& name) const;
  Layer& layer(const std::string& name);

  std::unique_ptr<faure::obs::Tracer> tracer_;
  size_t op_ = 0;
  bool inWindow_ = false;
  size_t ops_ = 0;
  size_t windowOps_ = 0;
  uint64_t dropped_ = 0;
  std::vector<std::string> records_;
  std::vector<std::pair<std::string, Layer>> layers_;
  std::map<std::string, double> counts_;
};

/// The tracer of a traced op; null (tracing off) otherwise.
inline faure::obs::Tracer* tracerOf(Trace* trace) {
  return trace == nullptr ? nullptr : trace->tracer();
}

/// Runs `f` inside an obs::Span (a plain call when `tracer` is null).
template <class F>
auto timed(faure::obs::Tracer* tracer, const char* name, F&& f) {
  faure::obs::Span span(tracer, name);
  return f();
}

/// Process-wide interner counters, for per-op deltas.
struct InternerSample {
  uint64_t calls = 0;
  uint64_t newNodes = 0;
  static InternerSample take() {
    auto s = faure::smt::FormulaInterner::instance().stats();
    return {s.hits + s.misses, s.misses};
  }
};

/// Logical/physical solver checks and solver seconds, for per-op deltas.
struct SolverSample {
  uint64_t checks = 0;
  uint64_t hits = 0;
  double seconds = 0.0;
  static SolverSample take(const faure::smt::SolverBase& solver,
                           const faure::smt::VerdictCache* cache) {
    SolverSample s;
    s.checks = solver.stats().checks;
    s.seconds = solver.stats().seconds;
    if (cache != nullptr) s.hits = cache->stats().hits;
    return s;
  }
};

/// Records interner deltas since `before` (calls, new nodes) and the
/// live-node count now.
void countInterner(Trace& trace, const InternerSample& before);
/// Records solver deltas since `before`.
void countSolver(Trace& trace, const SolverSample& before,
                 const SolverSample& after);

/// Records one evaluation's EvalStats.
void countEval(Trace& trace, const faure::fl::EvalStats& stats);
/// Records the eval.* counters the engine wrote into the op's tracer
/// (EvalOptions::tracer), summed over every evaluation of the op.
void countEvalMetrics(Trace& trace);
/// Records IncStats deltas (`after` minus `before`).
void countInc(Trace& trace, const faure::fl::IncStats& before,
              const faure::fl::IncStats& after);

struct OpResult {
  double seconds = 0.0;  // the op's latency
  bool ok = true;        // output checked and correct
  std::string error;     // why not (stderr shows the first 20)
};

/// A per-layer metric value, as the workload reports it.
struct LayerValue {
  std::string name;
  double value = 0.0;
};

/// The interner, solver, evaluation and incremental metrics, taken the
/// same way on every workload: per-op means over the count window, and
/// ratios of window totals. A layer the workload never counted reads 0.
std::vector<LayerValue> engineLayers(const Trace& trace);

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs and the resident state from scratch. The runner
  /// times it once before the ops, and again on fresh instances spread
  /// over the timed phase (set-up samples, discarded after timing).
  virtual void setup() = 0;
  /// Oracles computed outside the timed phase (after set-up).
  virtual void prepareChecks() = 0;
  /// Short description of op i (for the op log).
  virtual std::string opLabel(size_t i) const = 0;
  /// Runs op i, times it, and checks its output. With `trace`, also
  /// records spans and counts.
  virtual OpResult op(size_t i, Trace* trace) = 0;
  /// Untimed ops run before timing.
  virtual size_t warmupOps() const = 0;
  /// Traced ops whose counts are averaged (run length independent).
  virtual size_t countWindow() const = 0;
  /// Per-layer metrics from the traced run.
  virtual std::vector<LayerValue> layers(const Trace& trace) const = 0;
  /// Peak RSS of the process doing the work.
  virtual double peakRssMb() { return selfPeakRssMb(); }
  /// Stops anything the workload started; called once at the end.
  /// False when that shows a fault (a server that did not exit 0).
  virtual bool finish() { return true; }
};

std::unique_ptr<Workload> makeTable4(const Options& opts);
std::unique_ptr<Workload> makeWhatif(const Options& opts);
std::unique_ptr<Workload> makeServe(const Options& opts);
std::unique_ptr<Workload> makeVerify(const Options& opts);

}  // namespace perfbench
