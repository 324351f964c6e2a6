// Workload `table4`: the paper's §6 pipeline, q4-q8 of Listing 2, on a
// generated RIB of 400 prefixes (0.4x the smallest row of Table 4, so
// that one run times at least 100 ops; see README.md).
//
// Op i runs net::runTable4 with the native solver, a fresh VerdictCache
// and one thread on the RIB generated from kRibSeeds[(seed + i) % 8];
// generating the RIB is outside the timed op. Every op's tuple counts
// and table checksum are checked against expected/table4.txt.
//
// The traced op runs the same call with an obs::Tracer attached: the
// pipeline's own table4.q45/q6/q7/q8 spans and the engine's eval.*
// counters are its per-layer figures.
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "net/pipeline.hpp"

namespace perfbench {
namespace {

using namespace faure;

constexpr uint64_t kRibSeeds[] = {42, 7, 1001, 2024, 31337, 8, 99, 123};
constexpr size_t kNumSeeds = sizeof(kRibSeeds) / sizeof(kRibSeeds[0]);
const char* const kTables[] = {"R", "T1", "T2", "T3"};

struct Expected {
  uint64_t tuples[4] = {0, 0, 0, 0};
  uint64_t checksum = 0;
};

/// Loads `size ribseed R T1 T2 T3 checksum` lines ('#' starts a comment).
std::map<std::pair<size_t, uint64_t>, Expected> loadExpected(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read expected file '" + path + "'");
  std::map<std::pair<size_t, uint64_t>, Expected> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    size_t size = 0;
    uint64_t seed = 0;
    Expected e;
    std::string sum;
    ls >> size >> seed >> e.tuples[0] >> e.tuples[1] >> e.tuples[2] >>
        e.tuples[3] >> sum;
    if (!ls) throw std::runtime_error("bad expected line: " + line);
    e.checksum = std::stoull(sum, nullptr, 16);
    out[{size, seed}] = e;
  }
  return out;
}

class Table4 : public Workload {
 public:
  explicit Table4(const Options& o)
      : opts_(o), prefixes_(o.size != 0 ? o.size : 400) {}

  void setup() override {
    // The pipeline's input load: one RIB, as the first op will see it.
    input_ = std::make_unique<rel::Database>();
    net::generateRib(*input_, config(ribSeed(0)));
  }

  void prepareChecks() override {
    if (opts_.expectedFile.empty()) {
      throw std::runtime_error("table4 needs --expected FILE");
    }
    expected_ = loadExpected(opts_.expectedFile);
  }

  std::string opLabel(size_t i) const override {
    return "rib_seed=" + std::to_string(ribSeed(i)) +
           " prefixes=" + std::to_string(prefixes_);
  }

  size_t warmupOps() const override { return 1; }
  size_t countWindow() const override { return 4; }

  OpResult op(size_t i, Trace* trace) override {
    const uint64_t seed = ribSeed(i);
    rel::Database db;
    net::RibGenResult rib = net::generateRib(db, config(seed));
    smt::NativeSolver solver(db.cvars());
    smt::VerdictCache cache(db.cvars());
    solver.setVerdictCache(&cache);
    fl::EvalOptions eo;
    eo.threads = 1;
    eo.tracer = tracerOf(trace);

    OpResult r;
    const InternerSample interner = InternerSample::take();
    const SolverSample before = SolverSample::take(solver, &cache);
    const double t0 = now();
    net::Table4Result res = net::runTable4(db, rib, solver, eo);
    r.seconds = now() - t0;
    const bool incomplete = res.incomplete || res.budgetTrips != 0;
    if (trace != nullptr) {
      countInterner(*trace, interner);
      countSolver(*trace, before, SolverSample::take(solver, &cache));
      countEvalMetrics(*trace);
    }
    if (incomplete) {
      r.ok = false;
      r.error = "pipeline incomplete";
      return r;
    }
    check(db, seed, r);
    return r;
  }

  std::vector<LayerValue> layers(const Trace& t) const override {
    const double ops = static_cast<double>(std::max<size_t>(t.ops(), 1));
    std::vector<LayerValue> out = engineLayers(t);
    for (const std::string q : {"q45", "q6", "q7", "q8"}) {
      out.push_back({"faurelog.eval." + q + "_ms",
                     1e3 * t.spanSeconds("table4." + q) / ops});
    }
    return out;
  }

 private:
  uint64_t ribSeed(size_t i) const {
    return kRibSeeds[(opts_.seed + i) % kNumSeeds];
  }

  net::RibConfig config(uint64_t seed) const {
    net::RibConfig cfg;
    cfg.numPrefixes = prefixes_;
    cfg.seed = seed;
    return cfg;
  }

  void check(const rel::Database& db, uint64_t seed, OpResult& r) {
    uint64_t sum = 0xcbf29ce484222325ULL;
    uint64_t tuples[4];
    for (size_t k = 0; k < 4; ++k) {
      const rel::CTable& t = db.table(kTables[k]);
      tuples[k] = t.size();
      sum = fnv1a(std::string(kTables[k]) + "\n", sum);
      sum = fnv1a(t.toString(&db.cvars()), sum);
    }
    char got[160];
    std::snprintf(got, sizeof(got), "%zu %llu %llu %llu %llu %llu %016llx",
                  prefixes_, static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(tuples[0]),
                  static_cast<unsigned long long>(tuples[1]),
                  static_cast<unsigned long long>(tuples[2]),
                  static_cast<unsigned long long>(tuples[3]),
                  static_cast<unsigned long long>(sum));
    auto it = expected_.find({prefixes_, seed});
    if (it == expected_.end()) {
      r.ok = false;
      r.error = std::string("no expected entry; observed: ") + got;
      return;
    }
    const Expected& e = it->second;
    for (size_t k = 0; k < 4; ++k) {
      if (tuples[k] != e.tuples[k]) r.ok = false;
    }
    if (sum != e.checksum) r.ok = false;
    if (!r.ok) r.error = std::string("output differs from expected; observed: ") + got;
  }

  Options opts_;
  size_t prefixes_;
  std::unique_ptr<rel::Database> input_;
  std::map<std::pair<size_t, uint64_t>, Expected> expected_;
};

}  // namespace

std::unique_ptr<Workload> makeTable4(const Options& opts) {
  return std::make_unique<Table4>(opts);
}

}  // namespace perfbench
