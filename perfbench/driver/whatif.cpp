// Workload `whatif`: a resident fl::IncrementalEngine on the two-team
// network (network.hpp) at 40 links.
//
// Op i is one link flap of link k = flapOrder[i mod |unprotected|]:
// `-F(f0,k+1,k+2)`, reevaluate, `+F(f0,k+1,k+2)`, reevaluate. The state
// returns to base after every op, up to row order: the reinserted F row
// is appended, so later derivations list their rows in another order.
// Checks, comparing each table's rendered rows as a sorted list: the
// restore epoch equals epoch 0; the fail epoch of a seeded subset of
// links equals a full-recompute engine's (setIncremental(false)) on the
// base network, computed before the timed phase.
#include <set>
#include <stdexcept>

#include "bench.hpp"
#include "datalog/parser.hpp"
#include "faurelog/incremental.hpp"
#include "faurelog/textio.hpp"
#include "network.hpp"

namespace perfbench {
namespace {

using namespace faure;

constexpr size_t kOracleLinks = 4;

/// A resident engine over its own copy of the network.
struct Resident {
  std::unique_ptr<rel::Database> db;
  std::unique_ptr<smt::NativeSolver> solver;
  std::unique_ptr<smt::VerdictCache> cache;
  std::unique_ptr<fl::IncrementalEngine> engine;
  double parseDbSeconds = 0.0;
  uint64_t baseChecksum = 0;

  Resident(const Network& net, bool incremental) {
    const double t0 = now();
    db = std::make_unique<rel::Database>(fl::parseDatabase(net.dbText));
    parseDbSeconds = now() - t0;
    dl::Program program = dl::parseProgram(net.programText, db->cvars());
    solver = std::make_unique<smt::NativeSolver>(db->cvars());
    cache = std::make_unique<smt::VerdictCache>(db->cvars());
    solver->setVerdictCache(cache.get());
    fl::EvalOptions eo;
    eo.threads = 1;
    engine = std::make_unique<fl::IncrementalEngine>(std::move(program), *db,
                                                     solver.get(), eo);
    engine->setIncremental(incremental);
    fl::EvalResult res = engine->reevaluate();
    if (res.incomplete) throw std::runtime_error("epoch 0 incomplete");
    baseChecksum = tablesRowSetChecksum(res.idb, db->cvars());
  }

  fl::Edit edit(char sign, size_t link) {
    const std::string text = std::string(1, sign) + "F(f0, " +
                             std::to_string(link + 1) + ", " +
                             std::to_string(link + 2) + ")\n";
    return fl::parseEditScript(text, *db).at(0);
  }
};

class Whatif : public Workload {
 public:
  explicit Whatif(const Options& o)
      : opts_(o),
        net_(makeNetwork(o.size != 0 ? o.size : 40, o.seed)),
        order_(flapOrder(net_.links, o.seed)) {}

  void setup() override {
    res_ = std::make_unique<Resident>(net_, /*incremental=*/true);
    parseDbSeconds_.push_back(res_->parseDbSeconds);
  }

  void prepareChecks() override {
    for (size_t k : order_) {
      fail_.push_back(res_->edit('-', k));
      restore_.push_back(res_->edit('+', k));
    }
    // Full-recompute oracle for a seeded subset of the links.
    util::Rng rng(opts_.seed ^ 0x0a11ce5ULL);
    std::set<size_t> picks;
    while (picks.size() < std::min(kOracleLinks, order_.size())) {
      picks.insert(static_cast<size_t>(rng.below(order_.size())));
    }
    for (size_t slot : picks) {
      Resident oracle(net_, /*incremental=*/false);
      oracle.engine->apply(oracle.edit('-', order_[slot]));
      fl::EvalResult res = oracle.engine->reevaluate();
      oracleFail_[slot] = tablesRowSetChecksum(res.idb, oracle.db->cvars());
    }
  }

  std::string opLabel(size_t i) const override {
    return "flap link " + std::to_string(order_[i % order_.size()]) + " of " +
           std::to_string(net_.links);
  }

  size_t warmupOps() const override { return 3; }
  size_t countWindow() const override { return 8; }

  OpResult op(size_t i, Trace* trace) override {
    const size_t slot = i % order_.size();
    fl::IncrementalEngine& eng = *res_->engine;
    const InternerSample interner = InternerSample::take();
    const SolverSample before =
        SolverSample::take(*res_->solver, res_->cache.get());
    const fl::IncStats incBefore = eng.stats();

    obs::Tracer* tracer = tracerOf(trace);
    OpResult r;
    fl::EvalResult failed;
    fl::EvalResult restored;
    const double t0 = now();
    {
      obs::Span op(tracer, "whatif.op");
      timed(tracer, "incremental.fail.apply", [&] { eng.apply(fail_[slot]); });
      failed = timed(tracer, "incremental.fail.reevaluate",
                     [&] { return eng.reevaluate(); });
      timed(tracer, "incremental.restore.apply",
            [&] { eng.apply(restore_[slot]); });
      restored = timed(tracer, "incremental.restore.reevaluate",
                       [&] { return eng.reevaluate(); });
    }
    r.seconds = now() - t0;

    if (trace != nullptr) {
      countInterner(*trace, interner);
      countSolver(*trace, before,
                  SolverSample::take(*res_->solver, res_->cache.get()));
      countEval(*trace, failed.stats);
      countEval(*trace, restored.stats);
      countInc(*trace, incBefore, eng.stats());
    }

    if (failed.incomplete || restored.incomplete) {
      r.ok = false;
      r.error = "epoch incomplete";
      return r;
    }
    if (tablesRowSetChecksum(restored.idb, res_->db->cvars()) != res_->baseChecksum) {
      r.ok = false;
      r.error = "restore epoch rows differ from epoch 0";
      return r;
    }
    auto oracle = oracleFail_.find(slot);
    if (oracle != oracleFail_.end() &&
        tablesRowSetChecksum(failed.idb, res_->db->cvars()) != oracle->second) {
      r.ok = false;
      r.error = "fail epoch rows differ from the full-recompute oracle";
    }
    return r;
  }

  std::vector<LayerValue> layers(const Trace& t) const override {
    const double ops = static_cast<double>(std::max<size_t>(t.ops(), 1));
    auto ms = [&](const char* a, const char* b) {
      return 1e3 * (t.spanSeconds(a) + t.spanSeconds(b)) / ops;
    };
    std::vector<double> parse = parseDbSeconds_;
    std::sort(parse.begin(), parse.end());
    std::vector<LayerValue> out = engineLayers(t);
    out.push_back({"faurelog.incremental.fail_ms",
                   ms("incremental.fail.apply", "incremental.fail.reevaluate")});
    out.push_back({"faurelog.incremental.restore_ms",
                   ms("incremental.restore.apply",
                      "incremental.restore.reevaluate")});
    out.push_back({"faurelog.incremental.apply_ms",
                   ms("incremental.fail.apply", "incremental.restore.apply")});
    out.push_back({"faurelog.textio.parse_db_ms", 1e3 * parse[parse.size() / 2]});
    return out;
  }

 private:
  Options opts_;
  Network net_;
  std::vector<size_t> order_;
  std::unique_ptr<Resident> res_;
  std::vector<double> parseDbSeconds_;
  std::vector<fl::Edit> fail_;
  std::vector<fl::Edit> restore_;
  std::map<size_t, uint64_t> oracleFail_;  // flap slot -> fail-epoch checksum
};

}  // namespace

std::unique_ptr<Workload> makeWhatif(const Options& opts) {
  return std::make_unique<Whatif>(opts);
}

}  // namespace perfbench
