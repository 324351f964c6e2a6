#include "faure/session.hpp"

#include "faurelog/textio.hpp"
#include "util/error.hpp"

namespace faure {

Session::Session(Backend backend) {
  solverOpts_.backend = backend == Backend::Z3 ? "z3" : "native";
  solverOpts_.supervision = smt::SupervisionOptions::fromEnv();
  rebuildSolver(/*keepCache=*/false);
}

void Session::rebuildSolver(bool keepCache) {
  inc_.reset();  // the watch engine holds a raw pointer to the old stack
  std::unique_ptr<smt::VerdictCache> cache;
  if (keepCache) cache = std::move(stack_.cache);
  stack_ = smt::buildSolverStack(db_.cvars(), solverOpts_, cache.get());
  if (cache != nullptr) stack_.cache = std::move(cache);
  smt::attachGuardAndTracer(*stack_.solver, guard_, tracer_);
}

void Session::setSolverCache(size_t entries) {
  solverOpts_.cacheEntries = entries;
  rebuildSolver(/*keepCache=*/false);
}

smt::SolverBase& Session::solver() { return *stack_.solver; }

smt::SupervisedSolver* Session::supervisedSolver() {
  return dynamic_cast<smt::SupervisedSolver*>(stack_.solver.get());
}

void Session::setSupervision(const smt::SupervisionOptions& opts) {
  solverOpts_.supervision = opts;
  rebuildSolver(/*keepCache=*/true);
}

void Session::setResourceLimits(const ResourceLimits& limits) {
  guard_.arm(limits);
  smt::attachGuardAndTracer(*stack_.solver, guard_, tracer_);
}

void Session::setTracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  smt::attachGuardAndTracer(*stack_.solver, guard_, tracer_);
}

void Session::resetStats() {
  stack_.solver->resetStats();
  if (tracer_ != nullptr) tracer_->metrics().reset();
}

ResourceGuard* Session::armGuard() {
  if (!guard_.active()) return nullptr;
  guard_.rearm();
  return &guard_;
}

ResourceGuard* Session::beginOperation() {
  if (resetPerOp_) resetStats();
  return armGuard();
}

void Session::load(std::string_view databaseText) {
  inc_.reset();  // out-of-band database growth the watch cannot track
  fl::parseDatabaseInto(databaseText, db_);
}

fl::EvalResult Session::run(std::string_view programText) {
  inc_.reset();  // run() stores IDB into the db behind a watch's back
  dl::Program program = dl::parseProgram(programText, db_.cvars());
  fl::EvalOptions opts = opts_;
  opts.guard = beginOperation();
  opts.tracer = tracer_;
  obs::Span span(tracer_, "session.run");
  fl::EvalResult res = fl::evalFaure(program, db_, stack_.solver.get(), opts);
  for (auto& [pred, table] : res.idb) {
    db_.put(table);
  }
  return res;
}

fl::ScenarioSet Session::scenarios(std::string_view programText) {
  dl::Program program = dl::parseProgram(programText, db_.cvars());
  fl::ScenarioSetOptions sopts;
  sopts.eval = opts_;
  sopts.eval.tracer = tracer_;
  sopts.limits = guard_.active() ? guard_.limits() : ResourceLimits{};
  sopts.solver = solverOpts_;
  return fl::ScenarioSet(std::move(program), db_.clone(), std::move(sopts));
}

fl::EvalResult Session::watch(std::string_view programText) {
  dl::Program program = dl::parseProgram(programText, db_.cvars());
  fl::EvalOptions opts = opts_;
  opts.guard = guard_.active() ? &guard_ : nullptr;
  opts.tracer = tracer_;
  inc_ = std::make_unique<fl::IncrementalEngine>(std::move(program), db_,
                                                 stack_.solver.get(), opts);
  return reevaluate();
}

bool Session::insertFact(const std::string& pred, std::vector<Value> vals,
                         smt::Formula cond) {
  if (inc_ == nullptr) throw EvalError("insertFact: no active watch");
  return inc_->insertFact(pred, std::move(vals), std::move(cond));
}

size_t Session::retractFact(const std::string& pred,
                            const std::vector<Value>& vals) {
  if (inc_ == nullptr) throw EvalError("retractFact: no active watch");
  return inc_->retractFact(pred, vals);
}

void Session::applyEdits(std::string_view editScript) {
  if (inc_ == nullptr) throw EvalError("applyEdits: no active watch");
  for (const fl::Edit& e : fl::parseEditScript(editScript, db_)) {
    inc_->apply(e);
  }
}

fl::EvalResult Session::reevaluate() {
  if (inc_ == nullptr) throw EvalError("reevaluate: no active watch");
  beginOperation();  // re-arm the guard: budgets are per epoch
  obs::Span span(tracer_, "session.reevaluate");
  return inc_->reevaluate();
}

verify::StateCheck Session::check(std::string_view constraintText,
                                  std::string name) {
  verify::Constraint c =
      verify::Constraint::parse(std::move(name), constraintText, db_.cvars());
  smt::ResourceGuardScope scope(stack_.solver.get(), beginOperation());
  obs::Span span(tracer_, "session.check");
  return verify::RelativeVerifier::checkOnState(c, db_, *stack_.solver);
}

verify::Verdict Session::subsumed(
    const verify::Constraint& target,
    const std::vector<verify::Constraint>& known) {
  verify::SubsumptionOptions opts;
  opts.guard = beginOperation();
  opts.tracer = tracer_;
  obs::Span span(tracer_, "session.subsumed");
  verify::RelativeVerifier v(db_.cvars(), opts);
  return v.checkSubsumption(target, known);
}

verify::Verdict Session::subsumedAfterUpdate(
    const verify::Constraint& target,
    const std::vector<verify::Constraint>& known, const verify::Update& u) {
  verify::SubsumptionOptions opts;
  opts.guard = beginOperation();
  opts.tracer = tracer_;
  obs::Span span(tracer_, "session.subsumed_after_update");
  verify::RelativeVerifier v(db_.cvars(), opts);
  return v.checkWithUpdate(target, known, u);
}

verify::Constraint Session::constraint(std::string name,
                                       std::string_view text) {
  return verify::Constraint::parse(std::move(name), text, db_.cvars());
}

}  // namespace faure
