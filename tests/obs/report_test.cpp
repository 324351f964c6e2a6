// Run reports (obs/report.hpp): schema round trip through the JSON
// parser, metric/span/event export, and budget-trip events carrying the
// guard's machine-readable reason.
#include "obs/report.hpp"

#include <gtest/gtest.h>

#include "datalog/parser.hpp"
#include "faurelog/eval.hpp"
#include "faurelog/incremental.hpp"
#include "faurelog/textio.hpp"
#include "obs/json.hpp"
#include "smt/interner.hpp"
#include "util/resource_guard.hpp"

namespace faure::obs {
namespace {

rel::Schema anySchema(const std::string& name, size_t arity) {
  std::vector<rel::Attribute> attrs(arity);
  for (size_t i = 0; i < arity; ++i) {
    attrs[i] = rel::Attribute{"a" + std::to_string(i), ValueType::Any};
  }
  return rel::Schema(name, attrs);
}

TEST(ReportTest, SchemaAndMetaRoundTrip) {
  Tracer tracer;
  {
    Span s(&tracer, "run");
    tracer.metrics().counter("eval.inserted").add(3);
    tracer.metrics().gauge("table4[10].wall_seconds").set(1.25);
    tracer.metrics().histogram("solver.check_seconds").observe(0.5);
  }
  ReportMeta meta;
  meta.command = "run";
  meta.add("database", "x.fdb");
  meta.add("verdict", "holds");

  json::Value v = json::parse(runReportJson(tracer, meta));
  ASSERT_TRUE(v.isObject());
  EXPECT_EQ(v.find("schema")->str, std::string(kReportSchema));
  EXPECT_EQ(v.find("tool")->str, "faure");
  EXPECT_EQ(v.find("command")->str, "run");
  EXPECT_EQ(v.find("info")->find("database")->str, "x.fdb");
  EXPECT_EQ(v.find("info")->find("verdict")->str, "holds");
  EXPECT_GE(v.find("wall_seconds")->num, 0.0);
  EXPECT_DOUBLE_EQ(v.find("dropped_spans")->num, 0.0);

  const json::Value* spans = v.find("spans");
  ASSERT_TRUE(spans->isArray());
  ASSERT_EQ(spans->items.size(), 1u);
  EXPECT_EQ(spans->items[0].find("name")->str, "run");
  EXPECT_EQ(spans->items[0].find("parent")->kind, json::Value::Kind::Null);

  const json::Value* metrics = v.find("metrics");
  EXPECT_DOUBLE_EQ(metrics->find("counters")->find("eval.inserted")->num,
                   3.0);
  EXPECT_DOUBLE_EQ(
      metrics->find("gauges")->find("table4[10].wall_seconds")->num, 1.25);
  const json::Value* hist =
      metrics->find("histograms")->find("solver.check_seconds");
  EXPECT_DOUBLE_EQ(hist->find("count")->num, 1.0);
  EXPECT_DOUBLE_EQ(hist->find("mean")->num, 0.5);
}

TEST(ReportTest, MetricsOnlyVariant) {
  Registry reg;
  reg.counter("solver.checks").add(9);
  ReportMeta meta;
  meta.command = "bench";
  json::Value v = json::parse(runReportJson(reg, meta));
  EXPECT_EQ(v.find("schema")->str, std::string(kReportSchema));
  EXPECT_EQ(v.find("spans")->items.size(), 0u);
  EXPECT_DOUBLE_EQ(
      v.find("metrics")->find("counters")->find("solver.checks")->num, 9.0);
}

// The interner's traffic, negation memo included, is exported as
// smt.interner.* gauges equal to FormulaInterner::stats().
TEST(ReportTest, InternerGaugesCarryNegationMemo) {
  smt::Formula f = smt::Formula::cmp(faure::Value::cvar(0), smt::CmpOp::Lt,
                                     faure::Value::fromInt(987654));
  smt::Formula n1 = smt::Formula::neg(f);  // computed and linked
  smt::Formula n2 = smt::Formula::neg(f);  // answered from the link
  EXPECT_EQ(n1, n2);
  Registry reg;
  smt::FormulaInterner::instance().recordStats(reg);
  const smt::FormulaInterner::Stats s =
      smt::FormulaInterner::instance().stats();
  ReportMeta meta;
  meta.command = "run";
  json::Value v = json::parse(runReportJson(reg, meta));
  const json::Value* gauges = v.find("metrics")->find("gauges");
  ASSERT_NE(gauges->find("smt.interner.neg_hits"), nullptr);
  ASSERT_NE(gauges->find("smt.interner.neg_misses"), nullptr);
  EXPECT_GE(gauges->find("smt.interner.neg_hits")->num, 1.0);
  EXPECT_GE(gauges->find("smt.interner.neg_misses")->num, 1.0);
  EXPECT_DOUBLE_EQ(gauges->find("smt.interner.neg_hits")->num,
                   static_cast<double>(s.negHits));
  EXPECT_DOUBLE_EQ(gauges->find("smt.interner.neg_misses")->num,
                   static_cast<double>(s.negMisses));
  EXPECT_DOUBLE_EQ(gauges->find("smt.interner.calls")->num,
                   static_cast<double>(s.hits + s.misses));
  EXPECT_DOUBLE_EQ(gauges->find("smt.interner.new_nodes")->num,
                   static_cast<double>(s.misses));
  // Physical telemetry: none of it is a (byte-compared) counter.
  EXPECT_EQ(v.find("metrics")->find("counters")->find("smt.interner.neg_hits"),
            nullptr);
}

// A governed evaluation that trips its tuple budget must surface the trip
// as a `budget.trip` event whose detail equals the guard's reason().
TEST(ReportTest, BudgetTripEventMatchesGuardReason) {
  rel::Database db;
  auto& e = db.create(anySchema("E", 2));
  for (int i = 0; i < 12; ++i) {
    e.insertConcrete({Value::fromInt(i), Value::fromInt(i + 1)});
  }
  ResourceLimits limits;
  limits.maxTuples = 1;
  ResourceGuard guard(limits);
  Tracer tracer;
  guard.onTrip([&tracer](Budget, const std::string& reason) {
    tracer.event("budget.trip", reason);
  });
  fl::EvalOptions opts;
  opts.guard = &guard;
  opts.tracer = &tracer;
  smt::NativeSolver solver(db.cvars());
  auto res = fl::evalFaure(
      dl::parseProgram("R(x,y) :- E(x,y).\n"
                       "R(x,y) :- E(x,z), R(z,y).\n",
                       db.cvars()),
      db, &solver, opts);
  ASSERT_TRUE(res.incomplete);

  auto events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "budget.trip");
  EXPECT_EQ(events[0].detail, guard.reason());
  EXPECT_EQ(events[0].detail, "tuples(limit=1)");

  json::Value v = json::parse(runReportJson(tracer, ReportMeta{}));
  const json::Value* evs = v.find("events");
  ASSERT_EQ(evs->items.size(), 1u);
  EXPECT_EQ(evs->items[0].find("name")->str, "budget.trip");
  EXPECT_EQ(evs->items[0].find("detail")->str, "tuples(limit=1)");
  EXPECT_DOUBLE_EQ(v.find("metrics")
                       ->find("counters")
                       ->find("events.budget.trip")
                       ->num,
                   1.0);
  EXPECT_DOUBLE_EQ(
      v.find("metrics")->find("counters")->find("eval.budget_trips")->num,
      1.0);
}

// Per-rule counters on a fully known fixpoint: chain 1->2->3->4, so the
// base rule inserts the 3 edges and the recursive rule the 3 longer
// paths (1->3, 2->4, 1->4).
TEST(ReportTest, PerRuleCountersOnKnownFixpoint) {
  rel::Database db;
  auto& e = db.create(anySchema("E", 2));
  for (int i = 1; i < 4; ++i) {
    e.insertConcrete({Value::fromInt(i), Value::fromInt(i + 1)});
  }
  Tracer tracer;
  fl::EvalOptions opts;
  opts.tracer = &tracer;
  smt::NativeSolver solver(db.cvars());
  auto res = fl::evalFaure(
      dl::parseProgram("R(x,y) :- E(x,y).\n"
                       "R(x,y) :- E(x,z), R(z,y).\n",
                       db.cvars()),
      db, &solver, opts);
  EXPECT_EQ(res.relation("R").size(), 6u);

  MetricsSnapshot snap = tracer.metrics().snapshot();
  EXPECT_EQ(snap.counter("eval.rule[0:R].inserted"), 3u);
  EXPECT_EQ(snap.counter("eval.rule[1:R].inserted"), 3u);
  EXPECT_EQ(snap.counter("eval.inserted"), 6u);
  EXPECT_EQ(snap.counter("eval.rule[0:R].derivations") +
                snap.counter("eval.rule[1:R].derivations"),
            snap.counter("eval.derivations"));
  EXPECT_EQ(snap.counter("eval.evaluations"), 1u);
  EXPECT_GE(snap.counter("eval.stratum[0].rounds"), 3u);
  EXPECT_EQ(snap.counter("eval.stratum[0].rounds"),
            snap.counter("eval.rounds"));
}

TEST(ReportTest, RenderLayerShowsTimeAndReuse) {
  // Two independent relations: an edit to S re-derives only T, so the
  // second epoch prints R from the bytes kept at the first.
  rel::Database db;
  auto& e = db.create(anySchema("E", 2));
  for (int i = 1; i < 4; ++i) {
    e.insertConcrete({Value::fromInt(i), Value::fromInt(i + 1)});
  }
  db.create(anySchema("S", 1)).insertConcrete({Value::fromInt(7)});
  Tracer tracer;
  fl::EvalOptions opts;
  opts.tracer = &tracer;
  smt::NativeSolver solver(db.cvars());
  fl::IncrementalEngine eng(dl::parseProgram("R(x,y) :- E(x,y).\n"
                                             "T(x) :- S(x).\n",
                                             db.cvars()),
                            db, &solver, opts);
  eng.setIncremental(true);
  fl::RelationRenderer renderer(std::nullopt, &tracer);
  std::string first;
  std::string second;
  renderer.renderAndKeep(first, eng.reevaluate().idb, db.cvars());
  eng.insertFact("S", {Value::fromInt(8)});
  renderer.renderAndKeep(second, eng.reevaluate().idb, db.cvars());
  EXPECT_EQ(second.substr(0, second.find("T(")),
            first.substr(0, first.find("T(")));

  json::Value v = json::parse(runReportJson(tracer, ReportMeta{}));
  const json::Value* counters = v.find("metrics")->find("counters");
  EXPECT_DOUBLE_EQ(counters->find("textio.render.tables")->num, 4.0);
  EXPECT_DOUBLE_EQ(counters->find("textio.render.reused_tables")->num, 1.0);
  EXPECT_DOUBLE_EQ(counters->find("textio.render.bytes")->num,
                   static_cast<double>(first.size() + second.size()));
  const json::Value* hist =
      v.find("metrics")->find("histograms")->find("textio.render_seconds");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->find("count")->num, 2.0);
  size_t renderSpans = 0;
  for (const json::Value& span : v.find("spans")->items) {
    renderSpans += span.find("name")->str == "textio.render";
  }
  EXPECT_EQ(renderSpans, 2u);
}

}  // namespace
}  // namespace faure::obs
