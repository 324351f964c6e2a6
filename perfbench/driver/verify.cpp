// Workload `verify`: §5 category-(i) verdicts through
// verify::RelativeVerifier::checkSubsumption.
//
// Inputs: a family of 4096 pure conjunctive constraint instances
// (target T, known constraint K) whose targets have 2-8 body atoms. The
// family is that large so that an audit (about 0.2 s) spans several of
// the host's speed phases; the median of shorter audits (2 ms at 48
// instances, 50 ms at 1024) jumped between the phases. The seed renames
// their relations, constants and variables and orders them.
// Half are subsumed by construction (T's body holds a specialised copy
// of K's body, so K maps into T: Holds), half are not (K carries an
// atom over a relation T never uses: Unknown). Plus the paper's §5
// scenario, T1 against {Clb, Cs} (Holds). One op audits the whole
// family. Every verdict must equal its known answer, which must agree
// with dl::constraintSubsumedCanonical (computed once, before timing);
// a non-subsumed instance must never return Holds.
#include <stdexcept>

#include "bench.hpp"
#include "datalog/containment.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "verify/unfold.hpp"
#include "verify/verifier.hpp"

namespace perfbench {
namespace {

using namespace faure;

struct Instance {
  verify::Constraint target;
  verify::Constraint known;
  bool subsumed = false;   // by construction
  bool canonical = false;  // dl::constraintSubsumedCanonical
};

const char* const kConsts[] = {"Mkt", "CS", "GS", "Web", "Dns", "RnD"};
constexpr int kNumConsts = 6;
constexpr int kVars = 4;       // variables of K
constexpr int kExtraVars = 6;  // variables of T's extra atoms
constexpr int kQ = 3;          // relation Q; 0..2 are R0..R2

/// A body atom: a relation index and three terms, each a constant
/// index (>= 0) or a variable (-1 - index).
struct Atom {
  int rel = 0;
  int terms[3] = {0, 0, 0};
};

Atom randomAtom(util::Rng& rng, int rel, int vars) {
  Atom a;
  a.rel = rel;
  for (int& t : a.terms) {
    t = rng.chance(0.3) ? static_cast<int>(rng.below(kNumConsts))
                        : -1 - static_cast<int>(rng.below(vars));
  }
  return a;
}

/// Replaces some variables with constants: the specialising
/// substitution that maps K's atoms into T.
std::vector<Atom> specialise(util::Rng& rng, std::vector<Atom> atoms) {
  int to[kVars];
  for (int& c : to) c = rng.chance(0.4) ? static_cast<int>(rng.below(kNumConsts)) : -1;
  for (Atom& a : atoms) {
    for (int& t : a.terms) {
      if (t < 0 && to[-1 - t] >= 0) t = to[-1 - t];
    }
  }
  return atoms;
}

/// The seed's names: a bijective renaming of relations R0..R2,
/// constants and variables. Renaming keeps every instance's shape, so
/// an audit costs the same for every seed.
struct Naming {
  std::vector<std::string> rels{"R0", "R1", "R2", "Q"};
  std::vector<std::string> consts;
  std::vector<std::string> vars;

  explicit Naming(uint64_t seed) {
    util::Rng rng(0x9a3e5ULL + seed * 0x9e3779b97f4a7c15ULL);
    consts.assign(std::begin(kConsts), std::end(kConsts));
    for (int v = 0; v < kExtraVars; ++v) vars.push_back("v" + std::to_string(v));
    shuffle(rng, rels, 3);
    shuffle(rng, consts, consts.size());
    shuffle(rng, vars, vars.size());
  }

  static void shuffle(util::Rng& rng, std::vector<std::string>& v, size_t n) {
    for (size_t k = n; k > 1; --k) std::swap(v[k - 1], v[rng.below(k)]);
  }

  std::string body(const std::vector<Atom>& atoms) const {
    std::string text = "panic :- ";
    for (size_t k = 0; k < atoms.size(); ++k) {
      if (k > 0) text += ", ";
      text += rels[atoms[k].rel] + "(";
      for (int i = 0; i < 3; ++i) {
        const int t = atoms[k].terms[i];
        if (i > 0) text += ", ";
        text += t >= 0 ? consts[t] : vars[-1 - t];
      }
      text += ")";
    }
    return text + ".";
  }
};

class Verify : public Workload {
 public:
  explicit Verify(const Options& o)
      : opts_(o), familySize_(o.size != 0 ? o.size : 4096) {}

  void setup() override {
    famReg_ = std::make_unique<CVarRegistry>();
    // Shapes come from a fixed generator; the seed only renames them
    // and orders the audit.
    util::Rng rng(0x7e51f1ULL);
    const Naming names(opts_.seed);
    for (size_t n = 0; n < familySize_; ++n) {
      const bool subsumed = n % 2 == 0;
      const size_t targetAtoms = 2 + rng.below(7);  // 2..8
      const size_t knownAtoms = 1 + rng.below(std::min<size_t>(targetAtoms, 4));
      std::vector<Atom> k;
      for (size_t a = 0; a < knownAtoms; ++a) {
        k.push_back(randomAtom(rng, static_cast<int>(rng.below(3)), kVars));
      }
      std::vector<Atom> t;
      if (subsumed) {
        t = specialise(rng, k);
      } else {
        // K needs a Q fact that T's canonical database never has.
        k.back() = randomAtom(rng, kQ, kVars);
        t = specialise(rng, std::vector<Atom>(k.begin(), k.end() - 1));
      }
      while (t.size() < targetAtoms) {
        t.push_back(randomAtom(rng, static_cast<int>(rng.below(3)), kExtraVars));
      }
      Instance inst;
      inst.subsumed = subsumed;
      inst.target = verify::Constraint::parse("T" + std::to_string(n),
                                              names.body(t), *famReg_);
      inst.known = verify::Constraint::parse("K" + std::to_string(n),
                                             names.body(k), *famReg_);
      family_.push_back(std::move(inst));
    }
    util::Rng order(opts_.seed ^ 0x0deaULL);
    for (size_t k = family_.size(); k > 1; --k) {
      std::swap(family_[k - 1], family_[order.below(k)]);
    }
    // The paper's §5 scenario (Listing 3): {Clb, Cs} subsume T1.
    s5Reg_ = std::make_unique<CVarRegistry>();
    s5Reg_->declare("y_", ValueType::Sym, {Value::sym("CS"), Value::sym("GS")});
    t1_ = verify::Constraint::parse(
        "T1", "panic :- R(Mkt, CS, p_), !Fw(Mkt, CS).", *s5Reg_);
    s5Known_ = {
        verify::Constraint::parse(
            "Clb",
            "panic :- Vt(x, y, p).\n"
            "Vt(xt_, CS, pt_) :- R(xt_, CS, pt_), xt_ != Mkt, xt_ != R&D.\n"
            "Vt(xt_, CS, pt_) :- R(xt_, CS, pt_), !Lb(xt_, CS).\n"
            "Vt(xt_, CS, pt_) :- R(xt_, CS, pt_), pt_ != 7000.\n",
            *s5Reg_),
        verify::Constraint::parse(
            "Cs",
            "panic :- Vs(x, y, p).\n"
            "Vs(xs_, ys_, ps_) :- R(xs_, ys_, ps_), !Fw(xs_, ys_).\n"
            "Vs(xs_, ys_, ps_) :- R(xs_, ys_, ps_), ps_ != 80, ps_ != 344, "
            "ps_ != 7000.\n",
            *s5Reg_)};
  }

  void prepareChecks() override {
    for (Instance& inst : family_) {
      inst.canonical =
          dl::constraintSubsumedCanonical(inst.target.program, inst.known.program);
    }
  }

  std::string opLabel(size_t) const override {
    return "audit " + std::to_string(familySize_) + " instances + section 5";
  }

  size_t warmupOps() const override { return 2; }
  size_t countWindow() const override { return 4; }

  OpResult op(size_t, Trace* trace) override {
    verify::RelativeVerifier fam(*famReg_);
    verify::RelativeVerifier s5(*s5Reg_);
    std::vector<verify::Verdict> verdicts(family_.size());
    OpResult r;
    verify::Verdict s5Verdict = verify::Verdict::Unknown;
    if (trace == nullptr) {
      const double t0 = now();
      for (size_t n = 0; n < family_.size(); ++n) {
        verdicts[n] =
            fam.checkSubsumption(family_[n].target, {family_[n].known});
      }
      s5Verdict = s5.checkSubsumption(t1_, s5Known_);
      r.seconds = now() - t0;
    } else {
      obs::Tracer* tracer = trace->tracer();
      const double t0 = now();
      {
        obs::Span op(tracer, "verify.op");
        for (size_t n = 0; n < family_.size(); ++n) {
          timed(tracer, "verify.unfold", [&] {
            return verify::unfoldGoalRules(family_[n].target.program,
                                           verify::Constraint::kGoal);
          });
          verdicts[n] = timed(tracer, "verify.subsumption", [&] {
            return fam.checkSubsumption(family_[n].target, {family_[n].known});
          });
        }
        s5Verdict = timed(tracer, "verify.subsumption",
                          [&] { return s5.checkSubsumption(t1_, s5Known_); });
      }
      r.seconds = now() - t0;
      if (trace->inWindow()) countLayers(verdicts, s5Verdict, *trace);
    }

    for (size_t n = 0; n < family_.size(); ++n) {
      const Instance& inst = family_[n];
      const verify::Verdict want =
          inst.subsumed ? verify::Verdict::Holds : verify::Verdict::Unknown;
      if (verdicts[n] != want || inst.canonical != inst.subsumed) {
        r.ok = false;
        r.error = inst.target.name + ": verdict " +
                  std::string(verify::verdictText(verdicts[n])) +
                  (inst.canonical ? ", canonical: subsumed" : ", canonical: not");
        return r;
      }
    }
    if (s5Verdict != verify::Verdict::Holds) {
      r.ok = false;
      r.error = "section 5: T1 not subsumed by {Clb, Cs}";
    }
    return r;
  }

  std::vector<LayerValue> layers(const Trace& t) const override {
    auto usPerCall = [&](const char* span) {
      return 1e6 * t.spanSeconds(span) /
             static_cast<double>(std::max<size_t>(t.spanCount(span), 1));
    };
    const double verdicts = t.total("verify.verdicts");
    std::vector<LayerValue> out = engineLayers(t);
    out.push_back({"verify.subsumption_us", usPerCall("verify.subsumption")});
    out.push_back({"verify.unfold_us", usPerCall("verify.unfold")});
    out.push_back({"verify.holds", t.perOp("verify.holds")});
    out.push_back({"verify.unknown", t.perOp("verify.unknown")});
    out.push_back({"verify.agree_ratio",
                   verdicts > 0 ? t.total("verify.agree") / verdicts : 0.0});
    return out;
  }

 private:
  /// Verdict tallies, then one more (untimed) pass for the engine
  /// counts: interner deltas around it, and the solver counters that an
  /// attached obs::Tracer's registry collects from the evaluations the
  /// verifier runs internally.
  void countLayers(const std::vector<verify::Verdict>& verdicts,
                   verify::Verdict s5Verdict, Trace& trace) {
    for (size_t n = 0; n < verdicts.size(); ++n) {
      const bool holds = verdicts[n] == verify::Verdict::Holds;
      trace.count("verify.verdicts", 1);
      trace.count(holds ? "verify.holds" : "verify.unknown", 1);
      trace.count("verify.agree", holds == family_[n].canonical ? 1 : 0);
    }
    trace.count(s5Verdict == verify::Verdict::Holds ? "verify.holds"
                                                    : "verify.unknown",
                1);
    obs::Tracer tracer;
    verify::SubsumptionOptions so;
    so.tracer = &tracer;
    const InternerSample interner = InternerSample::take();
    verify::RelativeVerifier fam(*famReg_, so);
    for (const Instance& inst : family_) {
      fam.checkSubsumption(inst.target, {inst.known});
    }
    verify::RelativeVerifier s5(*s5Reg_, so);
    s5.checkSubsumption(t1_, s5Known_);
    countInterner(trace, interner);
    const obs::MetricsSnapshot snap = tracer.metrics().snapshot();
    const double checks = static_cast<double>(snap.counter("solver.checks"));
    const double hits = static_cast<double>(snap.counter("solver.cache.hits"));
    trace.count("smt.solver.checks", checks);
    trace.count("smt.solver.physical_checks", checks - hits);
    trace.count("smt.cache.hits", hits);
  }

  Options opts_;
  size_t familySize_;
  std::unique_ptr<CVarRegistry> famReg_;
  std::vector<Instance> family_;
  std::unique_ptr<CVarRegistry> s5Reg_;
  verify::Constraint t1_;
  std::vector<verify::Constraint> s5Known_;
};

}  // namespace

std::unique_ptr<Workload> makeVerify(const Options& opts) {
  return std::make_unique<Verify>(opts);
}

}  // namespace perfbench
