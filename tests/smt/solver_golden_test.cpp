// Golden verdicts of the native solver.
//
// A seeded corpus of random conditions is checked one by one, and each
// check's verdict plus its SolverStats deltas (unsat, unknown,
// enumerations) is compared byte for byte with
// tests/smt/native_solver_golden.txt. The corpus mixes finite and
// unbounded integer variables, linear atoms, ordered comparisons and
// nested junctions, and rotates the solver through several DNF and
// enumeration budgets, so it covers formulas that fall back to
// enumerate(), cube checks that end Unknown, and implication checks
// a ∧ ¬(b1 ∨ … ∨ bn) whose Sat cube comes late. A cube check counts an
// enumeration when it enumerates residual linear atoms, so
// `enumerations` depends on which cubes are visited before the first
// Sat one: the file pins the cube order too.
//
// Kid order inside a junction follows the content hash of its atoms,
// which is deterministic for integer values and c-variables (the corpus
// uses no symbols: their hash follows the process-wide symbol table).
//
// On a mismatch the test writes what it computed to
// native_solver_golden.actual.txt in the working directory. Replace the
// golden file with it only when a verdict or counter change is intended.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>

#include "smt/solver.hpp"
#include "util/rng.hpp"

#ifndef FAURE_TEST_SOURCE_DIR
#error "FAURE_TEST_SOURCE_DIR must name the tests/ source directory"
#endif

namespace faure::smt {
namespace {

constexpr CmpOp kOps[] = {CmpOp::Eq, CmpOp::Ne, CmpOp::Lt,
                          CmpOp::Le, CmpOp::Gt, CmpOp::Ge};

struct Corpus {
  CVarRegistry reg;
  std::vector<CVarId> bits;     // domain {0, 1}
  std::vector<CVarId> smalls;   // domain 0..3
  std::vector<CVarId> unbounded;
  std::vector<CVarId> ints;     // all of the above

  Corpus() {
    for (int i = 0; i < 6; ++i) {
      bits.push_back(reg.declareInt("b" + std::to_string(i) + "_", 0, 1));
    }
    for (int i = 0; i < 2; ++i) {
      smalls.push_back(reg.declareInt("n" + std::to_string(i) + "_", 0, 3));
    }
    for (int i = 0; i < 2; ++i) {
      unbounded.push_back(
          reg.declare("u" + std::to_string(i) + "_", ValueType::Int));
    }
    ints = bits;
    ints.insert(ints.end(), smalls.begin(), smalls.end());
    ints.insert(ints.end(), unbounded.begin(), unbounded.end());
  }

  CVarId pick(util::Rng& rng, const std::vector<CVarId>& from) {
    return from[rng.below(from.size())];
  }

  Formula atom(util::Rng& rng) {
    switch (rng.below(5)) {
      case 0:
      case 1: {  // link bit, the commonest atom
        CVarId v = pick(rng, bits);
        CmpOp op = rng.chance(0.5) ? CmpOp::Eq : CmpOp::Ne;
        return Formula::cmp(Value::cvar(v), op, Value::fromInt(rng.range(0, 1)));
      }
      case 2: {  // variable against a constant, any integer variable
        CVarId v = pick(rng, ints);
        CmpOp op = kOps[rng.below(6)];
        return Formula::cmp(Value::cvar(v), op,
                            Value::fromInt(rng.range(-1, 4)));
      }
      case 3: {  // variable against variable
        CVarId a = pick(rng, ints);
        CVarId b = pick(rng, ints);
        CmpOp op = kOps[rng.below(6)];
        return Formula::cmp(Value::cvar(a), op, Value::cvar(b));
      }
      default: {  // linear atom over a few variables, often all bits
        const std::vector<CVarId>& pool = rng.chance(0.5) ? bits : ints;
        std::vector<std::pair<CVarId, int64_t>> entries;
        size_t n = 2 + rng.below(2);
        for (size_t i = 0; i < n; ++i) {
          CVarId v = pick(rng, pool);
          entries.emplace_back(v, rng.range(-2, 2));
        }
        int64_t cst = rng.range(-3, 3);
        CmpOp op = kOps[rng.below(6)];
        return Formula::lin(LinTerm::make(std::move(entries), cst), op);
      }
    }
  }

  Formula formula(util::Rng& rng, int depth) {
    if (depth == 0 || rng.chance(0.3)) return atom(rng);
    switch (rng.below(5)) {
      case 0:
      case 1: {
        std::vector<Formula> kids;
        size_t n = 2 + rng.below(3);
        for (size_t i = 0; i < n; ++i) kids.push_back(formula(rng, depth - 1));
        return Formula::conj(std::move(kids));
      }
      case 2:
      case 3: {
        std::vector<Formula> kids;
        size_t n = 2 + rng.below(3);
        for (size_t i = 0; i < n; ++i) kids.push_back(formula(rng, depth - 1));
        return Formula::disj(std::move(kids));
      }
      default: {
        Formula k = formula(rng, depth - 1);
        return Formula::neg(k);
      }
    }
  }

  /// The check behind implies(a, b1 ∨ … ∨ bn), the merge-subsumption
  /// test of evaluation: a ∧ ¬b1 ∧ … ∧ ¬bn, a product of many small
  /// disjunctions whose Sat cube, if any, often comes late.
  Formula implication(util::Rng& rng) {
    Formula a = formula(rng, 2);
    std::vector<Formula> bs;
    size_t n = 2 + rng.below(8);
    for (size_t i = 0; i < n; ++i) {
      const int depth = 1 + static_cast<int>(rng.below(2));
      bs.push_back(formula(rng, depth));
    }
    return Formula::conj2(a, Formula::neg(Formula::disj(std::move(bs))));
  }
};

/// Solver budgets the corpus rotates through: the default, DNF budgets
/// small enough that many formulas fall back to enumerate(), and an
/// enumeration budget small enough to end cube checks Unknown.
std::vector<NativeSolver::Options> configs() {
  std::vector<NativeSolver::Options> out;
  for (size_t cubes : {size_t{4096}, size_t{64}, size_t{4}}) {
    for (uint64_t maxEnum : {uint64_t{1} << 16, uint64_t{8}}) {
      NativeSolver::Options o;
      o.maxDnfCubes = cubes;
      o.maxEnum = maxEnum;
      out.push_back(o);
    }
  }
  return out;
}

constexpr size_t kFormulas = 2000;

struct Coverage {
  size_t overBudget = 0;
  size_t unknown = 0;
  size_t sat = 0;
  size_t unsat = 0;
};

std::string computeGolden(Coverage& cov) {
  Corpus c;
  const std::vector<NativeSolver::Options> opts = configs();
  std::vector<std::unique_ptr<NativeSolver>> solvers;
  for (const auto& o : opts) {
    solvers.push_back(std::make_unique<NativeSolver>(c.reg, o));
  }
  util::Rng rng(20261018);
  std::ostringstream out;
  out << "# index config verdict unsat unknown enumerations\n";
  for (size_t i = 0; i < kFormulas; ++i) {
    Formula f;
    if (i % 3 == 2) {
      f = c.implication(rng);
    } else {
      const int depth = 1 + static_cast<int>(rng.below(4));
      f = c.formula(rng, depth);
    }
    const size_t k = i % opts.size();
    NativeSolver& s = *solvers[k];
    const SolverStats before = s.stats();
    const Sat v = s.check(f);
    const SolverStats& after = s.stats();
    out << i << ' ' << k << ' ' << satText(v) << ' '
        << after.unsat - before.unsat << ' ' << after.unknown - before.unknown
        << ' ' << after.enumerations - before.enumerations << '\n';
    if (!toDnf(f, opts[k].maxDnfCubes).has_value()) ++cov.overBudget;
    if (v == Sat::Unknown) ++cov.unknown;
    if (v == Sat::Sat) ++cov.sat;
    if (v == Sat::Unsat) ++cov.unsat;
  }
  return out.str();
}

TEST(NativeSolverGolden, VerdictsAndCountersMatchRecordedFile) {
  Coverage cov;
  const std::string got = computeGolden(cov);
  // The corpus exercises every path the file is meant to pin.
  EXPECT_GE(cov.overBudget, 50u);
  EXPECT_GE(cov.unknown, 50u);
  EXPECT_GE(cov.sat, 200u);
  EXPECT_GE(cov.unsat, 200u);

  const std::string path =
      std::string(FAURE_TEST_SOURCE_DIR) + "/smt/native_solver_golden.txt";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "cannot read " << path;
  std::stringstream want;
  want << in.rdbuf();
  if (want.str() == got) return;

  std::ofstream("native_solver_golden.actual.txt", std::ios::binary) << got;
  std::istringstream a(want.str());
  std::istringstream b(got);
  std::string la, lb;
  size_t line = 1;
  while (true) {
    const bool ha = static_cast<bool>(std::getline(a, la));
    const bool hb = static_cast<bool>(std::getline(b, lb));
    if (!ha && !hb) break;
    if (!ha || !hb || la != lb) {
      ADD_FAILURE() << "line " << line << ": golden '" << (ha ? la : "<eof>")
                    << "' vs computed '" << (hb ? lb : "<eof>")
                    << "'; computed output written to "
                       "native_solver_golden.actual.txt";
      return;
    }
    ++line;
  }
  ADD_FAILURE() << "output differs from " << path;
}

}  // namespace
}  // namespace faure::smt
