// Tests for candidate harvesting: the finder must produce the textbook
// substitutions, respect structural constraints, and never propose a
// candidate its own sampled evidence refutes.

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <string>

#include "benchgen/benchmarks.hpp"
#include "mapper/mapper.hpp"
#include "opt/candidates.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace powder {
namespace {

class CandTest : public ::testing::Test {
 protected:
  CandTest() : lib_(CellLibrary::standard()), nl_(&lib_, "t") {}
  CellLibrary lib_;
  Netlist nl_;
  CellId cell(const char* name) { return lib_.find(name); }
};

TEST_F(CandTest, FindsEquivalentStemSubstitution) {
  const GateId a = nl_.add_input("a");
  const GateId b = nl_.add_input("b");
  const GateId g1 = nl_.add_gate(cell("and2"), {a, b});
  const GateId g2 = nl_.add_gate(cell("nand2"), {a, b});
  const GateId g3 = nl_.add_gate(cell("inv1"), {g2});  // == g1
  const GateId top = nl_.add_gate(cell("or2"), {g1, a});
  nl_.add_output("f", top);
  nl_.add_output("g", g3);

  Simulator sim(nl_, 1024);
  PowerEstimator est(&sim);
  CandidateFinder finder(nl_, est);
  const auto cands = finder.find();

  bool found = false;
  for (const CandidateSub& c : cands) {
    if (c.cls == SubstClass::kOS2 && c.target == g1 &&
        c.rep.kind == ReplacementFunction::Kind::kSignal && c.rep.b == g3 &&
        !c.rep.invert_b)
      found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(CandTest, FindsFigure2BranchSubstitution) {
  const GateId a = nl_.add_input("a");
  const GateId b = nl_.add_input("b");
  const GateId c = nl_.add_input("c");
  const GateId d = nl_.add_gate(cell("xor2"), {a, c}, "d");
  const GateId f = nl_.add_gate(cell("and2"), {d, b}, "f");
  const GateId e = nl_.add_gate(cell("and2"), {a, b}, "e");
  nl_.add_output("fo", f);
  nl_.add_output("eo", e);

  Simulator sim(nl_, 2048);
  PowerEstimator est(&sim);
  CandidateFinder finder(nl_, est);
  const auto cands = finder.find();

  bool found = false;
  for (const CandidateSub& c : cands) {
    if (c.cls == SubstClass::kIS2 && c.target == a && c.branch.has_value() &&
        c.branch->gate == d && c.rep.b == e)
      found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(CandTest, NeverProposesCycles) {
  const GateId a = nl_.add_input("a");
  const GateId b = nl_.add_input("b");
  const GateId g1 = nl_.add_gate(cell("and2"), {a, b});
  const GateId g2 = nl_.add_gate(cell("inv1"), {g1});
  const GateId g3 = nl_.add_gate(cell("or2"), {g2, b});
  nl_.add_output("f", g3);

  Simulator sim(nl_, 1024);
  PowerEstimator est(&sim);
  CandidateFinder finder(nl_, est);
  for (const CandidateSub& c : finder.find())
    EXPECT_TRUE(substitution_still_valid(nl_, c));
}

TEST_F(CandTest, UnobservableSignalYieldsConstantCandidate) {
  // g1 = a&b feeding or2(g1, a): unobservable (a=1 forces out, a=0 kills
  // g1); expect an OS2-by-constant candidate.
  const GateId a = nl_.add_input("a");
  const GateId b = nl_.add_input("b");
  const GateId g1 = nl_.add_gate(cell("and2"), {a, b});
  const GateId top = nl_.add_gate(cell("or2"), {g1, a});
  nl_.add_output("f", top);

  Simulator sim(nl_, 2048);
  PowerEstimator est(&sim);
  CandidateFinder finder(nl_, est);
  bool found_const = false;
  for (const CandidateSub& c : finder.find())
    if (c.target == g1 &&
        c.rep.kind == ReplacementFunction::Kind::kConstant)
      found_const = true;
  EXPECT_TRUE(found_const);
}

TEST_F(CandTest, ThreeInputCandidatesMatchSampledFunction) {
  // s == a & b must be found as OS3(and2(a,b)).
  const GateId a = nl_.add_input("a");
  const GateId b = nl_.add_input("b");
  const GateId c = nl_.add_input("c");
  const GateId n = nl_.add_gate(cell("nand2"), {a, b});
  const GateId s = nl_.add_gate(cell("inv1"), {n});
  const GateId top = nl_.add_gate(cell("xor2"), {s, c});
  nl_.add_output("f", top);

  Simulator sim(nl_, 2048);
  PowerEstimator est(&sim);
  CandidateFinder finder(nl_, est);
  bool found_os3 = false;
  for (const CandidateSub& cand : finder.find()) {
    if (cand.cls != SubstClass::kOS3 || cand.target != s) continue;
    if (cand.rep.kind != ReplacementFunction::Kind::kTwoInput) continue;
    // The proposal must agree with the simulator's evidence by
    // construction; additionally verify it is the real AND shape.
    if ((cand.rep.b == a && cand.rep.c == b) ||
        (cand.rep.b == b && cand.rep.c == a))
      found_os3 = true;
  }
  EXPECT_TRUE(found_os3);
}

TEST_F(CandTest, PreselectionGainsAreFilled) {
  const GateId a = nl_.add_input("a");
  const GateId b = nl_.add_input("b");
  const GateId g1 = nl_.add_gate(cell("and2"), {a, b});
  const GateId g2 = nl_.add_gate(cell("nand2"), {a, b});
  const GateId g3 = nl_.add_gate(cell("inv1"), {g2});
  const GateId top = nl_.add_gate(cell("or2"), {g1, a});
  nl_.add_output("f", top);
  nl_.add_output("g", g3);

  Simulator sim(nl_, 1024);
  PowerEstimator est(&sim);
  CandidateFinder finder(nl_, est);
  const auto cands = finder.find();
  ASSERT_FALSE(cands.empty());
  for (const CandidateSub& c : cands) {
    EXPECT_GE(c.pg_a, 0.0);
    EXPECT_LE(c.pg_b, 1e-12);
  }
  // Sorted by preselection gain, descending.
  for (std::size_t i = 1; i < cands.size(); ++i)
    EXPECT_GE(cands[i - 1].preselect_gain(), cands[i].preselect_gain());
}

TEST_F(CandTest, RespectsCandidateCap) {
  const GateId a = nl_.add_input("a");
  const GateId b = nl_.add_input("b");
  const GateId c = nl_.add_input("c");
  GateId prev = nl_.add_gate(cell("and2"), {a, b});
  for (int i = 0; i < 12; ++i)
    prev = nl_.add_gate(cell("xor2"), {prev, i % 2 ? b : c});
  nl_.add_output("f", prev);

  Simulator sim(nl_, 1024);
  PowerEstimator est(&sim);
  CandidateOptions opt;
  opt.max_candidates = 5;
  CandidateFinder finder(nl_, est, opt);
  EXPECT_LE(finder.find().size(), 5u);
}

// ---- OS3/IS3 pair kernel vs per-cell word evaluation ----------------------

/// The per-cell evaluation the pair kernel replaced: does `f` over (b, c)
/// agree with the target on every observable pattern?
bool reference_fits(const TruthTable& f, std::span<const std::uint64_t> b,
                    std::span<const std::uint64_t> c,
                    std::span<const std::uint64_t> a,
                    std::span<const std::uint64_t> obs) {
  for (std::size_t w = 0; w < b.size(); ++w) {
    std::uint64_t r = 0;
    if (f.bit(0)) r |= ~b[w] & ~c[w];
    if (f.bit(1)) r |= b[w] & ~c[w];
    if (f.bit(2)) r |= ~b[w] & c[w];
    if (f.bit(3)) r |= b[w] & c[w];
    if ((r ^ a[w]) & obs[w]) return false;
  }
  return true;
}

TruthTable table_of(unsigned f4) {
  TruthTable f(2);
  for (unsigned m = 0; m < 4; ++m) f.set_bit(m, (f4 >> m) & 1);
  return f;
}

/// One random (target, observability, b, c) instance over `patterns`
/// patterns. The target is usually some two-input function of (b, c) with
/// a few observable disagreements, and observability is often sparse, so
/// both fitting and non-fitting cells occur.
struct PairInstance {
  std::vector<std::uint64_t> a, obs, b, c;
};

PairInstance random_instance(Rng& rng, int patterns) {
  const std::size_t W = static_cast<std::size_t>((patterns + 63) / 64);
  PairInstance in{std::vector<std::uint64_t>(W), std::vector<std::uint64_t>(W),
                  std::vector<std::uint64_t>(W), std::vector<std::uint64_t>(W)};
  const TruthTable f = table_of(static_cast<unsigned>(rng.below(16)));
  const double obs_density = rng.below(2) ? 0.5 : 0.02;
  const double noise = rng.below(3) == 0 ? 0.01 : 0.0;
  for (std::size_t w = 0; w < W; ++w) {
    in.b[w] = rng.next64();
    in.c[w] = rng.next64();
    std::uint64_t r = 0;
    for (unsigned m = 0; m < 4; ++m) {
      if (!f.bit(m)) continue;
      r |= ((m & 1) ? in.b[w] : ~in.b[w]) & ((m & 2) ? in.c[w] : ~in.c[w]);
    }
    in.a[w] = r ^ (noise > 0.0 ? rng.biased_word(noise) : 0);
    in.obs[w] = rng.biased_word(obs_density);
  }
  // Patterns past num_patterns are never observable (the tail of the last
  // word carries garbage in every signature).
  if (patterns % 64 != 0) in.obs[W - 1] &= (1ull << (patterns % 64)) - 1;
  return in;
}

std::vector<std::uint64_t> split(const PairInstance& in, bool target_value) {
  std::vector<std::uint64_t> out(in.a.size());
  for (std::size_t w = 0; w < out.size(); ++w)
    out[w] = (target_value ? in.a[w] : ~in.a[w]) & in.obs[w];
  return out;
}

TEST(PairKernel, AgreesWithPerCellEvaluationOnAllSixteenFunctions) {
  Rng rng(2024);
  // W = 1, 2 (last word partial), 2, 32 and 33 words.
  for (const int patterns : {64, 100, 128, 2048, 2112}) {
    for (int trial = 0; trial < 200; ++trial) {
      const PairInstance in = random_instance(rng, patterns);
      const auto on = split(in, true), off = split(in, false);
      for (unsigned f4 = 0; f4 < 16; ++f4) {
        // A single-cell matcher stops early exactly when that cell cannot
        // fit, so this also checks the early exit.
        const PairMatcher one({PairMatcher::Cell{0, static_cast<std::uint8_t>(f4)}});
        const int key = one.occupancy(in.b, in.c, on, off);
        const bool got = key >= 0 && PairMatcher::fits(f4, static_cast<unsigned>(key));
        EXPECT_EQ(got, reference_fits(table_of(f4), in.b, in.c, in.a, in.obs))
            << "f4 " << f4 << " patterns " << patterns << " trial " << trial;
      }
    }
  }
}

TEST(PairKernel, EmitsTheLibraryCellsThePerCellLoopEmitted) {
  const CellLibrary lib = CellLibrary::standard();
  const PairMatcher matcher = PairMatcher::for_library(lib);
  ASSERT_EQ(lib.two_input_cells().size(), 13u);
  Rng rng(7);
  int fitting_pairs = 0;
  for (const int patterns : {64, 100, 2048, 2112}) {
    for (int trial = 0; trial < 300; ++trial) {
      const PairInstance in = random_instance(rng, patterns);
      // Old loop: every two-input cell in library order, evaluated word by
      // word, degenerate functions skipped after the match.
      std::vector<CellId> want;
      for (CellId id : lib.two_input_cells()) {
        const TruthTable& f = lib.cell(id).function;
        if (!reference_fits(f, in.b, in.c, in.a, in.obs)) continue;
        if (!f.depends_on(0) || !f.depends_on(1)) continue;
        want.push_back(id);
      }
      std::vector<CellId> got;
      const int key =
          matcher.occupancy(in.b, in.c, split(in, true), split(in, false));
      if (key >= 0)
        for (const PairMatcher::Cell& cell : matcher.cells())
          if (PairMatcher::fits(cell.f4, static_cast<unsigned>(key)))
            got.push_back(cell.id);
      EXPECT_EQ(got, want) << "patterns " << patterns << " trial " << trial;
      if (!want.empty()) ++fitting_pairs;
    }
  }
  EXPECT_GT(fitting_pairs, 100);  // the instances exercise both outcomes
}

// ---- recorded harvest outputs ----------------------------------------------
// tests/golden/<circuit>.candidates.golden holds one line per candidate of a
// fresh finder's find(): class, site, replacement, cell and the bit patterns
// of pg_a/pg_b, in output order. The files were recorded from the
// per-cell-evaluation harvest (rerun with POWDER_REGEN_GOLDEN=1 to
// re-record); every later harvest must reproduce them at any thread count.

#ifndef POWDER_GOLDEN_DIR
#define POWDER_GOLDEN_DIR "tests/golden"
#endif

std::string harvest_text(const std::vector<CandidateSub>& cands,
                         std::size_t truncated) {
  std::ostringstream os;
  os << "candidates " << cands.size() << " truncated " << truncated << '\n';
  char bits[64];
  for (const CandidateSub& c : cands) {
    os << static_cast<int>(c.cls) << ' ' << c.target << ' ';
    if (c.branch)
      os << c.branch->gate << ':' << c.branch->pin;
    else
      os << '-';
    os << " k" << static_cast<int>(c.rep.kind);
    if (c.rep.kind == ReplacementFunction::Kind::kConstant)
      os << " v" << c.rep.constant_value;
    for (int i = 0; i < c.rep.num_sources(); ++i) os << ' ' << c.rep.source(i);
    os << " i" << c.rep.invert_b << c.rep.invert_c << " cell "
       << static_cast<long long>(c.new_cell);
    std::snprintf(bits, sizeof(bits), " %016" PRIx64 " %016" PRIx64,
                  std::bit_cast<std::uint64_t>(c.pg_a),
                  std::bit_cast<std::uint64_t>(c.pg_b));
    os << bits << '\n';
  }
  return os.str();
}

/// One fresh harvest of `nl` at `threads` (1 = no pool).
std::string harvest_of(const Netlist& nl, int threads) {
  std::optional<ThreadPool> pool;
  if (threads > 1) pool.emplace(threads - 1);
  Simulator sim(nl, 1024);
  if (pool) sim.set_thread_pool(&*pool);
  PowerEstimator est(&sim);
  CandidateFinder finder(nl, est, {}, /*seed=*/1, pool ? &*pool : nullptr);
  const std::vector<CandidateSub> cands = finder.find();
  return harvest_text(cands, finder.last_truncated());
}

void expect_harvest_golden(const std::string& name, const Netlist& nl) {
  const std::string path =
      std::string(POWDER_GOLDEN_DIR) + "/" + name + ".candidates.golden";
  if (std::getenv("POWDER_REGEN_GOLDEN") != nullptr) {
    std::ofstream os(path, std::ios::binary);
    ASSERT_TRUE(os.good()) << "cannot write golden " << path;
    os << harvest_of(nl, 1);
    return;
  }
  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.good()) << "missing golden " << path;
  std::ostringstream want;
  want << is.rdbuf();
  for (const int threads : {1, 4})
    EXPECT_EQ(harvest_of(nl, threads), want.str())
        << name << " harvest drifted at threads " << threads;
}

TEST(HarvestGolden, QuickCircuitsMatchRecordedHarvest) {
  const CellLibrary lib = CellLibrary::standard();
  for (const char* name : {"comp", "misex3"})
    expect_harvest_golden(name, map_aig(make_benchmark(name), lib));
}

TEST(HarvestGolden, ScaleNetlistMatchesRecordedHarvest) {
  expect_harvest_golden("scale300", make_scale_netlist(300));
}

}  // namespace
}  // namespace powder
