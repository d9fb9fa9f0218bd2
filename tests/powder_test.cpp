// Tests for the full POWDER optimizer: power must go down, functions must
// be preserved (BDD oracle), delay constraints must hold, and the worked
// example of the paper must reproduce.

#include <gtest/gtest.h>

#include <cmath>

#include "bdd/netlist_bdd.hpp"
#include "benchgen/benchmarks.hpp"
#include "mapper/mapper.hpp"
#include "opt/powder.hpp"
#include "timing/timing.hpp"
#include "util/check.hpp"
#include "util/error.hpp"

namespace powder {
namespace {

PowderOptions small_options() {
  PowderOptions opt;
  opt.num_patterns = 1024;
  opt.repeat = 10;
  opt.max_outer_iterations = 8;
  opt.check_invariants = true;
  return opt;
}

TEST(Powder, Figure2ExampleReducesPower) {
  CellLibrary lib = CellLibrary::standard();
  Netlist nl(&lib, "fig2");
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId c = nl.add_input("c");
  const GateId d = nl.add_gate(lib.find("xor2"), {a, c}, "d");
  const GateId f = nl.add_gate(lib.find("and2"), {d, b}, "f");
  const GateId e = nl.add_gate(lib.find("and2"), {a, b}, "e");
  nl.add_output("fo", f, 0.0);
  nl.add_output("eo", e, 0.0);

  const Netlist before = nl;
  PowderOptimizer optimizer(&nl, small_options());
  const PowderReport report = optimizer.run();
  EXPECT_GT(report.substitutions_applied, 0);
  EXPECT_LT(report.final_power, report.initial_power);
  EXPECT_TRUE(functionally_equivalent(before, nl));
}

TEST(Powder, CollapsesRedundantTwin) {
  // t481-style circuit: two structurally different copies of the same
  // function; POWDER should collapse a large fraction of the area.
  CellLibrary lib = CellLibrary::standard();
  const Aig aig = make_redundant_twin(8, 123);
  Netlist nl = map_aig(aig, lib);
  const Netlist before = nl;
  PowderOptions opt = small_options();
  opt.repeat = 30;
  PowderOptimizer optimizer(&nl, opt);
  const PowderReport report = optimizer.run();
  EXPECT_GT(report.power_reduction_percent(), 20.0) << "twin not collapsed";
  EXPECT_TRUE(functionally_equivalent(before, nl));
}

TEST(Powder, PreservesFunctionsOnBenchmarks) {
  CellLibrary lib = CellLibrary::standard();
  for (const char* name : {"comp", "rd84", "Z5xp1", "misex3"}) {
    const Aig aig = make_benchmark(name);
    Netlist nl = map_aig(aig, lib);
    const Netlist before = nl;
    PowderOptimizer optimizer(&nl, small_options());
    const PowderReport report = optimizer.run();
    EXPECT_LE(report.final_power, report.initial_power + 1e-9) << name;
    EXPECT_TRUE(functionally_equivalent(before, nl)) << name;
    nl.check_consistency();
  }
}

TEST(Powder, DelayConstraintIsNeverViolated) {
  CellLibrary lib = CellLibrary::standard();
  for (const char* name : {"comp", "misex3", "duke2"}) {
    const Aig aig = make_benchmark(name);
    Netlist nl = map_aig(aig, lib);
    PowderOptions opt = small_options();
    opt.delay_limit_factor = 1.0;  // paper's constrained mode
    PowderOptimizer optimizer(&nl, opt);
    const PowderReport report = optimizer.run();
    EXPECT_LE(report.final_delay, report.delay_limit + 1e-6) << name;
    EXPECT_LE(report.final_delay, report.initial_delay + 1e-6) << name;
  }
}

TEST(Powder, ConstrainedModeSavesLessOrEqual) {
  CellLibrary lib = CellLibrary::standard();
  const Aig aig = make_benchmark("duke2");

  Netlist free_nl = map_aig(aig, lib);
  PowderOptions free_opt = small_options();
  const PowderReport free_report =
      PowderOptimizer(&free_nl, free_opt).run();

  Netlist con_nl = map_aig(aig, lib);
  PowderOptions con_opt = small_options();
  con_opt.delay_limit_factor = 1.0;
  const PowderReport con_report = PowderOptimizer(&con_nl, con_opt).run();

  // Same seed, same candidates: the constrained run can only do the same
  // or fewer substitutions' worth of saving.
  EXPECT_GE(free_report.power_reduction_percent(),
            con_report.power_reduction_percent() - 1.0);
}

TEST(Powder, ReportAccountingIsConsistent) {
  CellLibrary lib = CellLibrary::standard();
  const Aig aig = make_benchmark("comp");
  Netlist nl = map_aig(aig, lib);
  PowderOptimizer optimizer(&nl, small_options());
  const PowderReport report = optimizer.run();

  int by_class_total = 0;
  double power_delta = 0.0;
  for (const ClassStats& cs : report.by_class) {
    by_class_total += cs.applied;
    power_delta += cs.power_delta;
  }
  EXPECT_EQ(by_class_total, report.substitutions_applied);
  EXPECT_NEAR(power_delta, report.initial_power - report.final_power, 1e-6);
  EXPECT_DOUBLE_EQ(report.final_area, nl.total_area());
}

TEST(Powder, AreaObjectiveShrinksAreaAndPreservesFunction) {
  CellLibrary lib = CellLibrary::standard();
  const Aig aig = make_redundant_twin(8, 123);
  Netlist nl = map_aig(aig, lib);
  const Netlist before = nl;
  PowderOptions opt = small_options();
  opt.objective = Objective::kArea;
  opt.repeat = 30;
  const PowderReport r = PowderOptimizer(&nl, opt).run();
  EXPECT_LT(r.final_area, r.initial_area);
  EXPECT_TRUE(functionally_equivalent(before, nl));
  nl.check_consistency();
}

TEST(Powder, ObjectivesDiverge) {
  // The area objective must never *increase* area (every accepted move has
  // positive exact area gain); the power objective is allowed to.
  CellLibrary lib = CellLibrary::standard();
  for (const char* name : {"comp", "duke2"}) {
    const Aig aig = make_benchmark(name);
    Netlist nl = map_aig(aig, lib);
    PowderOptions opt = small_options();
    opt.objective = Objective::kArea;
    const PowderReport r = PowderOptimizer(&nl, opt).run();
    EXPECT_LE(r.final_area, r.initial_area) << name;
  }
}

TEST(Powder, IdempotentWhenNoGainLeft) {
  CellLibrary lib = CellLibrary::standard();
  const Aig aig = make_benchmark("rd84");
  Netlist nl = map_aig(aig, lib);
  PowderOptimizer first(&nl, small_options());
  (void)first.run();
  const double power_after_first = analyze_timing(nl).circuit_delay;
  PowderOptions opt = small_options();
  opt.seed = 1;  // same seed: same patterns, so no fresh sampled noise
  PowderOptimizer second(&nl, opt);
  const PowderReport r2 = second.run();
  // The second run should find little to nothing.
  EXPECT_LE(r2.power_reduction_percent(), 5.0);
  (void)power_after_first;
}

TEST(Powder, MalformedOptionsAreRejectedUpFront) {
  CellLibrary lib = CellLibrary::standard();
  Netlist nl = map_aig(make_benchmark("rd84"), lib);  // 8 inputs

  auto expect_rejected = [&](PowderOptions opt, const char* why) {
    try {
      PowderOptimizer optimizer(&nl, opt);
      ADD_FAILURE() << "accepted: " << why;
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kInput) << why;
    } catch (...) {
      ADD_FAILURE() << "untyped exception: " << why;
    }
  };

  {
    PowderOptions opt;
    opt.num_patterns = 0;
    expect_rejected(opt, "zero patterns");
    opt.num_patterns = -64;
    expect_rejected(opt, "negative patterns");
  }
  {
    PowderOptions opt;
    opt.pi_probs = {0.5, 0.5};  // netlist has 8 PIs
    expect_rejected(opt, "pi_probs size mismatch");
    opt.pi_probs.assign(8, 0.5);
    opt.pi_probs[3] = 1.5;
    expect_rejected(opt, "probability out of [0,1]");
    opt.pi_probs[3] = -0.1;
    expect_rejected(opt, "negative probability");
  }
  {
    PowderOptions opt;
    opt.shortlist = 0;
    expect_rejected(opt, "empty shortlist");
    opt.shortlist = -3;
    expect_rejected(opt, "negative shortlist");
  }
  {
    PowderOptions opt;
    opt.repeat = 0;
    expect_rejected(opt, "zero repeat");
  }
  {
    PowderOptions opt;
    opt.max_outer_iterations = 0;
    expect_rejected(opt, "zero outer iterations");
  }
  {
    // A NaN delay factor used to drop the limit silently; a negative one
    // still means "unconstrained".
    PowderOptions opt;
    opt.delay_limit_factor = std::nan("");
    expect_rejected(opt, "NaN delay limit factor");
    opt.delay_limit_factor = -1.0;
    EXPECT_NO_THROW(PowderOptimizer(&nl, opt));
  }
  {
    PowderOptions opt;
    opt.candidates.max_candidates = -1;
    expect_rejected(opt, "negative max_candidates");
  }
  {
    // Negative pool sizes used to act as 0 while still entering the WAL
    // options fingerprint.
    PowderOptions opt;
    opt.candidates.local_pool_size = -1;
    expect_rejected(opt, "negative local_pool_size");
  }
  {
    PowderOptions opt;
    opt.candidates.random_pool_size = -1;
    expect_rejected(opt, "negative random_pool_size");
  }
  {
    PowderOptions opt;
    opt.candidates.resub.three_sub_b_pool = -1;
    expect_rejected(opt, "negative three_sub_b_pool");
  }
  {
    PowderOptions opt;
    opt.candidates.resub.max_three_per_target = -1;
    expect_rejected(opt, "negative max_three_per_target");
  }

  // A full-size, in-range pi_probs vector is fine.
  PowderOptions opt;
  opt.pi_probs.assign(8, 0.25);
  opt.num_patterns = 256;
  EXPECT_NO_THROW(PowderOptimizer(&nl, opt));
}

}  // namespace
}  // namespace powder
