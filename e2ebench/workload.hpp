#pragma once
// Workload definitions, seeded input generation, set-up and the
// benchmark's own output checks (independent of the optimizer's guards).

#include <memory>
#include <string>
#include <vector>

#include "powder.hpp"

namespace powder::e2e {

struct Workload {
  std::string name;
  std::vector<std::string> circuits;  ///< benchgen names; empty = scale
  int scale_gates = 0;                ///< make_scale_netlist size
  PowerModelKind model = PowerModelKind::kZeroDelay;
  double delay_limit_factor = -1.0;   ///< <0: unconstrained
  int patterns = 2048;
  int threads = 1;
  bool check_power = false;  ///< zero-delay power must not rise
};

/// Looks up a workload by name; returns nullptr for an unknown name.
const Workload* find_workload(const std::string& name);
std::vector<std::string> workload_names();

/// One generated circuit and its BLIF file.
struct InputFile {
  std::string name;
  std::string path;
};

struct PreparedInputs {
  std::vector<InputFile> files;
  double map_s = 0.0;    ///< map_aig time (zero for the scale generator)
  double write_s = 0.0;  ///< write_blif + file write time
};

/// Generates the workload's circuits and writes them as BLIF under `dir`,
/// with internal net names drawn from `seed`. The same seed always yields
/// the same files.
PreparedInputs prepare_inputs(const Workload& w, std::uint64_t seed,
                              const std::string& dir);

/// What set-up produces: the cell library and the parsed input netlists
/// (each adopts the library).
struct Loaded {
  std::shared_ptr<const CellLibrary> library;
  std::vector<Netlist> netlists;
  double read_s = 0.0;  ///< file read + read_blif time
};
Loaded load_inputs(const std::vector<InputFile>& files);

/// The workload's optimizer configuration; the traced run attaches its
/// sinks to the returned builder.
PowderOptions::Builder workload_options(const Workload& w, int threads);

/// Everything a repetition must reproduce exactly.
struct Outcome {
  std::string blif;
  double initial_power = 0.0, final_power = 0.0;
  double initial_area = 0.0, final_area = 0.0;
  double initial_delay = 0.0, final_delay = 0.0;
  int substitutions = 0;
  bool operator==(const Outcome&) const = default;
};
Outcome outcome_of(const Netlist& output, const PowderReport& report);

/// Total power of `nl` under `model`, estimated from scratch with the same
/// patterns, probabilities and seed the optimizer uses.
double model_power(const Netlist& nl, const std::vector<double>& probs,
                   const PowderOptions& opt, PowerModelKind model);

/// Checks an optimized netlist against its input with engines independent
/// of the optimizer's guards: BDD equivalence, the delay limit and the
/// zero-delay power. Returns an empty string when every check passes.
/// `bdd_s` accumulates the equivalence-check time.
std::string check_output(const Workload& w, const std::string& name,
                         const PowderOptions& opt, const Netlist& input,
                         const Netlist& output, double* bdd_s);

}  // namespace powder::e2e
