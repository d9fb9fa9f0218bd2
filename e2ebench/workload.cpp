#include "workload.hpp"

#include <fstream>
#include <cstdio>
#include <sstream>
#include <unordered_set>

#include "bdd/netlist_bdd.hpp"
#include "benchgen/benchmarks.hpp"
#include "clock.hpp"
#include "mapper/mapper.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace powder::e2e {

namespace {

// Why each workload exists is recorded in BENCHMARK.json and NOTES.md.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = [] {
    Workload paper;
    paper.name = "paper_delay";
    paper.circuits = fig6_suite();
    paper.delay_limit_factor = 1.0;
    paper.check_power = true;

    Workload scale;
    scale.name = "scale_t2";
    scale.scale_gates = 2000;
    scale.patterns = 256;
    scale.threads = 2;
    scale.check_power = true;

    Workload glitch;
    glitch.name = "glitch_timed";
    glitch.circuits = {"comp", "Z5xp1", "rd84", "misex3"};
    glitch.model = PowerModelKind::kTimed;
    return std::vector<Workload>{paper, scale, glitch};
  }();
  return kWorkloads;
}

// Copy of `nl` in the same gate order whose internal nets carry names drawn
// from `seed`. The optimizer faces the same problem under every seed; see
// NOTES.md ("Seeds") for why the seed varies nothing else.
Netlist rename_nets(const Netlist& nl, std::uint64_t seed) {
  Rng rng(seed);
  std::unordered_set<std::string> used;
  for (const GateId g : nl.inputs()) used.emplace(nl.gate_name(g));
  for (const GateId g : nl.outputs()) used.emplace(nl.gate_name(g));
  auto fresh = [&]() {
    for (;;) {
      char buf[24];
      std::snprintf(buf, sizeof buf, "n%016llx",
                    static_cast<unsigned long long>(rng.next64()));
      if (used.emplace(buf).second) return std::string(buf);
    }
  };
  Netlist out(&nl.library(), nl.name());
  std::vector<GateId> map(nl.num_slots(), kNullGate);
  for (const GateId g : nl.inputs())
    map[g] = out.add_input(std::string(nl.gate_name(g)));
  for (const GateId g : nl.topo_order()) {
    if (nl.kind(g) != GateKind::kCell) continue;
    std::vector<GateId> fanins;
    for (const GateId f : nl.fanins(g)) fanins.push_back(map[f]);
    map[g] = out.add_gate(nl.cell_id(g), fanins, fresh());
  }
  for (const GateId o : nl.outputs())
    out.add_output(std::string(nl.gate_name(o)), map[nl.fanin(o, 0)],
                   nl.po_load(o));
  return out;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary);
  os << text;
  os.close();
  if (!os) throw Error::io("cannot write " + path);
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw Error::io("cannot read " + path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Workload& w : workloads()) names.push_back(w.name);
  return names;
}

PreparedInputs prepare_inputs(const Workload& w, std::uint64_t seed,
                              const std::string& dir) {
  PreparedInputs out;
  auto emit = [&](const std::string& name, const Netlist& nl) {
    InputFile f{name, dir + "/" + name + ".blif"};
    const double t0 = wall_now();
    write_file(f.path, write_blif(rename_nets(nl, seed)));
    out.write_s += wall_now() - t0;
    out.files.push_back(std::move(f));
  };
  if (w.circuits.empty()) {
    emit("scale" + std::to_string(w.scale_gates),
         make_scale_netlist(w.scale_gates));
    return out;
  }
  // Power-driven mapping under uniform PI probabilities, as `powder gen`
  // produces the circuits.
  const CellLibrary lib = CellLibrary::standard();
  for (const std::string& name : w.circuits) {
    const Aig aig = make_benchmark(name);
    const double t0 = wall_now();
    const Netlist nl = map_aig(aig, lib);
    out.map_s += wall_now() - t0;
    emit(name, nl);
  }
  return out;
}

Loaded load_inputs(const std::vector<InputFile>& files) {
  Loaded l;
  l.library = std::make_shared<const CellLibrary>(CellLibrary::standard());
  const double t0 = wall_now();
  for (const InputFile& f : files) {
    l.netlists.push_back(read_blif(read_file(f.path), *l.library));
    l.netlists.back().adopt_library(l.library);
  }
  l.read_s = wall_now() - t0;
  return l;
}

PowderOptions::Builder workload_options(const Workload& w, int threads) {
  return PowderOptions::builder()
      .patterns(w.patterns)
      .threads(threads)
      .delay_limit_factor(w.delay_limit_factor)
      .power_model(w.model);
}

Outcome outcome_of(const Netlist& output, const PowderReport& r) {
  return Outcome{write_blif(output), r.initial_power, r.final_power,
                 r.initial_area,     r.final_area,    r.initial_delay,
                 r.final_delay,      r.substitutions_applied};
}

double model_power(const Netlist& nl, const std::vector<double>& probs,
                   const PowderOptions& opt, PowerModelKind model) {
  const std::vector<double> sim_probs = expand_pi_probs(nl, probs);
  Simulator sim(nl, opt.num_patterns, sim_probs, opt.seed);
  PowerEstimator est(&sim);
  if (model == PowerModelKind::kZeroDelay) return est.total_power();
  GlitchOptions g = opt.glitch;
  if (g.stimulus.prob.empty()) g.stimulus.prob = sim_probs;
  const TimedPowerModel timed(&est, std::move(g));
  return timed.total_power();
}

std::string check_output(const Workload& w, const std::string& name,
                         const PowderOptions& opt, const Netlist& input,
                         const Netlist& output, double* bdd_s) {
  const double t0 = wall_now();
  const bool equivalent = functionally_equivalent(input, output);
  *bdd_s += wall_now() - t0;
  if (!equivalent) return name + ": output not equivalent to input";
  if (w.delay_limit_factor > 0.0) {
    const double limit =
        analyze_timing(input).circuit_delay * w.delay_limit_factor;
    const double delay = analyze_timing(output).circuit_delay;
    if (delay > limit * (1.0 + 1e-12))
      return name + ": delay " + std::to_string(delay) +
             " exceeds limit " + std::to_string(limit);
  }
  if (w.check_power) {
    const double before =
        model_power(input, opt.pi_probs, opt, PowerModelKind::kZeroDelay);
    const double after =
        model_power(output, opt.pi_probs, opt, PowerModelKind::kZeroDelay);
    if (after > before * (1.0 + 1e-12))
      return name + ": zero-delay power rose from " +
             std::to_string(before) + " to " + std::to_string(after);
  }
  return {};
}

}  // namespace powder::e2e
