#include "window/extract.hpp"

#include <algorithm>
#include <string>

#include "util/check.hpp"

namespace powder {

WindowExtraction extract_window(const Netlist& parent,
                                const PowerModel& estimator,
                                std::vector<GateId> gates, int id) {
  WindowExtraction ex(&parent.library());
  if (parent.library_owner() != nullptr)
    ex.local.adopt_library(parent.library_owner());
  ex.local.set_name(parent.name() + ".w" + std::to_string(id));
  ex.id = id;
  ex.gates = std::move(gates);

  std::vector<std::uint8_t> in_window(parent.num_slots(), 0);
  for (const GateId g : ex.gates) in_window[g] = 1;

  std::vector<GateId> parent_to_local(parent.num_slots(), kNullGate);

  // Pass 1 (parent topo order): clone the window gates, creating a local
  // primary input the first time an external driver is referenced.
  for (const GateId g : ex.gates) {
    POWDER_CHECK_MSG(parent.alive(g) && parent.kind(g) == GateKind::kCell,
                     "extract_window: gate " << g
                                             << " is not a live cell gate");
    std::vector<GateId> local_fanins;
    local_fanins.reserve(static_cast<std::size_t>(parent.num_fanins(g)));
    for (const GateId f : parent.fanins(g)) {
      if (parent_to_local[f] == kNullGate) {
        POWDER_CHECK_MSG(!in_window[f],
                         "extract_window: window gates not in topological "
                         "order (fanin " << f << " of gate " << g << ")");
        parent_to_local[f] =
            ex.local.add_input(std::string(parent.gate_name(f)));
        ex.to_parent.push_back(f);
        ex.input_probs.push_back(estimator.probability(f));
      }
      local_fanins.push_back(parent_to_local[f]);
    }
    parent_to_local[g] = ex.local.add_gate(parent.cell_id(g), local_fanins,
                                           std::string(parent.gate_name(g)));
    ex.to_parent.push_back(g);
  }

  // Pass 2: pin every boundary signal. A window gate whose signal leaves
  // the window (external cell sink or parent primary output) — or that has
  // no fanout at all, so a local sweep could diverge from the parent —
  // gets a synthetic local output carrying the summed external load.
  for (const GateId g : ex.gates) {
    bool external = parent.fanouts(g).empty();
    double external_load = 0.0;
    for (const FanoutRef& fr : parent.fanouts(g)) {
      if (in_window[fr.gate]) continue;
      external = true;
      external_load += parent.pin_cap(fr.gate, fr.pin);
    }
    if (!external) continue;
    ex.local.add_output("__win_po_" + std::string(parent.gate_name(g)),
                        parent_to_local[g], external_load);
    ex.to_parent.push_back(kNullGate);
    ++ex.pinned_outputs;
  }

  // Support set: window gates plus external input drivers, sorted for the
  // merge-time conflict intersection.
  ex.support = ex.gates;
  for (std::size_t i = 0; i < ex.local.inputs().size(); ++i)
    ex.support.push_back(ex.to_parent[ex.local.inputs()[i]]);
  std::sort(ex.support.begin(), ex.support.end());
  ex.support.erase(std::unique(ex.support.begin(), ex.support.end()),
                   ex.support.end());
  return ex;
}

bool map_to_parent(const std::vector<GateId>& to_parent,
                   const CandidateSub& local, CandidateSub* parent) {
  const auto map_gate = [&](GateId g, GateId* out) {
    if (g >= to_parent.size() || to_parent[g] == kNullGate) return false;
    *out = to_parent[g];
    return true;
  };
  *parent = local;
  if (!map_gate(local.target, &parent->target)) return false;
  if (local.branch.has_value() &&
      !map_gate(local.branch->gate, &parent->branch->gate))
    return false;
  for (int i = 0; i < local.rep.num_sources(); ++i)
    if (!map_gate(local.rep.source(i), &parent->rep.source_ref(i)))
      return false;
  return true;
}

void map_inserted_gate(std::vector<GateId>& to_parent, GateId local,
                       GateId parent) {
  if (local == kNullGate || parent == kNullGate) return;
  if (local >= to_parent.size()) to_parent.resize(local + 1, kNullGate);
  to_parent[local] = parent;
}

}  // namespace powder
