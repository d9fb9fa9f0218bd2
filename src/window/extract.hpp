#pragma once
// Window extraction (DESIGN.md §11.2): materializes one window as a small
// self-contained netlist against the parent's cell library.
//
//   * every fanin driven from outside the window becomes a local primary
//     input whose signal probability is sampled from the parent's power
//     estimator (so local pattern generation matches the parent's signal
//     statistics);
//   * every window gate with a fanout outside the window — an external cell
//     sink or a parent primary output — is *pinned* by a synthetic local
//     primary output carrying the summed external pin load.
//
// The pinning is what makes local permissibility proofs globally sound: a
// substitution that is untestable through the local outputs is untestable
// in the parent, because the local inputs range over a superset of the
// value combinations the parent can actually produce, and every externally
// visible signal is directly observed by a local output (forcing exact
// value preservation at the boundary).

#include <vector>

#include "netlist/netlist.hpp"
#include "opt/transform.hpp"
#include "power/power.hpp"

namespace powder {

struct WindowExtraction {
  explicit WindowExtraction(const CellLibrary* library) : local(library) {}

  int id = 0;         ///< globally unique window id (stable across a run)
  Netlist local;      ///< the extracted window circuit

  /// Parent ids of the window's cell gates, in parent topological order.
  std::vector<GateId> gates;

  /// local slot -> parent id; kNullGate for synthetic locals (the pinned
  /// outputs). Extended at merge time as local commits insert new gates.
  std::vector<GateId> to_parent;

  /// Sorted unique parent ids the window's proofs depend on: the window
  /// gates plus the external input drivers. Merge-time conflict detection
  /// intersects this with the set of parent gates earlier merges touched.
  std::vector<GateId> support;

  /// Signal probability per local primary input (parallel to
  /// local.inputs()), sampled from the parent estimator at extraction time.
  std::vector<double> input_probs;

  int pinned_outputs = 0;  ///< synthetic POs added for boundary signals
};

/// Builds the local netlist for `gates` (parent ids in parent topological
/// order — the partitioner's output). `estimator` supplies boundary input
/// probabilities and must be coherent with the parent's current state.
WindowExtraction extract_window(const Netlist& parent,
                                const PowerModel& estimator,
                                std::vector<GateId> gates, int id);

/// Rewrites a local candidate into parent ids through `to_parent` (a
/// WindowExtraction::to_parent map). Returns false when a gate it names has
/// no parent counterpart: a synthetic local, or a gate inserted by an
/// earlier local commit that never reached the parent.
bool map_to_parent(const std::vector<GateId>& to_parent,
                   const CandidateSub& local, CandidateSub* parent);

/// Records that one commit inserted `local` in the window and `parent` in
/// the parent, so later commits naming the new gate keep mapping. A no-op
/// unless both ids are real.
void map_inserted_gate(std::vector<GateId>& to_parent, GateId local,
                       GateId parent);

}  // namespace powder
