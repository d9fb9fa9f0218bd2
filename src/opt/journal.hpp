#pragma once
// Transactional application of substitutions.
//
// Every commit goes through the journal, which records the full inverse
// delta (rewired pins with their previous drivers, the fanin lists of the
// swept MFFC, the inserted gate). `rollback_last()` undoes the most recent
// commit exactly — revive the swept gates deepest-first, rewire the pins
// back, drop the inserted gate — and returns the gates whose function
// changed so the caller can re-simulate incrementally. This is what lets
// the optimizer's guard pass restore a last-known-good netlist instead of
// emitting a miscompiled one.

#include <cstddef>
#include <vector>

#include "opt/substitution.hpp"

namespace powder {

class TraceSession;
class MetricsRegistry;

class SubstJournal {
 public:
  explicit SubstJournal(Netlist* netlist);

  /// Attaches observability sinks (both borrowed, either may be null).
  /// Commits and rollbacks then emit "journal_commit"/"journal_rollback"
  /// spans and bump the journal counters; with null sinks the cost is one
  /// branch per operation.
  void set_trace(TraceSession* trace, MetricsRegistry* metrics);

  /// Applies `sub` and records its inverse delta. Throws CheckError —
  /// before any mutation — when the substitution is stale or invalid.
  const AppliedSub& apply(const CandidateSub& sub);

  /// Swaps `gate`'s cell for the functionally identical `new_cell` and
  /// records the inverse — the re-sizing pass commits through here so its
  /// edits share the guard/rollback machinery of substitutions.
  const AppliedSub& apply_resize(GateId gate, CellId new_cell);

  const Netlist& netlist() const { return *netlist_; }
  std::size_t size() const { return deltas_.size(); }
  bool empty() const { return deltas_.empty(); }

  /// Opaque mark identifying the current state; pass to rollback_to.
  std::size_t checkpoint() const { return deltas_.size(); }

  /// Undoes the most recent commit. Returns the gates whose function
  /// changed (deduplicated) — the seed set for incremental re-simulation.
  std::vector<GateId> rollback_last();

  /// Undoes every commit made after `mark`, newest first. Returns the
  /// union of changed roots across all undone commits.
  std::vector<GateId> rollback_to(std::size_t mark);

 private:
  Netlist* netlist_;
  std::vector<AppliedSub> deltas_;

  TraceSession* trace_ = nullptr;
  class Counter* m_commits_ = nullptr;
  class Counter* m_rollbacks_ = nullptr;

  std::vector<GateId> undo(const AppliedSub& delta);
};

}  // namespace powder
