#pragma once
// The steps of the paper's greedy iteration (Fig. 5), written once and
// called by every loop that runs them: the global loop and the window merge
// (powder.cpp), the window-local loop (window_optimizer.cpp) and the
// functional-reduction pre-pass (funcred.cpp). Each caller keeps only what
// really differs: its counters and audit records, its proof policy (live
// engines, WAL oracle or both) and whether it checks delay.

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "opt/journal.hpp"
#include "power/model.hpp"
#include "sim/simulator.hpp"

namespace powder {

struct PowderOptions;

/// Primary-output signature snapshot on an independent pattern set. The PI
/// stimulus is frozen, so a permissible substitution can never change any
/// PO word: a mismatch after a commit is a proven miscompare.
class OutputGuard {
 public:
  /// Snapshots the current PO words of `sim`, which must outlive the guard.
  explicit OutputGuard(const Simulator& sim);

  /// True while every PO word still equals the snapshot.
  bool ok() const;

 private:
  const Simulator* sim_;
  std::vector<GateId> outputs_;
  std::vector<std::uint64_t> snapshot_;
};

/// select_power_red_subst. Drops every candidate that is no longer valid
/// or fails `keep` (when given), reporting each to `on_drop`; refreshes
/// PG_A+PG_B of the rest; ranks them by PG_A+PG_B (or by the exact area
/// gain under Objective::kArea) and re-estimates PG_C on the first
/// `options.shortlist`. Removes the winner from `cands` and returns it, or
/// nullopt when nothing beats `options.min_gain`.
std::optional<CandidateSub> select_best(
    const Netlist& nl, const PowerModel& model,
    std::vector<CandidateSub>& cands, const PowderOptions& options,
    const std::function<void(const CandidateSub&)>& on_drop,
    const std::function<bool(const CandidateSub&)>& keep = {});

/// Cheap pre-proof: simulates `cand`'s replacement on `sim`'s patterns. Any
/// output difference is a definite refutation.
bool presim_refutes(const Simulator& sim, const CandidateSub& cand);

enum class ApplyStatus {
  kApplied,      ///< committed and accepted by the guard
  kApplyFailed,  ///< stale or invalid; the netlist is untouched
  kGuardFailed,  ///< committed but rejected by the guard; call undo_last
};

/// perform_substitution: applies `cand` through the journal, runs `resync`,
/// checks the netlist's invariants when `check_invariants` is set, then
/// asks `guard` (may be null). On kGuardFailed the commit is still in the
/// journal, so the caller can record the rejection against the committed
/// state before undoing it.
ApplyStatus checked_apply(SubstJournal& journal, const CandidateSub& cand,
                          const std::function<void()>& resync,
                          const OutputGuard* guard, bool check_invariants,
                          AppliedSub* applied);

/// Rolls back the journal's last commit and runs `resync`. Returns false
/// when the rollback threw, which only a corrupted journal can cause: the
/// deltas that did execute were published, so `resync` has still brought
/// every cache in line, but the caller must stop committing.
bool undo_last(SubstJournal& journal, const std::function<void()>& resync);

}  // namespace powder
