#pragma once
// Functional-reduction pre-pass (SAT sweeping before the greedy loop).
//
// Signals with equal (or complementary) simulation signatures are grouped
// by the same FNV signature hash the candidate index uses, each suspected
// pair is proved with the run's permissibility engine — replacing stem `a`
// by signal `b` is sound whenever the replacement fault is untestable,
// which subsumes plain functional equivalence and additionally exploits
// observability don't-cares — and proven merges are committed through the
// SubstJournal so every delta-bus subscriber (simulators, estimator,
// timing, candidate index) stays consistent.
//
// The pass is deterministic: signals are visited in ascending GateId order,
// representatives are the lowest-id member of each signature class, and
// rounds repeat until one completes without a merge (re-simulation after a
// merge can reveal new equivalences inside the merged signal's old ODC
// set). Running the pass twice in a row therefore merges nothing the
// second time (idempotence).
//
// Soundness does NOT rest on the signature filter — signatures only
// nominate pairs. Every merge is individually proved untestable by the
// caller-supplied `prove` callback and then committed through the shared
// greedy step checked_apply (opt/greedy.hpp), which re-checks it against
// the caller's OutputGuard; a guard failure rolls the merge back through
// the journal.

#include <functional>
#include <vector>

#include "opt/greedy.hpp"
#include "opt/journal.hpp"
#include "opt/transform.hpp"
#include "sim/simulator.hpp"

namespace powder {

struct FuncredStats {
  long pairs_tested = 0;     ///< signature-nominated pairs handed to `prove`
  long sim_rejected = 0;     ///< pairs refuted by the word-compare recheck
  long proof_rejected = 0;   ///< pairs the proof engine refuted / aborted
  long merged = 0;           ///< merges committed and kept
  long guard_rollbacks = 0;  ///< merges undone by the post-commit guard
  int rounds = 0;            ///< sweep rounds run (last one merges nothing)
};

/// One committed merge: the transform (cls == ResubClass::kFuncRed) and the
/// journal's inverse delta, in commit order. The caller records these in
/// the WAL (kPrepass frames) and folds them into its commit log.
struct FuncredCommit {
  CandidateSub cand;
  AppliedSub applied;
  int round = 0;    ///< 0-based sweep round of the commit
  int ordinal = 0;  ///< merge ordinal within the round
};

struct FuncredHooks {
  /// Settles permissibility of a proposed merge. Return true to accept.
  /// (The resume path answers this from the WAL oracle instead of the
  /// engines; everything else in the pass is deterministic.)
  std::function<bool(const CandidateSub&)> prove;
  /// Called after every journal commit/rollback so the caller can refresh
  /// its own analyses (verify simulator, estimator, timing).
  std::function<void()> resync;
  /// Post-commit PO-signature guard on the caller's independent pattern
  /// set; a failure rolls the merge back. May be null (no guard).
  const OutputGuard* guard = nullptr;
  /// Fired once per kept merge, after the guard accepted it — the WAL
  /// recording seam (kPrepass frames are durable before the pass moves
  /// on, so a crash mid-pass loses at most the in-flight merge). May be
  /// null.
  std::function<void(const FuncredCommit&)> on_commit;
};

/// Runs the pre-pass over `netlist`. `sim` must be the run's main
/// simulator (refreshed; its signatures nominate the pairs). Appends every
/// kept merge to `commits` (may be null). The journal records each merge
/// so the caller's end-of-run rollback walk covers pre-pass commits too.
FuncredStats functional_reduction(Netlist& netlist, Simulator& sim,
                                  SubstJournal& journal,
                                  const FuncredHooks& hooks,
                                  std::vector<FuncredCommit>* commits = nullptr);

}  // namespace powder
