#include "window/window_optimizer.hpp"

#include <cstddef>
#include <functional>
#include <optional>

#include "atpg/sat_checker.hpp"
#include "opt/greedy.hpp"
#include "opt/journal.hpp"
#include "trace/trace.hpp"
#include "util/budget.hpp"
#include "util/check.hpp"

namespace powder {
namespace {

/// One local permissibility check. A CheckError from an engine is treated
/// as kAborted — a sound rejection — so a transient failure inside a pool
/// thread can never accept an unproven candidate or tear down the window
/// fan-out.
AtpgResult prove_local(AtpgChecker& atpg, SatChecker& sat, ProofEngine engine,
                       const CandidateSub& cand) {
  try {
    return prove_replacement(atpg, sat, engine, cand.site(), cand.rep);
  } catch (const CheckError&) {
    return AtpgResult::kAborted;
  }
}

}  // namespace

WindowResult optimize_window(WindowExtraction& ex,
                             const WindowRunOptions& wo) {
  POWDER_CHECK(wo.base != nullptr);
  const PowderOptions& base = *wo.base;
  Netlist& nl = ex.local;
  WindowResult result;

  TraceSpan window_span(wo.trace, "window", "window");
  window_span.arg("window", ex.id);
  window_span.arg("gates", static_cast<long long>(ex.gates.size()));

  // Local twins of the global loop's analyses, all sized by the window.
  Simulator sim(nl, base.num_patterns, ex.input_probs, wo.seed);
  PowerEstimator est(&sim);
  // The window inherits the parent's power model: under the timed model
  // the local boundary inputs switch with the probabilities sampled from
  // the parent (their arrival-time profile is approximated as t = 0).
  std::optional<TimedPowerModel> timed;
  if (base.power_model == PowerModelKind::kTimed) {
    GlitchOptions gopt = base.glitch;
    gopt.stimulus.prob = ex.input_probs;
    gopt.stimulus.toggle.clear();
    timed.emplace(&est, std::move(gopt));
  }
  PowerModel& model = timed.has_value() ? static_cast<PowerModel&>(*timed)
                                        : static_cast<PowerModel&>(est);
  Simulator verify_sim(nl, base.num_patterns, ex.input_probs,
                       wo.seed ^ 0x5EC0DD5EEDull);

  // Local PO-signature guard: the synthetic outputs pin every boundary
  // signal, so a guard pass here means the window's externally visible
  // values are bit-identical on the independent pattern set.
  const OutputGuard guard(verify_sim);

  AtpgOptions atpg_options = base.proof.atpg;
  atpg_options.budget = wo.budget;
  atpg_options.trace = wo.trace;
  atpg_options.metrics = nullptr;
  SatCheckerOptions sat_options = base.proof.sat;
  sat_options.budget = wo.budget;
  sat_options.trace = wo.trace;
  sat_options.metrics = nullptr;
  AtpgChecker atpg(nl, atpg_options);
  SatChecker sat(nl, sat_options);

  SubstJournal journal(&nl);
  CandidateFinder finder(nl, model, base.candidates, wo.seed, nullptr);

  const std::function<void()> resync = [&]() {
    model.refresh();
    verify_sim.refresh();
  };
  // The two windowed soundness filters (see the header comment); a
  // candidate failing them counts as stale.
  const auto representable = [&](const CandidateSub& c) {
    return nl.kind(c.target) == GateKind::kCell &&
           !(c.branch.has_value() &&
             nl.kind(c.branch->gate) == GateKind::kOutput);
  };
  const auto drop = [&](const CandidateSub&) { ++result.stats.stale; };

  // WAL replay oracle. Matching needs parent ids, so the extraction's
  // local->parent map is copied and extended as replayed commits insert
  // gates (the record carries the parent id the original merge assigned).
  std::vector<GateId> to_parent = ex.to_parent;
  std::size_t replay_cursor = 0;

  for (int round = 0; round < wo.rounds; ++round) {
    finder.reseed(wo.seed + 17 * static_cast<std::uint64_t>(round));
    std::vector<CandidateSub> cands = finder.find();
    result.stats.harvested += static_cast<long>(cands.size());
    result.stats.truncated += static_cast<long>(finder.last_truncated());
    for (const CandidateSub& c : cands)
      ++result.stats.harvested_by_class[static_cast<std::size_t>(c.cls)];

    int performed = 0;
    bool progress = false;
    while (performed < base.repeat && !cands.empty()) {
      std::optional<CandidateSub> best;
      {
        TraceSpan select_span(wo.trace, "select", "powder");
        best = select_best(nl, model, cands, base, drop, representable);
      }
      if (!best.has_value()) break;
      const CandidateSub& chosen = *best;

      if (presim_refutes(verify_sim, chosen)) {
        ++result.stats.presim_rejected;
        continue;
      }

      // Permissibility: the WAL oracle answers candidates it recorded for
      // this window; everything else is proved live (a conflict-skipped
      // local commit never reached the WAL, so no-match must not mean
      // rejected here).
      const WalCommit* record =
          wo.replay != nullptr && replay_cursor < wo.replay->size()
              ? (*wo.replay)[replay_cursor]
              : nullptr;
      CandidateSub parent_cand;
      const bool matched = record != nullptr &&
                           map_to_parent(to_parent, chosen, &parent_cand) &&
                           same_candidate(record->cand, parent_cand);
      if (!matched) {
        ++result.stats.inline_proofs;
        const AtpgResult verdict =
            prove_local(atpg, sat, base.proof.engine, chosen);
        if (verdict != AtpgResult::kUntestable) {
          ++result.stats.proof_rejected;
          continue;
        }
      }
      ++result.stats.proved_by_class[static_cast<std::size_t>(chosen.cls)];

      AppliedSub applied;
      const ApplyStatus status = checked_apply(
          journal, chosen, resync,
          base.guard.signature_check ? &guard : nullptr,
          /*check_invariants=*/false, &applied);
      if (status == ApplyStatus::kApplyFailed) {
        ++result.stats.stale;
        continue;
      }
      if (status == ApplyStatus::kGuardFailed) {
        ++result.stats.guard_rollbacks;
        // A rollback failure means the local journal is corrupted: nothing
        // from this window can be trusted — abandon it without commits.
        if (!undo_last(journal, resync)) {
          result.commits.clear();
          return result;
        }
        continue;
      }

      if (matched) {
        map_inserted_gate(to_parent, applied.new_gate,
                          record->applied.new_gate);
        ++replay_cursor;
      }
      result.commits.push_back(WindowCommit{chosen, applied});
      ++performed;
      progress = true;
    }
    if (!progress) break;
  }

  window_span.arg("commits", static_cast<long long>(result.commits.size()));
  return result;
}

}  // namespace powder
