#include "opt/greedy.hpp"

#include <algorithm>
#include <cstddef>

#include "opt/power_gain.hpp"
#include "opt/powder.hpp"
#include "util/check.hpp"

namespace powder {

OutputGuard::OutputGuard(const Simulator& sim)
    : sim_(&sim), outputs_(sim.netlist().outputs()) {
  for (const GateId o : outputs_) {
    const auto words = sim.value(o);
    snapshot_.insert(snapshot_.end(), words.begin(), words.end());
  }
}

bool OutputGuard::ok() const {
  std::size_t k = 0;
  for (const GateId o : outputs_)
    for (const std::uint64_t w : sim_->value(o))
      if (w != snapshot_[k++]) return false;
  return true;
}

std::optional<CandidateSub> select_best(
    const Netlist& nl, const PowerModel& model,
    std::vector<CandidateSub>& cands, const PowderOptions& options,
    const std::function<void(const CandidateSub&)>& on_drop,
    const std::function<bool(const CandidateSub&)>& keep) {
  const bool area_mode = options.objective == Objective::kArea;
  std::vector<std::size_t> order;
  std::vector<double> metric(cands.size(), 0.0);
  // One order-preserving compaction: survivors slide down over the dropped
  // candidates, which are reported in index order.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    CandidateSub& c = cands[i];
    if ((keep && !keep(c)) || !substitution_still_valid(nl, c)) {
      on_drop(c);
      continue;
    }
    c.pg_a = compute_pg_a(nl, model, c);
    c.pg_b = compute_pg_b(nl, model, c);
    metric[kept] = area_mode ? compute_area_gain(nl, c) : c.preselect_gain();
    if (kept != i) cands[kept] = std::move(c);
    order.push_back(kept++);
  }
  cands.erase(cands.begin() + static_cast<std::ptrdiff_t>(kept), cands.end());
  if (order.empty()) return std::nullopt;
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return metric[x] > metric[y];
  });
  std::size_t best = cands.size();
  double best_gain = options.min_gain;
  if (area_mode) {
    // Area gain is exact — no shortlist re-estimation needed.
    if (metric[order[0]] > best_gain) best = order[0];
  } else {
    const std::size_t shortlist = std::min<std::size_t>(
        order.size(), static_cast<std::size_t>(options.shortlist));
    for (std::size_t k = 0; k < shortlist; ++k) {
      CandidateSub& cand = cands[order[k]];
      cand.pg_c = compute_pg_c(nl, model, cand);
      if (cand.total_gain() > best_gain) {
        best_gain = cand.total_gain();
        best = order[k];
      }
    }
  }
  if (best == cands.size()) return std::nullopt;  // nothing left that helps
  CandidateSub chosen = std::move(cands[best]);
  cands.erase(cands.begin() + static_cast<std::ptrdiff_t>(best));
  return chosen;
}

bool presim_refutes(const Simulator& sim, const CandidateSub& cand) {
  const std::vector<std::uint64_t> words = replacement_words(sim, cand.rep);
  const FanoutRef* branch = cand.branch.has_value() ? &*cand.branch : nullptr;
  const auto diff = sim.output_diff_with_replacement(cand.target, branch, words);
  return std::any_of(diff.begin(), diff.end(),
                     [](std::uint64_t w) { return w != 0; });
}

ApplyStatus checked_apply(SubstJournal& journal, const CandidateSub& cand,
                          const std::function<void()>& resync,
                          const OutputGuard* guard, bool check_invariants,
                          AppliedSub* applied) {
  try {
    *applied = journal.apply(cand);
  } catch (const CheckError&) {
    // The apply validates before mutating: the netlist is untouched.
    return ApplyStatus::kApplyFailed;
  }
  resync();
  if (check_invariants) journal.netlist().check_consistency();
  if (guard != nullptr && !guard->ok()) return ApplyStatus::kGuardFailed;
  return ApplyStatus::kApplied;
}

bool undo_last(SubstJournal& journal, const std::function<void()>& resync) {
  try {
    journal.rollback_last();
    resync();
    return true;
  } catch (const CheckError&) {
    resync();
    return false;
  }
}

}  // namespace powder
