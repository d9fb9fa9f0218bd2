#include "opt/funcred.hpp"

#include <span>
#include <unordered_map>

#include "opt/substitution.hpp"
#include "util/check.hpp"

namespace powder {
namespace {

/// FNV-1a over a signature's words — the same construction the candidate
/// index uses, so funcred groups exactly the signals the harvest would.
std::uint64_t words_hash(std::span<const std::uint64_t> words, bool invert) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint64_t w : words) {
    if (invert) w = ~w;
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
  return h;
}

bool words_equal(std::span<const std::uint64_t> a,
                 std::span<const std::uint64_t> b, bool invert_b) {
  for (std::size_t w = 0; w < a.size(); ++w)
    if (a[w] != (invert_b ? ~b[w] : b[w])) return false;
  return true;
}

}  // namespace

FuncredStats functional_reduction(Netlist& netlist, Simulator& sim,
                                  SubstJournal& journal,
                                  const FuncredHooks& hooks,
                                  std::vector<FuncredCommit>* commits) {
  POWDER_CHECK(hooks.prove != nullptr);
  FuncredStats stats;
  const std::function<void()> resync = [&]() {
    sim.refresh();
    if (hooks.resync) hooks.resync();
  };

  for (int round = 0;; ++round) {
    stats.rounds = round + 1;
    sim.refresh();

    // Live signals (PIs + cells) ascending, with signature hashes of both
    // phases. Buckets inherit the ascending order, making the lowest-id
    // member of every signature class its canonical representative.
    std::vector<GateId> signals;
    for (GateId g = 0; g < netlist.num_slots(); ++g) {
      if (!netlist.alive(g)) continue;
      const GateKind kind = netlist.kind(g);
      if (kind == GateKind::kInput || kind == GateKind::kCell)
        signals.push_back(g);
    }
    std::unordered_map<std::uint64_t, std::vector<GateId>> buckets;
    std::unordered_map<GateId, std::uint64_t> inv_hash;
    for (const GateId g : signals) {
      const auto words = sim.value(g);
      buckets[words_hash(words, false)].push_back(g);
      inv_hash[g] = words_hash(words, true);
    }

    int merges_this_round = 0;
    int ordinal = 0;
    for (const GateId g : signals) {
      // Only cell stems with fanout can be merged away.
      if (!netlist.alive(g) || netlist.kind(g) != GateKind::kCell) continue;
      if (netlist.fanouts(g).empty()) continue;

      // Nominate the lowest-id earlier signal with an equal (preferred) or
      // complementary signature. Buckets are stale after a mid-round merge;
      // the exact word compare below re-checks against fresh values. A
      // representative inside the target's transitive fanout is excluded —
      // rewiring g's sinks to it would close a combinational cycle (the
      // same exclusion the harvest applies via its forbidden region).
      GateId rep = kNullGate;
      bool invert = false;
      std::vector<std::uint8_t> tfo_flags;
      const auto in_tfo = [&](GateId e) {
        if (tfo_flags.empty()) {
          tfo_flags.assign(netlist.num_slots(), 0);
          tfo_flags[g] = 1;
          for (const GateId t : netlist.tfo(g)) tfo_flags[t] = 1;
        }
        return tfo_flags[e] != 0;
      };
      const auto pick = [&](std::uint64_t h, bool inv) {
        const auto it = buckets.find(h);
        if (it == buckets.end()) return;
        for (const GateId e : it->second) {
          if (e >= g) break;
          if (rep != kNullGate && e >= rep) break;
          if (!netlist.alive(e)) continue;
          if (in_tfo(e)) continue;
          rep = e;
          invert = inv;
          break;
        }
      };
      const auto g_words = sim.value(g);
      pick(words_hash(g_words, false), false);
      pick(inv_hash[g], true);
      if (rep == kNullGate) continue;

      // An inverted merge materializes INV(rep) for g's sinks; if g already
      // *is* a lone inverter on rep the rewrite is an identity that would
      // re-nominate its own replacement every round, forever — skip it.
      if (invert) {
        const auto& fi = netlist.fanins(g);
        if (fi.size() == 1 && fi[0] == rep) {
          const TruthTable& f =
              netlist.library().cell(netlist.cell_id(g)).function;
          if (f.num_vars() == 1 && f.bit(0) && !f.bit(1)) continue;
        }
      }

      CandidateSub cand;
      cand.cls = ResubClass::kFuncRed;
      cand.target = g;
      cand.rep = ReplacementFunction::signal(rep, invert);
      if (!substitution_still_valid(netlist, cand)) continue;
      if (!words_equal(g_words, sim.value(rep), invert)) {
        ++stats.sim_rejected;  // hash collision or stale bucket
        continue;
      }

      ++stats.pairs_tested;
      if (!hooks.prove(cand)) {
        ++stats.proof_rejected;
        continue;
      }

      // An apply failure means the merge raced with an earlier merge's
      // sweep: proven but stale, so it is skipped.
      AppliedSub applied;
      const ApplyStatus status = checked_apply(
          journal, cand, resync, hooks.guard, /*check_invariants=*/false,
          &applied);
      if (status == ApplyStatus::kApplyFailed) continue;
      if (status == ApplyStatus::kGuardFailed) {
        ++stats.guard_rollbacks;
        if (!undo_last(journal, resync))
          throw CheckError("funcred: rolling back a guard-rejected merge "
                           "failed (corrupted journal)");
        continue;
      }

      const FuncredCommit commit{cand, applied, round, ordinal};
      if (hooks.on_commit) hooks.on_commit(commit);
      if (commits != nullptr) commits->push_back(commit);
      ++ordinal;
      ++stats.merged;
      ++merges_this_round;
    }

    if (merges_this_round == 0) break;
  }
  return stats;
}

}  // namespace powder
