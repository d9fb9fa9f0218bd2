#pragma once
// Candidate-substitution harvesting via fault-simulation signatures.
//
// For every target site the simulator provides (a) the signal's signature
// over the sampled patterns and (b) its observability mask (patterns where
// flipping it changes some primary output). A source signal b is a
// candidate replacement when its signature agrees with the target's on
// every *observable* pattern — i.e., the sampled evidence is consistent
// with b being a permissible function of the target's location. Candidates
// are later *proved* (or refuted) by the ATPG checker; this stage only has
// to be sound-for-rejection and cheap.
//
// Pair candidates (OS3/IS3) are enumerated over a bounded local pool to
// keep the quadratic step affordable, mirroring the windowed clause
// analysis of the TOS implementation.
//
// When a ThreadPool is supplied, harvesting runs as three passes — a
// parallel observability pass, a serial RNG pre-draw, and a parallel
// signature-bucket matching pass over per-site slices — that together
// reproduce the serial harvest bit-for-bit (same candidates, same order,
// same RNG stream) at any thread count.
//
// The finder is persistent across optimization iterations: it subscribes
// to the netlist delta bus (membership changes) and drains the simulator's
// refreshed-gate accumulator (signature changes), and find() re-hashes
// only the gates dirtied since the previous harvest. The maintained index
// is structurally identical to a fresh rebuild — signal list ascending,
// signature buckets sorted — so a persistent finder with the same RNG
// stream returns bit-identical candidates.

#include <array>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "opt/power_gain.hpp"
#include "opt/substitution.hpp"
#include "power/power.hpp"
#include "util/rng.hpp"
#include "util/stamp_set.hpp"
#include "util/thread_pool.hpp"

namespace powder {

class TraceSession;

/// Knobs of the generalized resubstitution framework: how far beyond the
/// paper's pair classes the harvest reaches, and whether the
/// functional-reduction pre-pass runs before the greedy loop.
struct ResubOptions {
  bool enable_three_subs = true;
  int three_sub_b_pool = 20;    ///< first operands tried for OS3/IS3
  int max_three_per_target = 6;
  /// Maximum divisor-set size harvested. 2 = the paper's classes only;
  /// k >= 3 additionally harvests OSK/ISK candidates (new k-input gates)
  /// up to min(max_divisors, largest library arity) divisors.
  int max_divisors = 2;
  int ksub_b_pool = 10;         ///< divisor pool prefix for OSK/ISK tuples
  int max_k_per_target = 4;     ///< OSK/ISK candidates kept per site
  /// Run the functional-reduction pre-pass (signature-grouped equivalence
  /// merging) before the greedy loop.
  bool funcred = false;
};

struct CandidateOptions {
  int local_pool_size = 64;     ///< structural-neighborhood sources/target
  int random_pool_size = 24;    ///< extra random sources/target
  int max_candidates = 800;     ///< global cap, best preselect gain first
  bool allow_constants = true;  ///< replace unobservable signals by constants
  ResubOptions resub;           ///< generalized-resubstitution knobs
};

/// The OS3/IS3 pair kernel. One word pass over a divisor pair (b, c)
/// yields its minterm occupancy over the observable patterns: bit m of
/// need1 (need0) is set when minterm m = b + 2c occurs on a pattern where
/// the target is 1 (0). A two-input function f, as a 4-bit table (bit m =
/// f at minterm m), agrees with the target on every observable pattern iff
/// it is 0 on need0 and 1 on need1 — so the pass replaces one word
/// evaluation per cell, and stops as soon as no cell can fit any more.
class PairMatcher {
 public:
  struct Cell {
    CellId id;
    std::uint8_t f4;
  };

  /// Matches against `cells`, in the given order.
  explicit PairMatcher(std::vector<Cell> cells = {});
  /// The library's two-input cells in library order, minus the degenerate
  /// ones (constant or single-input: the 2-signal pass covers them).
  static PairMatcher for_library(const CellLibrary& lib);

  const std::vector<Cell>& cells() const { return cells_; }

  /// Occupancy key need0 << 4 | need1 of (b, c), where `on` = target & obs
  /// and `off` = ~target & obs word-wise; -1 once no cell can fit.
  int occupancy(std::span<const std::uint64_t> b,
                std::span<const std::uint64_t> c,
                std::span<const std::uint64_t> on,
                std::span<const std::uint64_t> off) const;

  /// Does the 4-bit function `f4` fit the occupancy `key`?
  static bool fits(unsigned f4, unsigned key) {
    return (f4 & (key >> 4)) == 0 && (key & 0xFu & ~f4) == 0;
  }

 private:
  std::vector<Cell> cells_;
  std::array<bool, 256> viable_{};  ///< [key]: some cell fits key
};

class CandidateFinder final : public NetlistObserver {
 public:
  CandidateFinder(const Netlist& netlist, const PowerModel& estimator,
                  CandidateOptions options = {}, std::uint64_t seed = 1,
                  ThreadPool* pool = nullptr);
  ~CandidateFinder() override;
  CandidateFinder(const CandidateFinder&) = delete;
  CandidateFinder& operator=(const CandidateFinder&) = delete;

  /// Harvests candidates, with pg_a/pg_b filled, sorted by decreasing
  /// preselection gain and truncated to max_candidates. Refreshes the
  /// signature index first (requires a clean simulator).
  std::vector<CandidateSub> find();

  /// Restarts the RNG stream (one reseed per optimization iteration keeps
  /// the harvest identical to a freshly constructed finder).
  void reseed(std::uint64_t seed) { rng_ = Rng(seed); }

  /// Attaches a trace session (borrowed, may be null). Parallel harvest
  /// passes then emit one "harvest_shard" span per worker shard, which is
  /// what makes load imbalance across sites visible in Perfetto.
  void set_trace(TraceSession* trace) { trace_ = trace; }

  /// Delta-bus subscription: accumulates membership changes (not for
  /// users; signature changes arrive via the simulator's drain).
  void on_delta(const NetlistDelta& delta) override;

  // Diagnostics for the last find(): gates re-hashed by the index refresh,
  // whether that refresh was a full rebuild, and the index size.
  std::size_t last_refresh_count() const { return last_refresh_count_; }
  bool last_refresh_full() const { return last_refresh_full_; }
  std::size_t index_size() const { return signal_gates_.size(); }
  /// Candidates dropped by the max_candidates cap in the last find().
  /// Non-zero means the harvest was NOT full coverage of the netlist.
  std::size_t last_truncated() const { return last_truncated_; }

 private:
  /// One harvesting site: a stem (no branch) or a single fanout branch.
  struct Site {
    GateId target{};
    std::optional<FanoutRef> branch;
  };

  /// Pass-1 result for a site: everything derivable without touching the
  /// shared RNG.
  struct SitePrep {
    std::vector<std::uint64_t> obs;
    bool skip = false;  ///< site is done after the (optional) constant cand
    std::optional<CandidateSub> const_cand;
  };

  const Netlist* netlist_;
  const PowerModel* estimator_;
  const Simulator* sim_;
  CandidateOptions options_;
  Rng rng_;
  ThreadPool* pool_;
  TraceSession* trace_ = nullptr;

  PairMatcher pair_matcher_;  // OS3/IS3 kernel over the library's cells
  std::vector<GateId> signal_gates_;  // live PIs + cells, ascending
  // Global equivalence index: hash of the value signature (and of its
  // complement) -> signals. Catches functionally identical logic anywhere
  // in the circuit, far beyond the structural neighborhood. Buckets are
  // kept sorted ascending (the fresh-build order) across incremental
  // updates.
  std::unordered_map<std::uint64_t, std::vector<GateId>> by_signature_;
  std::vector<std::uint64_t> sig_hash_, inv_sig_hash_;
  std::vector<std::uint8_t> in_index_;  // gate currently in the index?

  // Epoch-dirty gates accumulated from the delta bus, plus the refresh
  // bookkeeping of the last find().
  bool pending_full_ = false;
  std::vector<GateId> pending_;
  std::vector<std::uint8_t> pending_flag_;
  std::size_t last_refresh_count_ = 0;
  bool last_refresh_full_ = true;
  std::size_t last_truncated_ = 0;

  void rebuild_index();
  void refresh_index();
  void rehash_gate(GateId g);
  void index_insert(GateId g);
  void index_erase(GateId g);

  /// Runs fn(i) for every site index, sharded across the pool when one is
  /// attached (shards are claimed dynamically for load balance).
  void for_sites(std::size_t n, const std::function<void(std::size_t)>& fn);

  SitePrep prepare_site(GateId target, const FanoutRef* branch) const;
  std::vector<GateId> build_pool(
      GateId around, const StampSet& forbidden,
      std::span<const std::size_t> random_draws) const;
  void match_site(GateId target, const FanoutRef* branch, const SitePrep& prep,
                  std::span<const std::size_t> random_draws,
                  std::vector<CandidateSub>* out) const;
};

}  // namespace powder
