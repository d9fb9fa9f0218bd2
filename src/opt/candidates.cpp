#include "opt/candidates.hpp"

#include <span>

#include <algorithm>
#include <functional>

#include "trace/trace.hpp"
#include "util/check.hpp"

namespace powder {

namespace {

/// True if (a ^ b) & mask == 0 word-wise.
bool agrees(std::span<const std::uint64_t> a, std::span<const std::uint64_t> b,
            std::span<const std::uint64_t> mask, bool invert_b) {
  for (std::size_t w = 0; w < a.size(); ++w) {
    const std::uint64_t bv = invert_b ? ~b[w] : b[w];
    if ((a[w] ^ bv) & mask[w]) return false;
  }
  return true;
}

bool all_zero(std::span<const std::uint64_t> mask) {
  for (std::uint64_t w : mask)
    if (w) return false;
  return true;
}

}  // namespace

PairMatcher::PairMatcher(std::vector<Cell> cells) : cells_(std::move(cells)) {
  for (unsigned key = 0; key < viable_.size(); ++key)
    for (const Cell& cell : cells_)
      if (fits(cell.f4, key)) viable_[key] = true;
}

PairMatcher PairMatcher::for_library(const CellLibrary& lib) {
  std::vector<Cell> cells;
  for (CellId id : lib.two_input_cells()) {
    const TruthTable& f = lib.cell(id).function;
    if (!f.depends_on(0) || !f.depends_on(1)) continue;
    unsigned f4 = 0;
    for (unsigned m = 0; m < 4; ++m)
      f4 |= static_cast<unsigned>(f.bit(m)) << m;
    cells.push_back(Cell{id, static_cast<std::uint8_t>(f4)});
  }
  return PairMatcher(std::move(cells));
}

int PairMatcher::occupancy(std::span<const std::uint64_t> b,
                           std::span<const std::uint64_t> c,
                           std::span<const std::uint64_t> on,
                           std::span<const std::uint64_t> off) const {
  unsigned need0 = 0, need1 = 0;
  for (std::size_t w = 0; w < b.size(); ++w) {
    const std::uint64_t bw = b[w], cw = c[w];
    const std::uint64_t m0 = ~(bw | cw), m1 = bw & ~cw, m2 = ~bw & cw,
                        m3 = bw & cw;
    need1 |= static_cast<unsigned>((m0 & on[w]) != 0) |
             static_cast<unsigned>((m1 & on[w]) != 0) << 1 |
             static_cast<unsigned>((m2 & on[w]) != 0) << 2 |
             static_cast<unsigned>((m3 & on[w]) != 0) << 3;
    need0 |= static_cast<unsigned>((m0 & off[w]) != 0) |
             static_cast<unsigned>((m1 & off[w]) != 0) << 1 |
             static_cast<unsigned>((m2 & off[w]) != 0) << 2 |
             static_cast<unsigned>((m3 & off[w]) != 0) << 3;
    if (!viable_[need0 << 4 | need1]) return -1;
  }
  return static_cast<int>(need0 << 4 | need1);
}

CandidateFinder::CandidateFinder(const Netlist& netlist,
                                 const PowerModel& estimator,
                                 CandidateOptions options, std::uint64_t seed,
                                 ThreadPool* pool)
    : netlist_(&netlist),
      estimator_(&estimator),
      sim_(&estimator.simulator()),
      options_(options),
      rng_(seed),
      pool_(pool),
      pair_matcher_(PairMatcher::for_library(netlist.library())) {
  rebuild_index();
  netlist_->attach_observer(this);
}

CandidateFinder::~CandidateFinder() { netlist_->detach_observer(this); }

void CandidateFinder::rehash_gate(GateId g) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  std::uint64_t hi_hash = 0xCBF29CE484222325ull;
  for (std::uint64_t w : sim_->value(g)) {
    h = (h ^ w) * 0x100000001B3ull;
    hi_hash = (hi_hash ^ ~w) * 0x100000001B3ull;
  }
  sig_hash_[g] = h;
  inv_sig_hash_[g] = hi_hash;
}

void CandidateFinder::rebuild_index() {
  const std::size_t n = netlist_->num_slots();
  signal_gates_.clear();
  by_signature_.clear();
  in_index_.assign(n, 0);
  sig_hash_.assign(n, 0);
  inv_sig_hash_.assign(n, 0);
  for (GateId g = 0; g < n; ++g)
    if (netlist_->alive(g) && netlist_->kind(g) != GateKind::kOutput) {
      signal_gates_.push_back(g);
      in_index_[g] = 1;
    }
  // Signature hashes for global-equivalence lookup (both phases). The hash
  // computation is sharded (disjoint writes per gate); bucket insertion
  // stays serial so bucket order is the deterministic signal_gates_ order.
  auto hash_range = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) rehash_gate(signal_gates_[i]);
  };
  if (pool_ != nullptr && !ThreadPool::in_parallel_region()) {
    pool_->parallel_for(signal_gates_.size(), 64, hash_range);
  } else {
    hash_range(0, signal_gates_.size());
  }
  for (GateId g : signal_gates_) by_signature_[sig_hash_[g]].push_back(g);
}

void CandidateFinder::index_erase(GateId g) {
  const auto bucket_it = by_signature_.find(sig_hash_[g]);
  POWDER_CHECK(bucket_it != by_signature_.end());
  std::vector<GateId>& bucket = bucket_it->second;
  const auto bit = std::find(bucket.begin(), bucket.end(), g);
  POWDER_CHECK(bit != bucket.end());
  bucket.erase(bit);
  if (bucket.empty()) by_signature_.erase(bucket_it);
  const auto sit =
      std::lower_bound(signal_gates_.begin(), signal_gates_.end(), g);
  POWDER_CHECK(sit != signal_gates_.end() && *sit == g);
  signal_gates_.erase(sit);
  in_index_[g] = 0;
}

void CandidateFinder::index_insert(GateId g) {
  rehash_gate(g);
  std::vector<GateId>& bucket = by_signature_[sig_hash_[g]];
  bucket.insert(std::lower_bound(bucket.begin(), bucket.end(), g), g);
  signal_gates_.insert(
      std::lower_bound(signal_gates_.begin(), signal_gates_.end(), g), g);
  in_index_[g] = 1;
}

void CandidateFinder::on_delta(const NetlistDelta& delta) {
  switch (delta.kind) {
    case DeltaKind::kGateAdded:
    case DeltaKind::kGateRevived:
    case DeltaKind::kGateRemoved: {
      if (pending_full_) return;
      if (pending_flag_.size() < netlist_->num_slots())
        pending_flag_.resize(netlist_->num_slots(), 0);
      if (!pending_flag_[delta.gate]) {
        pending_flag_[delta.gate] = 1;
        pending_.push_back(delta.gate);
      }
      break;
    }
    case DeltaKind::kRebuilt:
      for (GateId g : pending_) pending_flag_[g] = 0;
      pending_.clear();
      pending_full_ = true;
      break;
    case DeltaKind::kFaninChanged:
    case DeltaKind::kCellChanged:
      // Membership is unchanged; the value dirt arrives through the
      // simulator's refreshed-gate drain.
      break;
  }
}

void CandidateFinder::refresh_index() {
  POWDER_CHECK_MSG(!sim_->pending(),
                   "candidate harvest on a stale simulator — refresh first");
  const Simulator::Refreshed drained = sim_->drain_refreshed();
  if (pending_full_ || drained.full) {
    rebuild_index();
    for (GateId g : pending_) pending_flag_[g] = 0;
    pending_.clear();
    pending_full_ = false;
    last_refresh_full_ = true;
    last_refresh_count_ = signal_gates_.size();
    return;
  }
  const std::size_t n = netlist_->num_slots();
  if (in_index_.size() < n) in_index_.resize(n, 0);
  if (sig_hash_.size() < n) {
    sig_hash_.resize(n, 0);
    inv_sig_hash_.resize(n, 0);
  }
  if (pending_flag_.size() < n) pending_flag_.resize(n, 0);
  for (GateId g : drained.gates) {
    if (!pending_flag_[g]) {
      pending_flag_[g] = 1;
      pending_.push_back(g);
    }
  }
  last_refresh_full_ = false;
  last_refresh_count_ = pending_.size();
  for (GateId g : pending_) {
    pending_flag_[g] = 0;
    // Erase-then-reinsert keeps the maintained index structurally
    // identical to a fresh rebuild (ascending signal list, sorted
    // buckets), so harvests stay bit-identical.
    if (in_index_[g]) index_erase(g);
    if (netlist_->alive(g) && netlist_->kind(g) != GateKind::kOutput)
      index_insert(g);
  }
  pending_.clear();
}

void CandidateFinder::for_sites(std::size_t n,
                                const std::function<void(std::size_t)>& fn) {
  if (pool_ == nullptr || ThreadPool::in_parallel_region() || n < 2) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // More shards than lanes: shards are claimed dynamically, which balances
  // the very uneven per-site cost (a few sites dominate the harvest).
  const int shards = static_cast<int>(std::min<std::size_t>(
      n, static_cast<std::size_t>(pool_->parallelism()) * 8));
  pool_->for_shards(shards, [&](int shard, int num_shards) {
    TraceSpan span(trace_, "harvest_shard", "harvest");
    const std::size_t lo =
        n * static_cast<std::size_t>(shard) / static_cast<std::size_t>(num_shards);
    const std::size_t hi = n * (static_cast<std::size_t>(shard) + 1) /
                           static_cast<std::size_t>(num_shards);
    span.arg("shard", shard);
    span.arg("sites", static_cast<long long>(hi - lo));
    for (std::size_t i = lo; i < hi; ++i) fn(i);
  });
}

std::vector<GateId> CandidateFinder::build_pool(
    GateId around, const StampSet& forbidden,
    std::span<const std::size_t> random_draws) const {
  std::vector<GateId> pool;
  ScratchSet seen(netlist_->num_slots());
  auto try_add = [&](GateId g) {
    if (seen.contains(g) || forbidden.contains(g) || !netlist_->alive(g))
      return false;
    seen.insert(g);
    if (netlist_->kind(g) == GateKind::kOutput) return false;
    pool.push_back(g);
    return true;
  };
  // Global equivalence hits first: signals whose signature matches the
  // target's (either phase) anywhere in the circuit.
  for (std::uint64_t h : {sig_hash_[around], inv_sig_hash_[around]}) {
    if (const auto it = by_signature_.find(h); it != by_signature_.end())
      for (GateId g : it->second)
        if (g != around) try_add(g);
  }
  // Breadth-first over the undirected netlist graph starting at the target;
  // nearby signals share support and are the most likely permissible
  // replacements (and the cheapest to wire).
  std::vector<GateId> frontier{around};
  ScratchSet visited(netlist_->num_slots());
  visited.insert(around);
  while (!frontier.empty() &&
         static_cast<int>(pool.size()) < options_.local_pool_size) {
    std::vector<GateId> next;
    for (GateId g : frontier) {
      auto visit = [&](GateId n) {
        if (!visited.insert(n)) return;
        try_add(n);
        next.push_back(n);
      };
      for (GateId fi : netlist_->fanins(g)) visit(fi);
      for (const FanoutRef& br : netlist_->fanouts(g)) visit(br.gate);
      if (static_cast<int>(pool.size()) >= options_.local_pool_size) break;
    }
    frontier = std::move(next);
  }
  // A few random signals for diversity (finds global equivalences the
  // neighborhood misses). The indices were pre-drawn serially in site order
  // so the RNG stream is identical to the serial harvest.
  for (std::size_t idx : random_draws) try_add(signal_gates_[idx]);
  return pool;
}

CandidateFinder::SitePrep CandidateFinder::prepare_site(
    GateId target, const FanoutRef* branch) const {
  SitePrep prep;
  const auto sig_a = sim_->value(target);
  prep.obs = branch == nullptr ? sim_->stem_observability(target)
                               : sim_->branch_observability(target, *branch);

  auto make_base = [&]() {
    CandidateSub cand;
    cand.target = target;
    if (branch != nullptr) {
      cand.branch = *branch;
      cand.cls = SubstClass::kIS2;
    } else {
      cand.cls = SubstClass::kOS2;
    }
    return cand;
  };

  // Constant replacement: permissible-by-evidence when the signal never
  // observably carries the other value (fully unobservable signals satisfy
  // both; pick the majority value so the dead cone keeps its polarity).
  if (options_.allow_constants) {
    bool can0 = true, can1 = true;
    for (std::size_t w = 0; w < prep.obs.size(); ++w) {
      if (sig_a[w] & prep.obs[w]) can0 = false;
      if (~sig_a[w] & prep.obs[w]) can1 = false;
      if (!can0 && !can1) break;
    }
    if (can0 || can1) {
      CandidateSub cand = make_base();
      const bool value =
          can0 && can1 ? estimator_->probability(target) >= 0.5 : can1;
      cand.rep = ReplacementFunction::constant(value);
      cand.pg_a = compute_pg_a(*netlist_, *estimator_, cand);
      cand.pg_b = compute_pg_b(*netlist_, *estimator_, cand);
      prep.const_cand = std::move(cand);
      if (all_zero(prep.obs)) prep.skip = true;  // nothing further here
    }
  } else if (all_zero(prep.obs)) {
    prep.skip = true;
  }
  return prep;
}

void CandidateFinder::match_site(GateId target, const FanoutRef* branch,
                                 const SitePrep& prep,
                                 std::span<const std::size_t> random_draws,
                                 std::vector<CandidateSub>* out) const {
  const int W = sim_->num_words();
  const auto sig_a = sim_->value(target);
  const std::vector<std::uint64_t>& obs = prep.obs;

  auto finish = [&](CandidateSub cand) {
    cand.pg_a = compute_pg_a(*netlist_, *estimator_, cand);
    cand.pg_b = compute_pg_b(*netlist_, *estimator_, cand);
    out->push_back(std::move(cand));
  };

  auto make_base = [&]() {
    CandidateSub cand;
    cand.target = target;
    if (branch != nullptr) {
      cand.branch = *branch;
      cand.cls = SubstClass::kIS2;
    } else {
      cand.cls = SubstClass::kOS2;
    }
    return cand;
  };

  // Forbidden region for sources: the faulty region of the site.
  ScratchSet forbidden(netlist_->num_slots());
  const GateId entry = branch == nullptr ? target : branch->gate;
  forbidden.insert(entry);
  for (GateId g : netlist_->tfo(entry)) forbidden.insert(g);
  forbidden.insert(target);  // substituting a by a is a no-op

  const std::vector<GateId> pool =
      build_pool(target, forbidden.set(), random_draws);

  // --- 2-signal substitutions -------------------------------------------
  for (GateId b : pool) {
    const auto sig_b = sim_->value(b);
    if (agrees(sig_a, sig_b, obs, /*invert_b=*/false)) {
      CandidateSub cand = make_base();
      cand.rep = ReplacementFunction::signal(b, false);
      finish(std::move(cand));
    } else if (agrees(sig_a, sig_b, obs, /*invert_b=*/true)) {
      CandidateSub cand = make_base();
      cand.rep = ReplacementFunction::signal(b, true);
      finish(std::move(cand));
    }
  }

  // --- 3-signal substitutions (new 2-input library gate) -----------------
  // One word pass per (b, c) pair yields the pair's minterm occupancy over
  // the observable patterns; every library cell is then tested against it
  // with two mask operations, in library order.
  if (!options_.resub.enable_three_subs) return;
  std::vector<std::uint64_t> on(static_cast<std::size_t>(W));
  std::vector<std::uint64_t> off(static_cast<std::size_t>(W));
  for (std::size_t w = 0; w < on.size(); ++w) {
    on[w] = sig_a[w] & obs[w];
    off[w] = ~sig_a[w] & obs[w];
  }
  int made = 0;
  const int b_limit = std::min<int>(options_.resub.three_sub_b_pool,
                                    static_cast<int>(pool.size()));
  for (int bi = 0; bi < b_limit && made < options_.resub.max_three_per_target;
       ++bi) {
    const GateId b = pool[static_cast<std::size_t>(bi)];
    const auto sig_b = sim_->value(b);
    for (GateId c : pool) {
      if (c == b) continue;
      const int key = pair_matcher_.occupancy(sig_b, sim_->value(c), on, off);
      if (key < 0) continue;
      for (const PairMatcher::Cell& pc : pair_matcher_.cells()) {
        if (!PairMatcher::fits(pc.f4, static_cast<unsigned>(key))) continue;
        CandidateSub cand = make_base();
        cand.cls = branch == nullptr ? SubstClass::kOS3 : SubstClass::kIS3;
        cand.rep = ReplacementFunction::two_input(
            b, c, netlist_->library().cell(pc.id).function);
        cand.new_cell = pc.id;
        finish(std::move(cand));
        if (++made >= options_.resub.max_three_per_target) break;
      }
      if (made >= options_.resub.max_three_per_target) break;
    }
  }

  // --- k-signal substitutions (new k-input library gate, k >= 3) ----------
  // Same signature-agreement filter as the pair classes, over ordered
  // divisor tuples from the (deterministic) pool. Every operand is drawn
  // from the ksub_b_pool prefix — unlike the 3-sub pass, letting the inner
  // operands range over the whole pool would cost pool^(k-1) tuples per
  // site, which is unaffordable at k >= 3 — with a per-site cap on top.
  // Word evaluation reuses the k-ary minterm expansion of
  // replacement_words.
  for (int k = 3; k <= options_.resub.max_divisors; ++k) {
    const auto& kcells = netlist_->library().cells_with_arity(k);
    if (kcells.empty()) continue;
    int kmade = 0;
    const int kb_limit = std::min<int>(options_.resub.ksub_b_pool,
                                       static_cast<int>(pool.size()));
    std::vector<GateId> divisors(static_cast<std::size_t>(k));
    std::vector<std::span<const std::uint64_t>> sigs(
        static_cast<std::size_t>(k));
    // Ordered combinations: divisor i+1 is drawn after divisor i in pool
    // order (cell pins are not symmetric in general, so every cell's own
    // function is evaluated against the tuple as-is; permutations of the
    // same tuple are reached via other tuples drawn later).
    std::vector<int> idx(static_cast<std::size_t>(k));
    auto eval_ok = [&](const TruthTable& f) {
      for (int w = 0; w < W; ++w) {
        std::uint64_t r = 0;
        const std::uint64_t minterms = 1ull << k;
        for (std::uint64_t m = 0; m < minterms; ++m) {
          if (!f.bit(m)) continue;
          std::uint64_t term = ~0ull;
          for (int v = 0; v < k; ++v) {
            const std::uint64_t dv =
                sigs[static_cast<std::size_t>(v)][static_cast<std::size_t>(w)];
            term &= ((m >> v) & 1) ? dv : ~dv;
          }
          r |= term;
        }
        if ((r ^ sig_a[static_cast<std::size_t>(w)]) &
            obs[static_cast<std::size_t>(w)])
          return false;
      }
      return true;
    };
    // Depth-first enumeration of index tuples over the kb_limit prefix with
    // all indices pairwise distinct, in lexicographic order — deterministic
    // for any thread count: the pool itself is thread-invariant.
    std::function<void(int)> enumerate = [&](int depth) {
      if (kmade >= options_.resub.max_k_per_target) return;
      if (depth == k) {
        for (CellId cell_id : kcells) {
          const Cell& cell = netlist_->library().cell(cell_id);
          const TruthTable& f = cell.function;
          bool degenerate = false;
          for (int v = 0; v < k; ++v)
            if (!f.depends_on(v)) degenerate = true;
          if (degenerate) continue;
          if (!eval_ok(f)) continue;
          CandidateSub cand = make_base();
          cand.cls = branch == nullptr ? SubstClass::kOSK : SubstClass::kISK;
          cand.rep = ReplacementFunction::cell(divisors, f);
          cand.new_cell = cell_id;
          finish(std::move(cand));
          if (++kmade >= options_.resub.max_k_per_target) return;
        }
        return;
      }
      for (int i = 0; i < kb_limit; ++i) {
        bool used = false;
        for (int d = 0; d < depth; ++d)
          if (idx[static_cast<std::size_t>(d)] == i) used = true;
        if (used) continue;
        idx[static_cast<std::size_t>(depth)] = i;
        divisors[static_cast<std::size_t>(depth)] =
            pool[static_cast<std::size_t>(i)];
        sigs[static_cast<std::size_t>(depth)] =
            sim_->value(pool[static_cast<std::size_t>(i)]);
        enumerate(depth + 1);
        if (kmade >= options_.resub.max_k_per_target) return;
      }
    };
    if (static_cast<int>(pool.size()) >= k) enumerate(0);
  }
}

std::vector<CandidateSub> CandidateFinder::find() {
  refresh_index();
  // Enumerate the sites in the serial harvest's order: for each signal, the
  // stem first, then every branch of multi-fanout stems.
  std::vector<Site> sites;
  for (GateId g : signal_gates_) {
    const std::span<const FanoutRef> fanouts = netlist_->fanouts(g);
    // Output substitutions: only cell stems (a PI cannot be replaced).
    if (netlist_->kind(g) == GateKind::kCell && !fanouts.empty())
      sites.push_back(Site{g, std::nullopt});
    // Input substitutions: individual branches of multi-fanout stems (the
    // paper regards single-fanout outputs as stem signals only).
    if (fanouts.size() > 1)
      for (const FanoutRef& br : fanouts) sites.push_back(Site{g, br});
  }

  // Pass 1 (parallel): observability masks, constant candidates, skip flags.
  std::vector<SitePrep> preps(sites.size());
  for_sites(sites.size(), [&](std::size_t i) {
    const Site& s = sites[i];
    preps[i] =
        prepare_site(s.target, s.branch ? &*s.branch : nullptr);
  });

  // Pass 2 (serial, site order): pre-draw the random pool indices so the
  // RNG stream matches the serial harvest exactly — it always drew
  // `random_pool_size` indices per non-skipped site, in site order.
  std::vector<std::vector<std::size_t>> draws(sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i) {
    if (preps[i].skip) continue;
    for (int k = 0; k < options_.random_pool_size && !signal_gates_.empty();
         ++k)
      draws[i].push_back(rng_.below(signal_gates_.size()));
  }

  // Pass 3 (parallel): pool construction + signature matching per site,
  // each site writing its own output slice.
  std::vector<std::vector<CandidateSub>> slices(sites.size());
  for_sites(sites.size(), [&](std::size_t i) {
    const Site& s = sites[i];
    std::vector<CandidateSub>& slice = slices[i];
    if (preps[i].const_cand) slice.push_back(*preps[i].const_cand);
    if (preps[i].skip) return;
    match_site(s.target, s.branch ? &*s.branch : nullptr, preps[i], draws[i],
               &slice);
  });

  // Rank light (gain, slice, position) keys instead of whole candidates,
  // then move only the kept ones. std::sort makes the same comparisons on
  // the keys as on the candidates, so the permutation — ties included — is
  // the one a sort of the concatenated slices would produce.
  struct Ranked {
    double gain;
    std::uint32_t slice, pos;
  };
  std::vector<Ranked> ranked;
  for (std::size_t i = 0; i < slices.size(); ++i)
    for (std::size_t j = 0; j < slices[i].size(); ++j)
      ranked.push_back(Ranked{slices[i][j].preselect_gain(),
                              static_cast<std::uint32_t>(i),
                              static_cast<std::uint32_t>(j)});
  std::sort(ranked.begin(), ranked.end(),
            [](const Ranked& x, const Ranked& y) { return x.gain > y.gain; });
  std::size_t keep = ranked.size();
  last_truncated_ = 0;
  if (static_cast<int>(ranked.size()) > options_.max_candidates) {
    keep = static_cast<std::size_t>(options_.max_candidates);
    last_truncated_ = ranked.size() - keep;
  }
  std::vector<CandidateSub> out;
  out.reserve(keep);
  for (std::size_t k = 0; k < keep; ++k)
    out.push_back(std::move(slices[ranked[k].slice][ranked[k].pos]));
  return out;
}

}  // namespace powder
