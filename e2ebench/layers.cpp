#include "layers.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>

#include "clock.hpp"
#include "opt/candidates.hpp"
#include "opt/power_gain.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"
#include "window/extract.hpp"
#include "window/partition.hpp"
#include "window/window_optimizer.hpp"
#include "workload.hpp"

namespace powder::e2e {

namespace {

double span_s(const TraceEvent& e) {
  return static_cast<double>(e.dur_ns) * 1e-9;
}

/// Time covered by the union of the [begin, end) intervals in `spans`.
std::uint64_t covered_ns(
    std::vector<std::pair<std::uint64_t, std::uint64_t>> spans) {
  std::sort(spans.begin(), spans.end());
  std::uint64_t covered = 0, reach = 0;
  for (const auto& [b, e] : spans) {
    const std::uint64_t from = std::max(b, reach);
    if (e > from) covered += e - from;
    reach = std::max(reach, e);
  }
  return covered;
}

}  // namespace

void TraceLedger::add(TraceSession& session) {
  session.drain();
  const auto& events = session.merged();
  dropped += static_cast<long>(session.dropped());

  const long long untestable = static_cast<long long>(AtpgResult::kUntestable);
  const long long aborted = static_cast<long long>(AtpgResult::kAborted);
  std::optional<std::uint32_t> main_tid;
  for (const auto& te : events) {
    const TraceEvent& e = te.event;
    if (e.ph != 'X') continue;
    const std::string_view name = e.name;
    if (name == "optimize") {
      optimize_s += span_s(e);
      main_tid = te.tid;
    } else if (name == "harvest") {
      harvest_s += span_s(e);
    } else if (name == "delay_check") {
      delay_check_s += span_s(e);
    } else if (name == "sim_resim_incremental") {
      sim_incremental_s += span_s(e);
      ++sim_incremental_calls;
    } else if (name == "journal_commit") {
      journal_commit_s += span_s(e);
    } else if (name == "podem_check") {
      ++podem_spans;
      podem_untestable += e.arg1 == untestable ? 1 : 0;
      podem_aborted += e.arg1 == aborted ? 1 : 0;
    }
  }
  if (!main_tid.has_value()) return;

  // Self time of the iteration spans: each iteration's duration minus the
  // union of the commit thread's other spans inside it. Worker-thread spans
  // do not count, since they overlap the commit thread's own work.
  std::vector<const TraceEvent*> mine;
  for (const auto& te : events)
    if (te.tid == *main_tid && te.event.ph == 'X') mine.push_back(&te.event);
  for (const TraceEvent* it : mine) {
    if (std::string_view(it->name) != "iteration") continue;
    const std::uint64_t begin = it->ts_ns, end = it->ts_ns + it->dur_ns;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> inside;
    for (const TraceEvent* e : mine)
      if (e != it && e->ts_ns >= begin && e->ts_ns + e->dur_ns <= end)
        inside.emplace_back(e->ts_ns, e->ts_ns + e->dur_ns);
    unspanned_s +=
        static_cast<double>(it->dur_ns - covered_ns(std::move(inside))) * 1e-9;
  }
}

double time_to_fraction(const std::string& progress_ndjson,
                        double initial_power, double final_power,
                        double fraction) {
  const double target =
      initial_power - fraction * (initial_power - final_power);
  std::istringstream lines(progress_ndjson);
  std::string line;
  double last_commit_ms = 0.0;
  while (std::getline(lines, line)) {
    std::string error;
    const auto v = json_parse(line, &error);
    if (v == nullptr) continue;
    const JsonValue* event = v->find_string("event");
    if (event == nullptr || event->as_string() != "commit") continue;
    const double t_ms = v->find_number("t_ms")->as_number();
    last_commit_ms = t_ms;
    if (v->find_number("power")->as_number() <= target) return t_ms * 1e-3;
  }
  return last_commit_ms * 1e-3;
}

void probe_layers(const Netlist& input, const PowderOptions& opt,
                  ProbeTimes* out) {
  Netlist nl = input;
  const std::vector<double> probs = expand_pi_probs(nl, opt.pi_probs);
  ThreadPool pool(opt.threads - 1);
  Simulator sim(nl, opt.num_patterns, probs, opt.seed);
  sim.set_thread_pool(&pool);
  double t0 = wall_now();
  sim.resimulate_all();
  out->full_resim_s += wall_now() - t0;

  PowerEstimator est(&sim);
  t0 = wall_now();
  est.estimate_all();
  out->estimate_s += wall_now() - t0;

  GlitchOptions g = opt.glitch;
  if (g.stimulus.prob.empty()) g.stimulus.prob = probs;
  t0 = wall_now();
  TimedPowerModel timed(&est, std::move(g));  // the constructor refreshes
  out->timed_refresh_s += wall_now() - t0;
  PowerModel& model = opt.power_model == PowerModelKind::kTimed
                          ? static_cast<PowerModel&>(timed)
                          : static_cast<PowerModel&>(est);

  t0 = wall_now();
  (void)analyze_timing(nl);
  out->sta_s += wall_now() - t0;

  CandidateFinder finder(nl, model, opt.candidates, opt.seed, &pool);
  t0 = wall_now();
  std::vector<CandidateSub> cands = finder.find();
  out->find_s += wall_now() - t0;

  // The optimizer's first shortlist: best PG_A + PG_B first.
  for (CandidateSub& c : cands) {
    c.pg_a = compute_pg_a(nl, model, c);
    c.pg_b = compute_pg_b(nl, model, c);
  }
  std::stable_sort(cands.begin(), cands.end(),
                   [](const CandidateSub& a, const CandidateSub& b) {
                     return a.preselect_gain() > b.preselect_gain();
                   });
  cands.resize(std::min(cands.size(), static_cast<std::size_t>(opt.shortlist)));
  AtpgChecker atpg(nl, opt.proof.atpg);
  SatChecker sat(nl, opt.proof.sat);
  for (const CandidateSub& c : cands) {
    t0 = wall_now();
    (void)compute_pg_c(nl, model, c);
    out->pg_c_s.push_back(wall_now() - t0);
    t0 = wall_now();
    (void)atpg.check_replacement(c.site(), c.rep);
    out->atpg_s.push_back(wall_now() - t0);
    t0 = wall_now();
    (void)sat.check_replacement(c.site(), c.rep);
    out->sat_s.push_back(wall_now() - t0);
  }
}

WindowProbe probe_window(const Netlist& input, const PowderOptions& opt) {
  WindowProbe p;
  Netlist nl = input;
  PowderOptions base = opt;
  base.window.mode = WindowMode::kWindowed;
  const std::vector<double> probs = expand_pi_probs(nl, opt.pi_probs);
  Simulator sim(nl, opt.num_patterns, probs, opt.seed);
  PowerEstimator est(&sim);

  double t0 = wall_now();
  const auto plans = partition_windows(nl, base.window);
  p.partition_s = wall_now() - t0;
  if (plans.empty()) return p;

  t0 = wall_now();
  WindowExtraction ex = extract_window(nl, est, plans.front(), 0);
  p.extract_s = wall_now() - t0;

  const double before =
      model_power(ex.local, ex.input_probs, opt, opt.power_model);
  WindowRunOptions wo;
  wo.base = &base;
  wo.seed = window_seed(opt.seed, 0);
  t0 = wall_now();
  (void)optimize_window(ex, wo);
  p.optimize_s = wall_now() - t0;
  p.gain = before - model_power(ex.local, ex.input_probs, opt, opt.power_model);
  return p;
}

}  // namespace powder::e2e
