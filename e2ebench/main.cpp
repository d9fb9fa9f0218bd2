// End-to-end POWDER benchmark program (see NOTES.md for the method).
//
//   powder_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              --workdir <dir>
//
// Generates the workload's circuits from the seed, writes them as BLIF under
// --workdir, reads them back (the timed set-up), then optimizes them and
// checks every output. --trace 0 repeats the circuits for --seconds and
// prints the end-to-end metrics; --trace 1 runs each circuit untraced, then
// with the trace, metrics and progress sinks attached, then untraced again,
// probes each layer, and prints the per-layer metrics. The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "clock.hpp"
#include "layers.hpp"
#include "trace/progress.hpp"
#include "util/memstats.hpp"
#include "workload.hpp"

using namespace powder;
using namespace powder::e2e;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string workdir;
};

// Set-up takes milliseconds, so it is repeated and its median reported.
constexpr std::size_t kSetupMinRepeats = 31;
// Share of the end-to-end run spent repeating set-ups.
constexpr double kSetupShare = 0.04;

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// The run's bookkeeping of attempted and failed circuit optimizations.
struct Tally {
  long attempted = 0;
  long failed = 0;
  void fail(const std::string& why) {
    ++failed;
    std::fprintf(stderr, "FAILED: %s\n", why.c_str());
  }
};

/// One optimize() call on a copy of `input`. Returns nothing if the
/// optimizer threw.
struct Timed {
  Netlist output;
  PowderReport report;
  Outcome outcome;
  double wall_s = 0.0, cpu_s = 0.0;
};
std::optional<Timed> optimize_once(const Netlist& input,
                                   const PowderOptions& opt,
                                   const std::string& name, Tally* tally) {
  ++tally->attempted;
  Timed t{input, {}, {}};
  const double c0 = cpu_now(), t0 = wall_now();
  try {
    t.report = optimize(t.output, opt);
  } catch (const std::exception& e) {
    tally->fail(name + ": optimize threw: " + e.what());
    return std::nullopt;
  }
  t.wall_s = wall_now() - t0;
  t.cpu_s = cpu_now() - c0;
  std::fprintf(stderr, "  %-8s %8.3f s wall %8.3f s cpu %4d substitutions\n",
               name.c_str(), t.wall_s, t.cpu_s, t.report.substitutions_applied);
  t.outcome = outcome_of(t.output, t.report);
  return t;
}

/// The first result of a circuit: checked by the independent engines after
/// the timed loop, and the reference every later run must reproduce.
struct Reference {
  std::optional<Outcome> outcome;
  std::optional<Netlist> output;
};

void record(const std::string& name, Timed&& t, Reference* ref,
            Tally* tally) {
  if (!ref->outcome.has_value()) {
    ref->outcome = std::move(t.outcome);
    ref->output.emplace(std::move(t.output));
  } else if (!(t.outcome == *ref->outcome)) {
    tally->fail(name + ": result differs from the first run");
  }
}

/// Runs check_output on every reference and, on a multi-threaded workload,
/// one single-threaded optimize that must reproduce the reference exactly.
/// Returns the BDD check time.
double check_references(const Workload& w, const PreparedInputs& prep,
                        const Loaded& loaded,
                        const std::vector<Reference>& refs, Tally* tally) {
  double bdd_s = 0.0;
  const PowderOptions opt = workload_options(w, w.threads).build();
  const PowderOptions serial = workload_options(w, 1).build();
  for (std::size_t i = 0; i < refs.size(); ++i) {
    if (!refs[i].output.has_value()) continue;
    const std::string& name = prep.files[i].name;
    const std::string err = check_output(w, name, opt, loaded.netlists[i],
                                         *refs[i].output, &bdd_s);
    if (!err.empty()) tally->fail(err);
    if (w.threads == 1) continue;
    auto t = optimize_once(loaded.netlists[i], serial, name + "@1thr", tally);
    if (t.has_value() && !(t->outcome == *refs[i].outcome))
      tally->fail(name + ": 1-thread result differs from the " +
                  std::to_string(w.threads) + "-thread one");
  }
  return bdd_s;
}

struct Quality {
  double power0 = 0, power1 = 0, area0 = 0, area1 = 0, delay0 = 0, delay1 = 0;
  void add(const Outcome& o) {
    power0 += o.initial_power;
    power1 += o.final_power;
    area0 += o.initial_area;
    area1 += o.final_area;
    delay0 += o.initial_delay;
    delay1 += o.final_delay;
  }
};

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("  %-26s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  std::printf("  %-26s %16.6f ratio (%ld failed / %ld attempted)\n",
              "fail_rate",
              ratio(static_cast<double>(tally.failed),
                    static_cast<double>(tally.attempted)),
              tally.failed, tally.attempted);
  std::string json = "{\"correct\": ";
  json += tally.failed == 0 && tally.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// Timed, repeated set-ups. The end-to-end loop calls keep_up() before
/// every optimize so that the samples spread over the whole run: the host's
/// speed shifts for seconds at a time, and set-ups taken in one burst would
/// measure only the moment the burst ran in.
class SetupSampler {
 public:
  explicit SetupSampler(const PreparedInputs& prep) : prep_(prep) {}

  /// Runs and times one set-up; returns its netlists.
  Loaded once() {
    const double t0 = wall_now();
    Loaded loaded = load_inputs(prep_.files);
    setups_.push_back(wall_now() - t0);
    reads_.push_back(loaded.read_s);
    spent_s_ += setups_.back();
    return loaded;
  }
  /// Repeats set-ups until they have taken kSetupShare of `elapsed_s` and
  /// number at least `min_count`.
  void keep_up(double elapsed_s, std::size_t min_count = 0) {
    while (spent_s_ < kSetupShare * elapsed_s || setups_.size() < min_count)
      (void)once();
  }
  double setup_s() const { return median(setups_); }
  double read_s() const { return median(reads_); }
  std::size_t count() const { return setups_.size(); }

 private:
  const PreparedInputs& prep_;
  std::vector<double> setups_, reads_;
  double spent_s_ = 0.0;
};

int run_end_to_end(const Workload& w, const Args& a,
                   const PreparedInputs& prep) {
  SetupSampler setup(prep);
  const Loaded loaded = setup.once();
  const std::size_t n = prep.files.size();

  Tally tally;
  std::vector<std::vector<double>> walls(n), cpus(n);
  std::vector<Reference> refs(n);
  const PowderOptions opt = workload_options(w, w.threads).build();
  const double start = wall_now(), deadline = start + a.seconds;
  // Rounds over the circuits until the budget is spent; after the first
  // round a circuit runs again only if its median time still fits.
  for (int round = 0;; ++round) {
    bool ran = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (round > 0 && wall_now() + median(walls[i]) > deadline) continue;
      const std::string& name = prep.files[i].name;
      setup.keep_up(wall_now() - start);
      auto t = optimize_once(loaded.netlists[i], opt, name, &tally);
      ran = true;
      if (!t.has_value()) continue;
      walls[i].push_back(t->wall_s);
      cpus[i].push_back(t->cpu_s);
      record(name, std::move(*t), &refs[i], &tally);
    }
    if (!ran || wall_now() >= deadline) break;
  }
  setup.keep_up(wall_now() - start, kSetupMinRepeats);
  // Read before the checks, whose BDDs would otherwise set the high-water
  // mark.
  const double peak_rss_mb =
      static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0);
  (void)check_references(w, prep, loaded, refs, &tally);

  Quality q;
  double optimize_s = 0.0, cpu_s = 0.0;
  std::size_t min_samples = ~std::size_t{0};
  for (std::size_t i = 0; i < n; ++i) {
    optimize_s += median(walls[i]);
    cpu_s += median(cpus[i]);
    min_samples = std::min(min_samples, walls[i].size());
    if (refs[i].outcome.has_value()) q.add(*refs[i].outcome);
  }
  std::printf("%s seed=%llu threads=%d circuits=%zu: optimize_s is the sum "
              "of per-circuit medians over >= %zu runs each; setup_s the "
              "median of %zu set-ups\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              w.threads, n, min_samples, setup.count());
  print_result(
      tally,
      {{"optimize_s", optimize_s, "s"},
       {"cpu_s", cpu_s, "s"},
       {"peak_rss_mb", peak_rss_mb, "MiB"},
       {"setup_s", setup.setup_s(), "s"},
       {"power_reduction_pct", 100.0 * ratio(q.power0 - q.power1, q.power0),
        "%"},
       {"area_reduction_pct", 100.0 * ratio(q.area0 - q.area1, q.area0), "%"},
       {"delay_ratio", ratio(q.delay1, q.delay0), "ratio"}});
  return 0;
}

int run_traced(const Workload& w, const Args& a, const PreparedInputs& prep) {
  SetupSampler setup(prep);
  const Loaded loaded = setup.once();
  setup.keep_up(0.0, kSetupMinRepeats);
  const std::size_t n = prep.files.size();

  Tally tally;
  std::vector<Reference> refs(n);
  const PowderOptions plain = workload_options(w, w.threads).build();

  // Untraced passes before and after the traced one: the baseline for the
  // trace overhead (their mean, so neither side runs only cold) and for
  // determinism.
  double plain_wall = 0.0, plain_cpu = 0.0;
  auto untraced_pass = [&]() {
    for (std::size_t i = 0; i < n; ++i) {
      const std::string& name = prep.files[i].name;
      auto t = optimize_once(loaded.netlists[i], plain, name, &tally);
      if (!t.has_value()) continue;
      plain_wall += 0.5 * t->wall_s;
      plain_cpu += 0.5 * t->cpu_s;
      record(name, std::move(*t), &refs[i], &tally);
    }
  };
  untraced_pass();

  // Traced pass: one metrics registry for the workload, one trace session
  // and progress stream per circuit.
  MetricsRegistry reg;
  TraceLedger ledger;
  double traced_wall = 0.0, t90_s = 0.0;
  long index_size = 0, spec_hits = 0, stale_dropped = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& name = prep.files[i].name;
    TraceSession session(std::size_t{1} << 18);
    std::ostringstream progress_text;
    ProgressStream progress(&progress_text);
    const PowderOptions opt = workload_options(w, w.threads)
                                  .trace(&session)
                                  .metrics(&reg)
                                  .progress(&progress)
                                  .build();
    auto t = optimize_once(loaded.netlists[i], opt, name, &tally);
    if (!t.has_value()) continue;
    traced_wall += t->wall_s;
    ledger.add(session);
    t90_s += time_to_fraction(progress_text.str(), t->report.initial_power,
                              t->report.final_power, 0.9);
    index_size += t->report.diagnostics.candidate_index_size;
    spec_hits += t->report.diagnostics.speculative_proof_hits;
    stale_dropped += t->report.diagnostics.stale_proofs_dropped;
    record(name, std::move(*t), &refs[i], &tally);
  }
  untraced_pass();
  const double bdd_s = check_references(w, prep, loaded, refs, &tally);
  Quality q;
  for (const Reference& r : refs)
    if (r.outcome.has_value()) q.add(*r.outcome);

  // Layer probes on every input, then one window on the largest.
  ProbeTimes probes;
  std::size_t largest = 0;
  for (std::size_t i = 0; i < n; ++i) {
    probe_layers(loaded.netlists[i], plain, &probes);
    if (loaded.netlists[i].num_cells() > loaded.netlists[largest].num_cells())
      largest = i;
  }
  const WindowProbe win = probe_window(loaded.netlists[largest], plain);

  auto count = [&](const char* name) {
    return static_cast<double>(reg.counter(name)->value());
  };
  auto hist_s = [&](const char* name) {
    return static_cast<double>(reg.histogram(name)->sum_ns()) * 1e-9;
  };
  double proved = 0.0;
  for (int c = 0; c < kNumResubClasses; ++c)
    proved += static_cast<double>(
        reg.counter(std::string("powder_resub_proved_") +
                    resub_class_name(static_cast<ResubClass>(c)) + "_total")
            ->value());
  const double applied = count("powder_substitutions_applied_total");
  const double harvested = count("powder_candidates_harvested_total");

  std::printf("%s seed=%llu threads=%d circuits=%zu: traced run (%.3f s "
              "traced vs %.3f s untraced)\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              w.threads, n, traced_wall, plain_wall);
  print_result(
      tally,
      {{"harvest.find_ms", probes.find_s * 1e3, "ms"},
       {"harvest.total_s", ledger.harvest_s, "s"},
       {"harvest.share", ratio(ledger.harvest_s, ledger.optimize_s), "ratio"},
       {"harvest.candidates", harvested, "count"},
       {"harvest.truncated", count("powder_harvest_truncated_total"), "count"},
       {"harvest.index_size", static_cast<double>(index_size), "count"},
       {"harvest.useful_ratio", ratio(applied, harvested), "ratio"},
       {"power.estimate_ms", probes.estimate_s * 1e3, "ms"},
       {"power.pg_c_us", median(probes.pg_c_s) * 1e6, "us"},
       {"power.timed_refresh_ms", probes.timed_refresh_s * 1e3, "ms"},
       {"atpg.check_us", median(probes.atpg_s) * 1e6, "us"},
       {"atpg.total_s", hist_s("powder_proof_podem_check_duration_ns"), "s"},
       {"atpg.checks", count("powder_proof_podem_checks_total"), "count"},
       {"atpg.untestable_ratio",
        ratio(static_cast<double>(ledger.podem_untestable),
              static_cast<double>(ledger.podem_spans)),
        "ratio"},
       {"atpg.aborted", static_cast<double>(ledger.podem_aborted), "count"},
       {"atpg.backtracks", count("powder_proof_podem_backtracks_total"),
        "count"},
       {"sat.check_us", median(probes.sat_s) * 1e6, "us"},
       {"sat.total_s", hist_s("powder_proof_sat_check_duration_ns"), "s"},
       {"sat.checks", count("powder_proof_sat_checks_total"), "count"},
       {"sat.conflicts", count("powder_proof_sat_conflicts_total"), "count"},
       {"timing.sta_ms", probes.sta_s * 1e3, "ms"},
       {"timing.delay_check_s", ledger.delay_check_s, "s"},
       {"timing.delay_rejects", count("powder_rejected_delay_total"), "count"},
       {"sim.full_resim_ms", probes.full_resim_s * 1e3, "ms"},
       {"sim.incremental_s", ledger.sim_incremental_s, "s"},
       {"sim.incremental_calls",
        static_cast<double>(ledger.sim_incremental_calls), "count"},
       {"journal.commit_s", ledger.journal_commit_s, "s"},
       {"journal.commits", count("powder_journal_commits_total"), "count"},
       {"journal.rollbacks", count("powder_journal_rollbacks_total"), "count"},
       {"opt.iterations", count("powder_outer_iterations_total"), "count"},
       {"opt.unspanned_s", ledger.unspanned_s, "s"},
       {"opt.time_to_90pct_s", t90_s, "s"},
       {"opt.proof_yield", ratio(applied, proved), "ratio"},
       {"opt.speculative_hits", static_cast<double>(spec_hits), "count"},
       {"opt.stale_proofs_dropped", static_cast<double>(stale_dropped),
        "count"},
       {"opt.cpu_per_wall", ratio(plain_cpu, plain_wall), "ratio"},
       {"opt.gain_per_s", ratio(q.power0 - q.power1, plain_wall), "power/s"},
       {"io.read_s", setup.read_s(), "s"},
       {"io.write_s", prep.write_s, "s"},
       {"window.partition_ms", win.partition_s * 1e3, "ms"},
       {"window.extract_ms", win.extract_s * 1e3, "ms"},
       {"window.optimize_ms", win.optimize_s * 1e3, "ms"},
       {"window.gain_per_s", ratio(win.gain, win.optimize_s), "power/s"},
       {"bdd.equiv_ms", bdd_s * 1e3, "ms"},
       {"mapper.map_ms", prep.map_s * 1e3, "ms"},
       {"trace.overhead_pct", 100.0 * (ratio(traced_wall, plain_wall) - 1.0),
        "%"},
       {"trace.dropped_events", static_cast<double>(ledger.dropped),
        "count"}});
  return 0;
}

void usage() {
  std::string names;
  for (const std::string& n : workload_names()) names += " " + n;
  std::fprintf(stderr,
               "usage: powder_e2e --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --workdir <dir>\n"
               "workloads:%s\n",
               names.c_str());
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--workdir") {
      a->workdir = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), &end, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), &end);
    } else if (key == "--trace") {
      a->trace = static_cast<int>(std::strtol(val.c_str(), &end, 10));
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == val.c_str())) return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->workdir.empty() &&
         a->seconds > 0.0 && (a->trace == 0 || a->trace == 1);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, &a)) {
    usage();
    return 2;
  }
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) {
    usage();
    return 2;
  }
  try {
    std::filesystem::create_directories(a.workdir);
    const PreparedInputs prep = prepare_inputs(*w, a.seed, a.workdir);
    return a.trace == 1 ? run_traced(*w, a, prep) : run_end_to_end(*w, a, prep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "powder_e2e: %s\n", e.what());
    return 1;
  }
}
