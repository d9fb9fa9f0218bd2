#pragma once
// Per-layer measurement: a ledger folded from the optimizer's own trace
// spans, the progress stream's commit curve, and probes — the benchmark's
// timers around direct calls into each layer's public functions.

#include <string>
#include <vector>

#include "powder.hpp"

namespace powder::e2e {

/// Span totals of traced optimize() runs, summed over circuits.
struct TraceLedger {
  double optimize_s = 0.0;
  double harvest_s = 0.0;
  double delay_check_s = 0.0;
  double sim_incremental_s = 0.0;
  long sim_incremental_calls = 0;
  double journal_commit_s = 0.0;
  /// Iteration time on the commit thread covered by no other span.
  double unspanned_s = 0.0;
  long podem_spans = 0, podem_untestable = 0, podem_aborted = 0;
  long dropped = 0;

  /// Drains `session` and folds its events in.
  void add(TraceSession& session);
};

/// Seconds from stream start to the first commit that reaches `fraction`
/// of the run's total power reduction (0 when nothing was committed).
double time_to_fraction(const std::string& progress_ndjson,
                        double initial_power, double final_power,
                        double fraction);

/// Probe timings on one input circuit, in seconds. The per-call vectors
/// hold one sample per shortlisted candidate.
struct ProbeTimes {
  double find_s = 0.0;           ///< first CandidateFinder::find()
  double estimate_s = 0.0;       ///< PowerEstimator::estimate_all()
  double timed_refresh_s = 0.0;  ///< TimedPowerModel's first full refresh
  double sta_s = 0.0;            ///< analyze_timing()
  double full_resim_s = 0.0;     ///< Simulator::resimulate_all()
  std::vector<double> pg_c_s, atpg_s, sat_s;
};
void probe_layers(const Netlist& input, const PowderOptions& opt,
                  ProbeTimes* out);

/// One window of the windowed mode on `input`: partition the whole
/// circuit, extract and locally optimize the first window.
struct WindowProbe {
  double partition_s = 0.0, extract_s = 0.0, optimize_s = 0.0;
  double gain = 0.0;  ///< window power reduction in the workload's model
};
WindowProbe probe_window(const Netlist& input, const PowderOptions& opt);

}  // namespace powder::e2e
