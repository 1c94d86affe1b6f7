// The sim phase: in-process Simulator replays of ff, bf, ha and cdff,
// all work in core and algos (no serve or net layer).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "bench.h"
#include "core/instance.h"
#include "core/simulator.h"
#include "stats.h"

namespace perfbench {

/// Inputs of the sim phase plus their certified lower bounds.
struct SimInputs {
  cdbp::Instance general;  ///< replayed by ff, bf and ha
  cdbp::Instance aligned;  ///< replayed by cdff
  double lb_general = 0.0;
  double lb_aligned = 0.0;
};

/// The sim phase, run in slices spread over the whole run: the machine's
/// speed drifts on a scale of seconds, and medians over replays taken at
/// several points of the run are steadier than over one burst.
class SimPhase {
 public:
  SimPhase(const SimInputs& in, const Settings& s, Outcome& out,
           SpanLog* spans);

  /// Replays every algorithm round-robin until `budget_s` is spent, at
  /// least one round.
  void run_slice(double budget_s);

  /// Checks and reports the replays; the traced run adds its traced
  /// replays and the max_load_admitting timing here.
  void finish();

 private:
  struct Case {
    std::string key;
    std::function<cdbp::AlgorithmPtr()> make;
    bool aligned = false;
  };
  struct Series {
    std::vector<double> seconds;
    cdbp::RunResult first;
  };

  const SimInputs& in_;
  const Settings& s_;
  Outcome& out_;
  SpanLog* spans_;
  std::vector<Case> cases_;
  std::vector<Series> series_;
};

}  // namespace perfbench
