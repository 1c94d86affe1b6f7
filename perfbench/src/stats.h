// Exact order statistics and the ladder rule the benchmark reports with.
//
// Every timing is reported from the full sample set (no histograms, no
// bucketing): the median and the highest percentile that still has at
// least ten samples beyond it, together with the sample count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `samples` (q in [0, 1]): the smallest value
/// with at least ceil(q * n) samples at or below it. Sorts `samples` in
/// place. Returns 0 for an empty set.
[[nodiscard]] double percentile(std::vector<double>& samples, double q);

/// Median of a copy of `values` (mean of the two middle values for an even
/// count, so a two-sample median is not biased to either side).
[[nodiscard]] double median(std::vector<double> values);

/// True when a `q` percentile over `n` samples has at least ten samples
/// strictly beyond its rank, i.e. n - ceil(q * n) >= 10.
[[nodiscard]] bool percentile_reportable(std::size_t n, double q);

/// Mean of `values`; 0 for an empty set.
[[nodiscard]] double mean(const std::vector<double>& values);

/// One open-loop ladder step as measured.
struct StepOutcome {
  double offered_rate = 0.0;   ///< scheduled offers per second
  double achieved_rate = 0.0;  ///< acked offers / (last ack - first due)
  double p99_ms = 0.0;         ///< from scheduled send to ack
  std::size_t samples = 0;     ///< latency samples (acked offers)
  std::uint64_t failed = 0;    ///< refused, dropped, invalid or unresolved
  bool backlog_growing = false;
};

/// A step meets the service limit when its p99 is reportable and within
/// `p99_limit_ms`, nothing failed, and the backlog did not grow.
[[nodiscard]] bool step_passes(const StepOutcome& step, double p99_limit_ms);

/// Index of the highest offered rate among the passing steps, or -1 when
/// none passes. Steps need not be sorted by rate.
[[nodiscard]] int max_rate_step(const std::vector<StepOutcome>& steps,
                                double p99_limit_ms);

}  // namespace perfbench
