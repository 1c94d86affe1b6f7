#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

namespace {

std::size_t nearest_rank(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[nearest_rank(samples.size(), q) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool percentile_reportable(std::size_t n, double q) {
  return n > 0 && n - nearest_rank(n, q) >= 10;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

bool step_passes(const StepOutcome& step, double p99_limit_ms) {
  return percentile_reportable(step.samples, 0.99) &&
         step.p99_ms <= p99_limit_ms && step.failed == 0 &&
         !step.backlog_growing;
}

int max_rate_step(const std::vector<StepOutcome>& steps, double p99_limit_ms) {
  int best = -1;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (!step_passes(steps[i], p99_limit_ms)) continue;
    if (best < 0 ||
        steps[i].offered_rate > steps[static_cast<std::size_t>(best)].offered_rate)
      best = static_cast<int>(i);
  }
  return best;
}

}  // namespace perfbench
