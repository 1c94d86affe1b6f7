// Shared plumbing of the benchmark phases: the run's settings, the
// outcome every phase adds its checks and metrics to, and the in-memory
// span log of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds.
[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[nodiscard]] inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// A workload: the input property the benchmark varies.
struct WorkloadSpec {
  std::string name;
  double tail_share = 0.0;  ///< share of near-capacity items
};

struct Settings {
  WorkloadSpec workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;  ///< measurement budget of the whole run
  bool trace = false;
  std::string work_dir;  ///< scratch space for WAL directories
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a run found: output checks, operation counts, metrics, and the
/// sample count behind every timing metric.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::map<std::string, std::uint64_t> samples;

  /// Records a violated output check when `ok` is false.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    violations.push_back(what);
  }
};

/// In-memory spans of the traced run, written as a Chrome trace-event
/// file (loadable in Perfetto) when the run ends. Spans of one request
/// share `flow`; `parent` is the index of the enclosing span or -1.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t parent = -1;
    std::uint64_t flow = 0;
  };

  /// Appends a span; returns its index (for children's `parent`).
  std::int64_t add(std::string name, std::uint64_t start_ns,
                   std::uint64_t end_ns, std::int64_t parent = -1,
                   std::uint64_t flow = 0);

  /// Writes the trace-event JSON; false on an I/O error.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
