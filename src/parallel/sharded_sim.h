// Sharded simulator driver: runs a batch of *independent* packing runs
// (different seeds, instances, or algorithms) across the thread pool.
//
// One run is inherently sequential — every placement decision depends on
// the ledger state the previous ones produced — so the unit of parallelism
// is the whole run, which is exactly how the large-n experiments are
// structured (E15: a seed x algorithm grid of independent replays). Each
// task gets a fresh Algorithm from its factory and its own Ledger; the only
// shared state is the process-wide metrics registry, whose instruments are
// thread-safe relaxed atomics.
//
// Tasks are assigned round-robin to shards (shard = task index mod
// thread_count) and each shard's run wall-times feed its own
// "sim.shard<k>.run_us" histogram; run_sharded() snapshots the registry
// before and after, so the report carries both the per-shard interval
// histograms and their obs::merge across shards — the same merge path the
// serve-plane exporter uses.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/algorithm.h"
#include "core/instance.h"
#include "core/simulator.h"
#include "obs/metrics.h"

namespace cdbp::parallel {

/// Makes a fresh algorithm instance for one task (called on the shard's
/// thread; must be thread-safe and must not share mutable state across
/// calls).
using AlgorithmFactory = std::function<std::unique_ptr<Algorithm>()>;

/// One independent run. Exactly one input form must be set: an in-memory
/// instance, or a path to an instance file (.cdbpi is streamed chunk by
/// chunk; anything else is read as CSV up front).
struct ShardTask {
  std::string label;                   ///< carried into the result
  AlgorithmFactory make;               ///< fresh algorithm per task
  const Instance* instance = nullptr;  ///< in-RAM input (not owned)...
  std::string path;                    ///< ...or an on-disk instance
};

struct ShardTaskResult {
  std::string label;
  std::size_t shard = 0;  ///< which round-robin shard ran it
  std::size_t items = 0;
  Cost cost = 0.0;
  std::size_t bins_opened = 0;
  std::size_t max_open = 0;
  double seconds = 0.0;  ///< wall time of this run
};

struct ShardedSimOptions {
  std::size_t threads = 0;  ///< 0 = hardware concurrency
  bool keep_history = false;  ///< per-bin records are rarely wanted at scale
};

struct ShardedSimReport {
  std::vector<ShardTaskResult> results;  ///< task order, not finish order
  std::size_t shards = 0;
  /// Interval (this batch only) run-time histograms: one per shard, plus
  /// their merge. Empty under CDBP_OBS_OFF.
  std::vector<obs::HistogramSnapshot> shard_run_us;
  obs::HistogramSnapshot merged_run_us;
};

/// Runs every task across the pool; rethrows the first task exception.
[[nodiscard]] ShardedSimReport run_sharded(const std::vector<ShardTask>& tasks,
                                           const ShardedSimOptions& opts = {});

}  // namespace cdbp::parallel
