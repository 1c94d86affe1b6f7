#include "parallel/sharded_sim.h"

#include <chrono>
#include <stdexcept>

#include "obs/snapshot.h"
#include "parallel/thread_pool.h"
#include "trace/trace.h"
#include "workloads/instance_file.h"

namespace cdbp::parallel {

namespace {

ShardTaskResult run_one(const ShardTask& task, std::size_t shard,
                        const Simulator& sim) {
  if (!task.make)
    throw std::invalid_argument("run_sharded: task without algorithm factory");
  if ((task.instance != nullptr) == !task.path.empty())
    throw std::invalid_argument(
        "run_sharded: task needs exactly one of instance/path");
  const std::unique_ptr<Algorithm> algo = task.make();

  const auto t0 = std::chrono::steady_clock::now();
  RunResult run;
  if (task.instance != nullptr) {
    run = sim.run(*task.instance, *algo);
  } else if (task.path.size() >= 6 &&
             task.path.compare(task.path.size() - 6, 6, ".cdbpi") == 0) {
    workloads::InstanceFileReader source(task.path);
    run = sim.run_source(source, *algo);
  } else {
    const Instance instance = trace::read_instance_csv(task.path);
    run = sim.run(instance, *algo);
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double us =
      std::chrono::duration<double, std::micro>(t1 - t0).count();

  obs::MetricsRegistry::global()
      .histogram("sim.shard" + std::to_string(shard) + ".run_us")
      .record(static_cast<std::uint64_t>(us));

  ShardTaskResult r;
  r.label = task.label;
  r.shard = shard;
  r.items = run.items;
  r.cost = run.cost;
  r.bins_opened = run.bins_opened;
  r.max_open = run.max_open;
  r.seconds = us / 1e6;
  return r;
}

}  // namespace

ShardedSimReport run_sharded(const std::vector<ShardTask>& tasks,
                             const ShardedSimOptions& opts) {
  ThreadPool pool(opts.threads);
  const std::size_t shards = pool.thread_count();
  const Simulator sim{SimulatorOptions{.keep_history = opts.keep_history}};

  const obs::MetricsSnapshot before = obs::MetricsRegistry::global().snapshot();

  ShardedSimReport report;
  report.shards = shards;
  report.results = parallel_map<ShardTaskResult>(
      pool, tasks.size(),
      [&](std::size_t i) { return run_one(tasks[i], i % shards, sim); });

  // Interval histograms: this batch's runs only, even when the registry has
  // seen earlier batches.
  const obs::MetricsSnapshot interval =
      obs::delta(obs::MetricsRegistry::global().snapshot(), before);
  report.shard_run_us.reserve(shards);
  for (std::size_t k = 0; k < shards; ++k) {
    const obs::HistogramSnapshot* h = obs::find_histogram(
        interval, "sim.shard" + std::to_string(k) + ".run_us");
    report.shard_run_us.push_back(h ? *h : obs::HistogramSnapshot{});
    report.merged_run_us =
        obs::merge(report.merged_run_us, report.shard_run_us.back());
  }
  return report;
}

}  // namespace cdbp::parallel
