#include "parallel/sharded_sim.h"

#include <cstdio>
#include <filesystem>
#include <random>

#include <gtest/gtest.h>

#include "algos/any_fit.h"
#include "core/simulator.h"
#include "scratch_path.h"
#include "test_util.h"
#include "workloads/general_random.h"
#include "workloads/instance_file.h"

namespace cdbp::parallel {
namespace {

std::unique_ptr<Algorithm> make_ff() {
  return std::make_unique<algos::FirstFit>();
}
std::unique_ptr<Algorithm> make_bf() {
  return std::make_unique<algos::BestFit>();
}

Instance make_test_instance(std::uint64_t seed, int items = 150) {
  std::mt19937_64 rng(seed);
  workloads::GeneralConfig cfg;
  cfg.target_items = items;
  cfg.log2_mu = 5;
  cfg.horizon = 30.0;
  return workloads::make_general_random(cfg, rng);
}

TEST(ShardedSim, MatchesSequentialRunsInTaskOrder) {
  const Instance a = make_test_instance(1);
  const Instance b = make_test_instance(2);
  std::vector<ShardTask> tasks;
  tasks.push_back({"ff/a", make_ff, &a, {}});
  tasks.push_back({"bf/a", make_bf, &a, {}});
  tasks.push_back({"ff/b", make_ff, &b, {}});
  tasks.push_back({"bf/b", make_bf, &b, {}});

  ShardedSimOptions opts;
  opts.threads = 3;
  const ShardedSimReport report = run_sharded(tasks, opts);
  ASSERT_EQ(report.results.size(), tasks.size());
  EXPECT_EQ(report.shards, 3u);

  const Simulator sim{SimulatorOptions{.keep_history = false}};
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto algo = tasks[i].make();
    const RunResult want = sim.run(*tasks[i].instance, *algo);
    const ShardTaskResult& got = report.results[i];
    EXPECT_EQ(got.label, tasks[i].label);
    EXPECT_EQ(got.shard, i % report.shards);
    EXPECT_EQ(got.cost, want.cost);  // bitwise: parallelism changes nothing
    EXPECT_EQ(got.bins_opened, want.bins_opened);
    EXPECT_EQ(got.max_open, want.max_open);
    EXPECT_EQ(got.items, want.items);
    EXPECT_GE(got.seconds, 0.0);
  }
}

TEST(ShardedSim, StreamedTaskMatchesInRamTask) {
  const Instance in = make_test_instance(3);
  const std::string path =
      testutil::scratch_path("cdbp_sharded_sim.cdbpi").string();
  workloads::write_instance_file(path, in, /*chunk_items=*/64);

  std::vector<ShardTask> tasks;
  tasks.push_back({"in-ram", make_ff, &in, {}});
  tasks.push_back({"streamed", make_ff, nullptr, path});
  ShardedSimOptions opts;
  opts.threads = 2;
  const ShardedSimReport report = run_sharded(tasks, opts);
  std::remove(path.c_str());

  ASSERT_EQ(report.results.size(), 2u);
  EXPECT_EQ(report.results[0].cost, report.results[1].cost);  // bitwise
  EXPECT_EQ(report.results[0].bins_opened, report.results[1].bins_opened);
  EXPECT_EQ(report.results[0].items, report.results[1].items);
}

TEST(ShardedSim, EveryAlgorithmMatchesSequentialRun) {
  const Instance in = make_test_instance(4);
  std::vector<ShardTask> tasks;
  for (const auto& f : testutil::online_factories())
    tasks.push_back({f.name, f.make, &in, {}});

  ShardedSimOptions opts;
  opts.threads = 2;
  const ShardedSimReport report = run_sharded(tasks, opts);
  ASSERT_EQ(report.results.size(), tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto algo = tasks[i].make();
    const RunResult want = Simulator{}.run(in, *algo);  // with history
    EXPECT_EQ(report.results[i].cost, want.cost) << tasks[i].label;
    EXPECT_EQ(report.results[i].bins_opened, want.bins_opened);
    EXPECT_EQ(report.results[i].max_open, want.max_open);
  }
}

TEST(ShardedSim, MergedHistogramCoversAllRuns) {
#ifdef CDBP_OBS_OFF
  GTEST_SKIP() << "observability compiled out";
#else
  const Instance in = make_test_instance(5, /*items=*/60);
  std::vector<ShardTask> tasks(5, ShardTask{"ff", make_ff, &in, {}});
  ShardedSimOptions opts;
  opts.threads = 2;
  const ShardedSimReport report = run_sharded(tasks, opts);
  ASSERT_EQ(report.shard_run_us.size(), report.shards);
  std::uint64_t total = 0;
  for (const auto& h : report.shard_run_us) total += h.count;
  EXPECT_EQ(total, tasks.size());  // interval delta: this batch only
  EXPECT_EQ(report.merged_run_us.count, tasks.size());
  EXPECT_GE(report.merged_run_us.max, report.merged_run_us.min);
#endif
}

TEST(ShardedSim, MalformedTasksRejected) {
  const Instance in = make_test_instance(6, /*items=*/20);
  ShardedSimOptions opts;
  opts.threads = 1;
  {
    std::vector<ShardTask> tasks;
    tasks.push_back({"no-algo", nullptr, &in, {}});
    EXPECT_THROW((void)run_sharded(tasks, opts), std::invalid_argument);
  }
  {
    std::vector<ShardTask> tasks;
    tasks.push_back({"no-input", make_ff, nullptr, {}});
    EXPECT_THROW((void)run_sharded(tasks, opts), std::invalid_argument);
  }
  {
    std::vector<ShardTask> tasks;
    tasks.push_back({"both-inputs", make_ff, &in, "x.csv"});
    EXPECT_THROW((void)run_sharded(tasks, opts), std::invalid_argument);
  }
}

}  // namespace
}  // namespace cdbp::parallel
