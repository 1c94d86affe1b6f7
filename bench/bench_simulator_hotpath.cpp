// Simulator hot-path throughput (E15): items/sec for FF/BF/WF/CDFF/HA
// across n up to 1e7 (FF and BF also on the general-tail family, whose 1%
// near-capacity items stress BestFit's capacity bound), with the
// capacity-indexed selection every algorithm uses, plus two scale probes:
//
//   * peak-RSS of a streamed .cdbpi replay vs the same run on the
//     materialized instance, each in its own forked child (ru_maxrss is a
//     process high-water mark, so the comparison needs fresh processes);
//   * sharded-simulator wall time for a small algorithm sweep at 1, 2, and
//     hardware threads.
//
// Every cell runs kReps times and reports the median, min and max. Besides
// the human tables, results land in a machine-readable JSON file
// (--json PATH, default BENCH_HOTPATH.json) stamped with git SHA, compiler,
// build type and core count, and committed alongside EXPERIMENTS.md as the
// evidence. --quick trims every size for CI smoke runs.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "algos/any_fit.h"
#include "algos/cdff.h"
#include "algos/hybrid.h"
#include "bench_common.h"
#include "core/instance.h"
#include "core/simulator.h"
#include "parallel/sharded_sim.h"
#include "report/table.h"
#include "workloads/aligned_random.h"
#include "workloads/general_random.h"
#include "workloads/instance_file.h"

namespace {

using namespace cdbp;

constexpr int kReps = 5;

struct Timed {
  Cost cost = 0.0;
  bool cost_stable = true;  ///< every repetition reproduced `cost`
  bench::Spread seconds;
  bench::Spread items_per_sec;
};

Timed run_cell(const Instance& instance, Algorithm& algo) {
  const Simulator sim{SimulatorOptions{.keep_history = false}};
  Timed t;
  std::vector<double> seconds, rates;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    const RunResult result = sim.run(instance, algo);
    const auto stop = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(stop - start).count();
    if (rep == 0)
      t.cost = result.cost;
    else
      t.cost_stable = t.cost_stable && result.cost == t.cost;
    seconds.push_back(s);
    rates.push_back(static_cast<double>(instance.size()) / s);
  }
  t.seconds = bench::spread(seconds);
  t.items_per_sec = bench::spread(rates);
  return t;
}

Instance make_general(std::size_t n) {
  workloads::GeneralConfig config;
  config.shape = workloads::GeneralShape::kLogUniform;
  config.log2_mu = 8;
  config.target_items = static_cast<int>(n);
  // Horizon scaled so ~2-3k items stay concurrently active at n = 1e5.
  config.horizon = std::max(64.0, static_cast<double>(n) / 50.0);
  std::mt19937_64 rng(42);
  return workloads::make_general_random(config, rng);
}

/// make_general(n) with a near-capacity tail: 1% of the items get
/// 1 - size log-uniform in [1e-6, 1e-1] (the large-VM-fills-a-host case).
/// This is the input that exposes the cost of BestFit's exact capacity
/// bound, which grows with how close a size is to 1.
Instance make_general_tail(std::size_t n) {
  const Instance body = make_general(n);
  std::mt19937_64 rng(43);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const double lo = std::log(1e-6), hi = std::log(1e-1);
  Instance out;
  for (const Item& r : body.items()) {
    // Both draws happen for every item, so the tail picks do not depend
    // on which earlier items were picked.
    const double pick = unit(rng);
    const double gap = std::exp(lo + unit(rng) * (hi - lo));
    out.add(r.arrival, r.departure, pick < 0.01 ? 1.0 - gap : r.size);
  }
  out.finalize();
  return out;
}

Instance make_aligned(std::size_t n) {
  workloads::AlignedConfig config;
  config.max_bucket = 8;
  // Pick the horizon so roughly `n` items are emitted at the default
  // per-slot rate (slot count across buckets is ~2 * 2^n).
  int exp = 10;
  while ((std::size_t{2} << exp) < n) ++exp;
  config.n = exp;
  std::mt19937_64 rng(42);
  return workloads::make_aligned_random(config, rng);
}

std::string human(double v) {
  return report::Table::num(v / 1e6, 2) + "M";
}

struct ThroughputRow {
  std::string algorithm;
  std::string workload;
  std::size_t n = 0;
  Timed timed;
};

struct RssProbe {
  std::size_t n = 0;
  bool ok = false;
  bool costs_equal = false;  ///< every in-RAM and streamed run agrees
  bench::Spread in_ram_secs, streamed_secs;
  bench::Spread in_ram_rss, streamed_rss;
};

struct ShardPoint {
  std::size_t threads = 0;
  bench::Spread wall_seconds;
  std::size_t tasks = 0;
  std::size_t items = 0;
};

/// Streamed-vs-in-RAM peak RSS, everything heavyweight in forked children
/// so the parent (and therefore each child's inherited high-water mark)
/// stays small. Each side runs kReps times, one fresh child per run.
RssProbe probe_rss(std::size_t n) {
  namespace fs = std::filesystem;
  RssProbe probe;
  probe.n = n;
  const std::string path =
      (fs::temp_directory_path() / "cdbp_bench_hotpath.cdbpi").string();

  const auto generated = bench::run_in_subprocess([&] {
    const Instance instance = make_general(n);
    workloads::write_instance_file(path, instance);
    return std::vector<double>{static_cast<double>(instance.size())};
  });
  if (!generated) {
    std::remove(path.c_str());
    return probe;
  }

  // Each child times one FirstFit replay and returns {cost, seconds, peak
  // RSS bytes}.
  const Simulator sim{SimulatorOptions{.keep_history = false}};
  const auto timed = [](const auto& replay) {
    algos::FirstFit ff;
    const auto start = std::chrono::steady_clock::now();
    const RunResult result = replay(ff);
    const auto stop = std::chrono::steady_clock::now();
    return std::vector<double>{
        result.cost, std::chrono::duration<double>(stop - start).count(),
        static_cast<double>(bench::peak_rss_bytes())};
  };
  const auto in_ram_run = [&] {
    const Instance instance = workloads::read_instance_file(path);
    return timed([&](Algorithm& a) { return sim.run(instance, a); });
  };
  const auto streamed_run = [&] {
    workloads::InstanceFileReader source(path);
    return timed([&](Algorithm& a) { return sim.run_source(source, a); });
  };
  std::vector<double> in_ram_secs, in_ram_rss, streamed_secs, streamed_rss;
  std::vector<double> costs;
  probe.ok = true;
  for (int rep = 0; rep < kReps && probe.ok; ++rep) {
    const auto in_ram = bench::run_in_subprocess(in_ram_run);
    const auto streamed = bench::run_in_subprocess(streamed_run);
    probe.ok = in_ram && streamed && in_ram->size() == 3 &&
               streamed->size() == 3;
    if (!probe.ok) break;
    costs.push_back((*in_ram)[0]);
    costs.push_back((*streamed)[0]);
    in_ram_secs.push_back((*in_ram)[1]);
    in_ram_rss.push_back((*in_ram)[2]);
    streamed_secs.push_back((*streamed)[1]);
    streamed_rss.push_back((*streamed)[2]);
  }
  std::remove(path.c_str());
  probe.costs_equal =
      std::adjacent_find(costs.begin(), costs.end(),
                         std::not_equal_to<>()) == costs.end();
  probe.in_ram_secs = bench::spread(in_ram_secs);
  probe.in_ram_rss = bench::spread(in_ram_rss);
  probe.streamed_secs = bench::spread(streamed_secs);
  probe.streamed_rss = bench::spread(streamed_rss);
  return probe;
}

void write_json(const std::string& path, bool quick,
                const std::vector<ThroughputRow>& rows, const RssProbe& rss,
                const std::vector<ShardPoint>& sharded) {
  // Stamp before opening: truncating a tracked output file would mark the
  // tree dirty.
  const std::string provenance = bench::provenance_json();
  std::ofstream out(path);
  out << "{\n  \"bench\": \"simulator_hotpath\",\n  " << provenance
      << ",\n  \"quick\": " << (quick ? "true" : "false")
      << ",\n  \"reps\": " << kReps << ",\n  \"throughput\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ThroughputRow& r = rows[i];
    out << (i ? "," : "") << "\n    {\"algorithm\": \"" << r.algorithm
        << "\", \"workload\": \"" << r.workload << "\", \"n\": " << r.n
        << ", \"items_per_sec\": " << bench::spread_json(r.timed.items_per_sec)
        << ", \"seconds\": " << bench::spread_json(r.timed.seconds)
        << ", \"cost\": " << bench::json_num(r.timed.cost) << "}";
  }
  out << "\n  ],\n  \"rss\": ";
  if (rss.ok) {
    out << "{\"n\": " << rss.n
        << ", \"in_ram_peak_rss_bytes\": "
        << bench::spread_json(rss.in_ram_rss)
        << ", \"streamed_peak_rss_bytes\": "
        << bench::spread_json(rss.streamed_rss)
        << ", \"streamed_rss_fraction\": "
        << bench::json_num(rss.streamed_rss.median / rss.in_ram_rss.median)
        << ", \"in_ram_seconds\": " << bench::spread_json(rss.in_ram_secs)
        << ", \"streamed_seconds\": " << bench::spread_json(rss.streamed_secs)
        << ", \"costs_equal\": " << (rss.costs_equal ? "true" : "false")
        << "}";
  } else {
    out << "null";
  }
  out << ",\n  \"sharded\": [";
  for (std::size_t i = 0; i < sharded.size(); ++i) {
    const ShardPoint& p = sharded[i];
    out << (i ? "," : "") << "\n    {\"threads\": " << p.threads
        << ", \"tasks\": " << p.tasks << ", \"total_items\": " << p.items
        << ", \"wall_seconds\": " << bench::spread_json(p.wall_seconds) << "}";
  }
  out << "\n  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = cdbp::bench::parse_options(argc, argv);
  std::string json_path = "BENCH_HOTPATH.json";
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--json") json_path = argv[i + 1];

  std::vector<std::size_t> sizes = {10000, 100000, 1000000};
  std::size_t rss_n = 10000000;
  std::size_t big_n = 10000000;  // FF-only tier, indexed selection
  std::size_t shard_n = 1000000;
  if (opts.quick) {
    sizes = {2000, 10000};
    rss_n = 100000;
    big_n = 0;
    shard_n = 50000;
  }

  // Part B first: the forked RSS children inherit the parent's current
  // high-water mark, so it must run before the parent touches any large
  // instance.
  const RssProbe rss = probe_rss(rss_n);

  std::vector<ThroughputRow> rows;
  std::cout << "== simulator hot path: items/sec, median (min-max) of "
            << kReps << " runs ==\n";
  report::Table table({"algorithm", "workload", "n", "items/s", "min",
                       "max", "cost stable"});
  const auto add_row = [&](const std::string& label,
                           const std::string& workload,
                           const Instance& instance, Algorithm& algo) {
    const Timed timed = run_cell(instance, algo);
    rows.push_back({label, workload, instance.size(), timed});
    table.add_row({label, workload, std::to_string(instance.size()),
                   human(timed.items_per_sec.median),
                   human(timed.items_per_sec.min),
                   human(timed.items_per_sec.max),
                   timed.cost_stable ? "yes" : "NO"});
  };

  for (const std::size_t n : sizes) {
    const Instance general = make_general(n);
    const Instance general_tail = make_general_tail(n);
    const Instance aligned = make_aligned(n);
    algos::FirstFit ff;
    algos::BestFit bf;
    algos::WorstFit wf;
    algos::Cdff cdff;
    algos::Hybrid ha;
    add_row("FirstFit", "general", general, ff);
    add_row("BestFit", "general", general, bf);
    add_row("FirstFit", "general-tail", general_tail, ff);
    add_row("BestFit", "general-tail", general_tail, bf);
    add_row("WorstFit", "general", general, wf);
    add_row("CDFF", "aligned", aligned, cdff);
    add_row("HA", "general", general, ha);
  }

  if (big_n != 0) {
    const Instance general = make_general(big_n);
    algos::FirstFit ff;
    add_row("FirstFit", "general", general, ff);
  }
  std::cout << table.to_string();
  std::cout << "\n('cost stable': every run of the cell reproduces the same "
               "cost bit for bit)\n";

  std::cout << "\n== streamed .cdbpi replay vs in-RAM instance, FirstFit, "
               "median (min-max) of "
            << kReps << " runs ==\n";
  if (rss.ok) {
    report::Table rss_table({"input", "peak RSS", "seconds", "cost equal"});
    const auto mib = [](const bench::Spread& b) {
      const auto one = [](double v) {
        return report::Table::num(v / (1024.0 * 1024.0), 1);
      };
      return one(b.median) + " MiB (" + one(b.min) + "-" + one(b.max) + ")";
    };
    const auto secs = [](const bench::Spread& t) {
      return report::Table::num(t.median, 2) + " (" +
             report::Table::num(t.min, 2) + "-" +
             report::Table::num(t.max, 2) + ")";
    };
    rss_table.add_row({"in-RAM (n=" + std::to_string(rss.n) + ")",
                       mib(rss.in_ram_rss), secs(rss.in_ram_secs), "-"});
    rss_table.add_row({"streamed", mib(rss.streamed_rss),
                       secs(rss.streamed_secs),
                       rss.costs_equal ? "yes" : "NO"});
    std::cout << rss_table.to_string()
              << "streamed peak RSS = "
              << report::Table::num(
                     100.0 * rss.streamed_rss.median / rss.in_ram_rss.median,
                     1)
              << "% of in-RAM (medians)\n";
  } else {
    std::cout << "(skipped: fork/getrusage unavailable)\n";
  }

  // Part C: sharded wall-clock scaling on an algorithm sweep of one
  // instance. Thread counts beyond the hardware shrink nothing, but the
  // 1-vs-2 point still shows the overhead of the sharding machinery itself.
  std::vector<ShardPoint> shard_points;
  {
    const Instance instance = make_general(shard_n);
    std::vector<parallel::ShardTask> tasks;
    const auto add = [&](const std::string& label,
                         parallel::AlgorithmFactory make) {
      tasks.push_back({label, std::move(make), &instance, {}});
    };
    for (int rep = 0; rep < 2; ++rep) {
      add("ff", [] { return std::make_unique<algos::FirstFit>(); });
      add("bf", [] { return std::make_unique<algos::BestFit>(); });
      add("wf", [] { return std::make_unique<algos::WorstFit>(); });
      add("ha", [] { return std::make_unique<algos::Hybrid>(); });
    }
    std::vector<std::size_t> thread_counts = {1, 2};
    const std::size_t hw = parallel::ThreadPool{}.thread_count();
    if (hw > 2) thread_counts.push_back(hw);
    std::cout << "\n== sharded simulator: " << tasks.size()
              << " independent runs of n=" << instance.size() << " ==\n";
    report::Table shard_table(
        {"threads", "wall s", "min", "max", "sum of run s (median)"});
    for (const std::size_t threads : thread_counts) {
      parallel::ShardedSimOptions shard_opts;
      shard_opts.threads = threads;
      ShardPoint point;
      point.threads = threads;
      point.tasks = tasks.size();
      std::vector<double> walls, run_sums;
      for (int rep = 0; rep < kReps; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        const parallel::ShardedSimReport report =
            parallel::run_sharded(tasks, shard_opts);
        const auto stop = std::chrono::steady_clock::now();
        walls.push_back(std::chrono::duration<double>(stop - start).count());
        double run_sum = 0.0;
        point.items = 0;
        for (const auto& r : report.results) {
          point.items += r.items;
          run_sum += r.seconds;
        }
        run_sums.push_back(run_sum);
      }
      point.wall_seconds = bench::spread(walls);
      shard_points.push_back(point);
      shard_table.add_row(
          {std::to_string(threads),
           report::Table::num(point.wall_seconds.median, 2),
           report::Table::num(point.wall_seconds.min, 2),
           report::Table::num(point.wall_seconds.max, 2),
           report::Table::num(bench::spread(run_sums).median, 2)});
    }
    std::cout << shard_table.to_string();
  }

  write_json(json_path, opts.quick, rows, rss, shard_points);
  std::cout << "\nJSON written to " << json_path << "\n";
  return 0;
}
