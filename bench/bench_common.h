// Shared scaffolding for the experiment binaries: seed-sweep execution on
// the thread pool, ratio-series aggregation, and uniform printing of
// tables, growth-law fits, and charts.
//
// Every experiment binary accepts:
//   --quick          smaller sweeps (used by CI smoke checks)
//   --seeds N        override the seed count
//   --csv PATH       also dump the per-point measurements as CSV
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "analysis/ratio.h"
#include "analysis/stats.h"
#include "analysis/sweep.h"
#include "obs/obs.h"
#include "parallel/rng.h"
#include "parallel/thread_pool.h"
#include "report/csv.h"
#include "report/table.h"

namespace cdbp::bench {

struct BenchOptions {
  bool quick = false;
  int seeds = 8;
  std::optional<std::string> csv_path;
};

inline BenchOptions parse_options(int argc, char** argv) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opts.quick = true;
      opts.seeds = 3;
    } else if (arg == "--seeds" && i + 1 < argc) {
      opts.seeds = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--csv" && i + 1 < argc) {
      opts.csv_path = argv[++i];
    } else if (arg == "--help") {
      std::cout << "options: --quick  --seeds N  --csv PATH\n";
      std::exit(0);
    }
  }
  return opts;
}

/// Peak resident set size of this process so far, in bytes; 0 when the
/// platform offers no getrusage. (Linux reports ru_maxrss in KiB.)
inline std::size_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::size_t>(usage.ru_maxrss);
#else
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;
#endif
#else
  return 0;
#endif
}

/// Runs `fn` in a forked child and hands back the doubles it returned (via
/// a pipe), or nullopt if the child crashed or the platform cannot fork.
///
/// This exists for peak-RSS comparisons: ru_maxrss is a process-lifetime
/// high-water mark that can never be reset, so each measured workload needs
/// its own process. The child still *starts* from the parent's current
/// footprint — keep the parent slim (e.g. generate big input files in a
/// throwaway child too, not in the parent).
inline std::optional<std::vector<double>> run_in_subprocess(
    const std::function<std::vector<double>()>& fn) {
#if defined(__unix__) || defined(__APPLE__)
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    close(fds[0]);
    bool ok = true;
    std::vector<double> values;
    try {
      values = fn();
    } catch (...) {
      ok = false;
    }
    const std::uint64_t n = values.size();
    ok = ok && write(fds[1], &n, sizeof n) == static_cast<ssize_t>(sizeof n);
    for (const double v : values)
      ok = ok && write(fds[1], &v, sizeof v) == static_cast<ssize_t>(sizeof v);
    close(fds[1]);
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  const auto read_exact = [&](void* buf, std::size_t len) {
    auto* p = static_cast<char*>(buf);
    while (len > 0) {
      const ssize_t got = read(fds[0], p, len);
      if (got <= 0) return false;
      p += got;
      len -= static_cast<std::size_t>(got);
    }
    return true;
  };
  std::uint64_t n = 0;
  std::vector<double> values;
  bool ok = read_exact(&n, sizeof n) && n < (std::uint64_t{1} << 20);
  if (ok) {
    values.resize(n);
    for (double& v : values) ok = ok && read_exact(&v, sizeof v);
  }
  close(fds[0]);
  int status = 0;
  ok = waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
       WEXITSTATUS(status) == 0 && ok;
  if (!ok) return std::nullopt;
  return values;
#else
  (void)fn;
  return std::nullopt;
#endif
}

/// Median, min and max of repeated measurements of one cell.
struct Spread {
  double median = 0.0, min = 0.0, max = 0.0;
};

inline Spread spread(std::vector<double> v) {
  Spread s;
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  s.median = v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
  s.min = v.front();
  s.max = v.back();
  return s;
}

/// Shortest-round-trip JSON number ("%.17g").
inline std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// A Spread as a JSON object {"median": .., "min": .., "max": ..}.
inline std::string spread_json(const Spread& s) {
  std::string out = "{\"median\": ";
  out.append(json_num(s.median)).append(", \"min\": ");
  out.append(json_num(s.min)).append(", \"max\": ");
  return out.append(json_num(s.max)).append("}");
}

/// Where a bench JSON came from, as JSON object members (no braces):
/// the checkout's git SHA (suffixed "-dirty" when tracked files differ from
/// it; "unknown" outside a git checkout), compiler, CMake build type and
/// hardware thread count. The source directory and build type are baked in
/// by bench/CMakeLists.txt.
inline std::string provenance_json() {
  const auto shell = [](const std::string& cmd) {
    std::string out;
#if defined(__unix__) || defined(__APPLE__)
    if (FILE* pipe = popen(cmd.c_str(), "r")) {
      char buf[128];
      while (std::fgets(buf, sizeof buf, pipe)) out += buf;
      pclose(pipe);
    }
#else
    (void)cmd;
#endif
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
      out.pop_back();
    return out;
  };
  const std::string git = std::string("git -C '") + CDBP_SOURCE_DIR + "' ";
  std::string sha = shell(git + "rev-parse --short=12 HEAD 2>/dev/null");
  if (sha.empty())
    sha = "unknown";
  else if (!shell(git + "status --porcelain --untracked-files=no 2>/dev/null")
                .empty())
    sha += "-dirty";
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::string out = "\"git_sha\": \"";
  out.append(sha).append("\", \"compiler\": \"").append(compiler);
  out.append("\", \"build_type\": \"").append(CDBP_BUILD_TYPE);
  out.append("\", \"cores\": ")
      .append(std::to_string(std::thread::hardware_concurrency()));
  return out;
}

using analysis::SweepPoint;

/// Runs `measure(n, seed)` for every n in `exponents` x seed in
/// [0, seeds), in parallel, and aggregates per (algorithm, mu) via
/// analysis::aggregate_sweep.
using MeasureFn =
    std::function<std::vector<analysis::RatioMeasurement>(int, std::uint64_t)>;

inline std::vector<SweepPoint> run_sweep(const std::vector<int>& exponents,
                                         int seeds, const MeasureFn& measure) {
  parallel::ThreadPool pool;
  struct Task {
    int n;
    std::uint64_t seed;
  };
  std::vector<Task> tasks;
  for (int n : exponents)
    for (int s = 0; s < seeds; ++s)
      tasks.push_back(Task{n, static_cast<std::uint64_t>(s)});

  // Heartbeat on stderr: one repaint per completed (n, seed) task, rate
  // limited inside Progress, with elapsed/ETA.
  obs::Progress progress("sweep", tasks.size());
  const auto raw = parallel::parallel_map<std::vector<analysis::RatioMeasurement>>(
      pool, tasks.size(), [&](std::size_t i) {
        auto result = measure(tasks[i].n, tasks[i].seed);
        progress.tick();
        return result;
      });
  progress.finish();

  std::vector<analysis::SweepObservation> observations;
  for (std::size_t ti = 0; ti < tasks.size(); ++ti)
    for (const auto& m : raw[ti])
      observations.push_back(
          analysis::SweepObservation{std::ldexp(1.0, tasks[ti].n), m});
  return analysis::aggregate_sweep(observations);
}

/// Prints one ratio table (rows: mu x algorithm) plus growth-law fits per
/// algorithm, and optionally appends to a CSV.
inline void print_sweep(const std::string& title,
                        const std::vector<SweepPoint>& points,
                        const BenchOptions& opts) {
  std::cout << "\n== " << title << " ==\n";
  report::Table table(
      {"algorithm", "mu", "ratio/LB mean", "ratio/LB max", "ratio/UB mean",
       "cost mean"});
  for (const SweepPoint& pt : points)
    table.add_row({pt.algorithm, report::Table::num(pt.mu, 0),
                   report::Table::num(pt.ratio_vs_lower.mean),
                   report::Table::num(pt.ratio_vs_lower.max),
                   report::Table::num(pt.ratio_vs_upper.mean),
                   report::Table::num(pt.cost.mean, 1)});
  std::cout << table.to_string();

  // Growth fits per algorithm (on ratio vs LB).
  std::vector<std::string> algos;
  for (const SweepPoint& pt : points)
    if (std::find(algos.begin(), algos.end(), pt.algorithm) == algos.end())
      algos.push_back(pt.algorithm);
  std::cout << "\nbest-fit growth law of ratio(mu), by R^2:\n";
  for (const std::string& name : algos) {
    std::vector<analysis::Point> series;
    for (const SweepPoint& pt : points)
      if (pt.algorithm == name)
        series.push_back(analysis::Point{pt.mu, pt.ratio_vs_lower.mean});
    const auto fits = analysis::rank_growth_laws(series);
    std::cout << "  " << name << ": ";
    for (std::size_t k = 0; k < std::min<std::size_t>(3, fits.size()); ++k) {
      if (k) std::cout << "  |  ";
      std::cout << analysis::to_string(fits[k].law)
                << " (R2=" << report::Table::num(fits[k].r2) << ", a="
                << report::Table::num(fits[k].a) << ")";
    }
    std::cout << "\n";
  }

  if (opts.csv_path) {
    report::CsvWriter csv(*opts.csv_path,
                          {"experiment", "algorithm", "mu", "ratio_lb_mean",
                           "ratio_lb_max", "ratio_ub_mean", "cost_mean"});
    for (const SweepPoint& pt : points)
      csv.add_row({title, pt.algorithm, report::Table::num(pt.mu, 0),
                   report::Table::num(pt.ratio_vs_lower.mean, 6),
                   report::Table::num(pt.ratio_vs_lower.max, 6),
                   report::Table::num(pt.ratio_vs_upper.mean, 6),
                   report::Table::num(pt.cost.mean, 6)});
  }
}

}  // namespace cdbp::bench
