// E18 — serving-path throughput: offers/sec through the sharded WAL-backed
// front end, swept over shard count x fsync policy {none, every} on one
// stream. `none` is the no-durability baseline; `every` acks an offer only
// after its fsync, with group commit + batched shard draining amortizing
// that to roughly one fsync round per drained batch. Self-checks: every
// accepted offer must come back placed, and the packing cost at each shard
// count must be independent of the fsync policy and the repetition.
//
// Networked mode (the same sweep's sibling): the fsync=every router config
// behind a NetListener on loopback, driven by the built-in load generator.
// Two cell shapes: "pipelined" — one shard-pinned tenant per shard, 256
// offers deep per connection, the throughput-comparison configuration
// (single TCP stream per shard keeps the packing deterministic) — and one
// "soak" cell with thousands of tenant connections in ordered mode.
// Self-checks: no offer the client holds a kApplied ack for may be missing
// from the router's final placement log, and (full runs) pipelined
// loopback throughput at the comparison shard count must land within 2x of
// the file-fed fsync=every submit loop.
//
// Every cell runs at least 5 times and reports median/min/max offers/sec;
// latency percentiles come from the median-throughput repetition.
//
// Flags: --quick (smaller stream), --seeds N (repetitions per cell are
// max(5, N/2)), --csv PATH (per-cell rows), --json PATH.
// BENCH_SERVE.json and the EXPERIMENTS.md E18 table come from one
// Release-build run: `bench_serve_throughput --json BENCH_SERVE.json`.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "algos/any_fit.h"
#include "bench_common.h"
#include "net/client.h"
#include "net/listener.h"
#include "obs/snapshot.h"
#include "report/table.h"
#include "serve/request_stream.h"
#include "serve/shard_router.h"

namespace {

namespace fs = std::filesystem;
using namespace cdbp;

/// One repetition of a file-fed cell.
struct FileRun {
  double seconds = 0.0;
  Cost total_cost = 0.0;
  /// End-to-end ack latency merged across shards, plus per shard. Empty
  /// (count == 0) under CDBP_OBS_OFF.
  obs::HistogramSnapshot lat;
  std::vector<obs::HistogramSnapshot> shard_lat;
};

struct Cell {
  std::size_t shards = 1;
  serve::FsyncPolicy fsync = serve::FsyncPolicy::kNone;
  std::size_t items = 0;
  bench::Spread seconds;
  bench::Spread offers_per_sec;
  /// The median-throughput repetition (latency, cost).
  FileRun median_run;
};

/// Index of the median element of `v` (the upper one for even sizes).
std::size_t median_index(const std::vector<double>& v) {
  std::vector<std::size_t> order(v.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
  return order[order.size() / 2];
}

FileRun run_cell(const std::vector<serve::ServeRequest>& stream,
                 std::size_t shards, serve::FsyncPolicy fsync,
                 const fs::path& dir) {
  fs::remove_all(dir);
  serve::RouterConfig rc;
  rc.wal_dir = dir.string();
  rc.shards = shards;
  rc.fsync = fsync;
  rc.queue_capacity = 4096;
  rc.wal_segment_bytes = 8u << 20;  // production default: rotate at 8 MiB

  serve::ShardRouter router(
      rc, [] { return AlgorithmPtr(std::make_unique<algos::BestFit>()); },
      "bf");
  const auto start = std::chrono::steady_clock::now();
  for (const serve::ServeRequest& req : stream) {
    if (!router.submit(req))
      throw std::runtime_error("block admission must never refuse");
  }
  router.stop();
  FileRun run;
  run.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  // Self-check: nothing lost between submit and placement.
  std::uint64_t applied = 0;
  for (std::size_t i = 0; i < router.shards(); ++i) {
    applied += router.stats(i).applied;
    run.shard_lat.push_back(router.stats(i).ack_latency);
    run.lat = obs::merge(run.lat, router.stats(i).ack_latency);
  }
  if (applied != stream.size() ||
      router.results().size() != stream.size())
    throw std::runtime_error("offer count mismatch: submitted " +
                             std::to_string(stream.size()) + ", placed " +
                             std::to_string(applied));
  run.total_cost = router.total_cost();
  fs::remove_all(dir);
  return run;
}

/// One repetition of a networked cell.
struct NetRun {
  std::uint64_t conns = 0;
  double seconds = 0.0;
  /// Client-observed offer->ack round trip (includes the wire both ways).
  std::uint64_t p50 = 0, p95 = 0, p99 = 0, lat_max = 0;
};

struct NetCell {
  std::string mode;  ///< "pipelined" or "soak"
  std::size_t shards = 1;
  std::size_t items = 0;
  bench::Spread seconds;
  bench::Spread offers_per_sec;
  NetRun median_run;  ///< the median-throughput repetition
};

/// Tenant names probed so that name i maps to shard i — one connection per
/// shard is the deterministic pipelined-mode configuration (client.h).
std::vector<std::string> shard_pinned_tenants(std::size_t shards) {
  std::vector<std::string> out(shards);
  std::vector<bool> have(shards, false);
  std::size_t found = 0;
  for (std::uint64_t probe = 0; found < shards; ++probe) {
    std::string name = "net-" + std::to_string(probe);
    const std::size_t s =
        static_cast<std::size_t>(serve::tenant_hash(name) % shards);
    if (!have[s]) {
      have[s] = true;
      out[s] = std::move(name);
      ++found;
    }
  }
  return out;
}

/// Round-robins the stream's offers onto `names`. The stream stays globally
/// arrival-sorted, so any per-shard subsequence keeps the monotone arrival
/// and stream_index order the session and the client both require.
std::vector<serve::ServeRequest> with_tenants(
    std::vector<serve::ServeRequest> stream,
    const std::vector<std::string>& names) {
  for (std::size_t i = 0; i < stream.size(); ++i)
    stream[i].tenant = names[i % names.size()];
  return stream;
}

/// Runs the load generator in a forked child and ships the report back
/// over a pipe. One process cannot hold a 10k-connection soak: client and
/// server sides cost 2 fds per connection against a single RLIMIT_NOFILE,
/// while split processes get a full fd budget each. The child is forked
/// before any connection exists, touches only run_load (never the
/// listener or router it inherited), and _exits without running dtors.
net::ClientReport run_load_forked(const net::ClientConfig& cc,
                                  const std::vector<serve::ServeRequest>& s) {
  int pipefd[2];
  if (::pipe(pipefd) != 0) throw std::runtime_error("soak: pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("soak: fork failed");
  if (pid == 0) {
    ::close(pipefd[0]);
    net::raise_nofile_limit(s.size() + 512);  // one fd per tenant, at most
    const net::ClientReport rep = net::run_load(cc, s);
    FILE* out = ::fdopen(pipefd[1], "w");
    std::fprintf(out,
                 "%llu %llu %llu %llu %llu %llu %llu %d %.9f\n",
                 (unsigned long long)rep.sent, (unsigned long long)rep.applied,
                 (unsigned long long)rep.skipped,
                 (unsigned long long)rep.errored, (unsigned long long)rep.lost,
                 (unsigned long long)rep.conns_opened,
                 (unsigned long long)rep.conns_failed, rep.timed_out ? 1 : 0,
                 rep.wall_seconds);
    std::fprintf(out, "%zu\n", rep.applied_ids.size());
    for (const std::uint64_t id : rep.applied_ids)
      std::fprintf(out, "%llu\n", (unsigned long long)id);
    std::fprintf(out, "%zu\n", rep.latencies_us.size());
    for (const std::uint64_t us : rep.latencies_us)
      std::fprintf(out, "%llu\n", (unsigned long long)us);
    std::fflush(out);
    ::_exit(0);
  }
  ::close(pipefd[1]);
  FILE* in = ::fdopen(pipefd[0], "r");
  net::ClientReport rep;
  unsigned long long v[7];
  int timed_out = 0;
  std::size_t n = 0;
  bool ok = std::fscanf(in, "%llu %llu %llu %llu %llu %llu %llu %d %lf",
                        &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                        &timed_out, &rep.wall_seconds) == 9;
  if (ok) {
    rep.sent = v[0];
    rep.applied = v[1];
    rep.skipped = v[2];
    rep.errored = v[3];
    rep.lost = v[4];
    rep.conns_opened = v[5];
    rep.conns_failed = v[6];
    rep.timed_out = timed_out != 0;
    ok = std::fscanf(in, "%zu", &n) == 1;
    rep.applied_ids.reserve(ok ? n : 0);
    for (std::size_t i = 0; ok && i < n; ++i) {
      unsigned long long id = 0;
      ok = std::fscanf(in, "%llu", &id) == 1;
      rep.applied_ids.push_back(id);
    }
    if (ok) ok = std::fscanf(in, "%zu", &n) == 1;
    rep.latencies_us.reserve(ok ? n : 0);
    for (std::size_t i = 0; ok && i < n; ++i) {
      unsigned long long us = 0;
      ok = std::fscanf(in, "%llu", &us) == 1;
      rep.latencies_us.push_back(us);
    }
  }
  std::fclose(in);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!ok || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("soak: load-generator child failed");
  return rep;
}

NetRun run_net_once(const std::vector<serve::ServeRequest>& stream,
                    std::size_t shards, std::size_t shard_window,
                    std::size_t pipeline, const fs::path& dir, bool soak) {
  fs::remove_all(dir);
  serve::RouterConfig rc;
  rc.wal_dir = dir.string();
  rc.shards = shards;
  rc.fsync = serve::FsyncPolicy::kEvery;
  rc.queue_capacity = 4096;
  rc.wal_segment_bytes = 8u << 20;

  serve::ShardRouter router(
      rc, [] { return AlgorithmPtr(std::make_unique<algos::BestFit>()); },
      "bf");
  net::ListenerConfig lc;
  net::NetListener listener(lc, router);
  net::ClientConfig cc;
  cc.port = listener.port();
  cc.shard_window = shard_window;
  cc.pipeline = pipeline;
  const net::ClientReport rep =
      soak ? run_load_forked(cc, stream) : net::run_load(cc, stream);
  listener.begin_drain();
  const bool drained = listener.drain(60000);
  listener.stop();
  router.stop();
  if (!drained) throw std::runtime_error("net cell failed to drain");
  if (rep.conns_failed != 0 || rep.timed_out || rep.lost != 0 ||
      rep.errored != 0 || rep.applied != stream.size())
    throw std::runtime_error(
        "net cell lost offers: sent=" + std::to_string(rep.sent) +
        " applied=" + std::to_string(rep.applied) +
        " errored=" + std::to_string(rep.errored) +
        " lost=" + std::to_string(rep.lost) +
        " conns_failed=" + std::to_string(rep.conns_failed));
  // No acked-offer loss: every stream index the client holds a kApplied
  // ack for must be in the router's final placement log.
  std::unordered_set<std::uint64_t> placed;
  for (const serve::ServeResult& r : router.results())
    placed.insert(r.stream_index);
  for (const std::uint64_t id : rep.applied_ids)
    if (placed.find(id) == placed.end())
      throw std::runtime_error("acked offer " + std::to_string(id) +
                               " missing from the placement log");
  NetRun run;
  run.conns = rep.conns_opened;
  run.seconds = rep.wall_seconds;
  run.p50 = net::latency_percentile_us(rep.latencies_us, 50.0);
  run.p95 = net::latency_percentile_us(rep.latencies_us, 95.0);
  run.p99 = net::latency_percentile_us(rep.latencies_us, 99.0);
  run.lat_max = net::latency_percentile_us(rep.latencies_us, 100.0);
  fs::remove_all(dir);
  return run;
}

NetCell run_net_cell(const std::vector<serve::ServeRequest>& stream,
                     std::size_t shards, std::size_t shard_window,
                     std::size_t pipeline, const fs::path& dir,
                     std::string mode, int reps) {
  std::vector<NetRun> runs;
  std::vector<double> seconds, rates;
  for (int r = 0; r < reps; ++r) {
    runs.push_back(run_net_once(stream, shards, shard_window, pipeline, dir,
                                mode == "soak"));
    seconds.push_back(runs.back().seconds);
    rates.push_back(static_cast<double>(stream.size()) /
                    runs.back().seconds);
  }
  NetCell cell;
  cell.mode = std::move(mode);
  cell.shards = shards;
  cell.items = stream.size();
  cell.seconds = bench::spread(seconds);
  cell.offers_per_sec = bench::spread(rates);
  cell.median_run = runs[median_index(rates)];
  return cell;
}

std::string json_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string json_spread(const bench::Spread& s) {
  std::string out = "{\"median\":";
  out.append(json_num(s.median)).append(",\"min\":");
  out.append(json_num(s.min)).append(",\"max\":");
  return out.append(json_num(s.max)).append("}");
}

/// "median (min-max)" offers/sec, in thousands from 10k up.
std::string rate_spread(const bench::Spread& s) {
  const auto fmt = [](double v) {
    return v >= 1e4 ? report::Table::num(v / 1e3, 0) + "k"
                    : report::Table::num(v, 0);
  };
  std::string out = fmt(s.median);
  return out.append(" (").append(fmt(s.min)).append("-").append(fmt(s.max))
      .append(")");
}

}  // namespace

int main(int argc, char** argv) {
  using bench::BenchOptions;
  BenchOptions opts = bench::parse_options(argc, argv);
  std::optional<std::string> json_path;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--json" && i + 1 < argc)
      json_path = argv[i + 1];

  const std::size_t items = opts.quick ? 4000 : 40000;
  const int reps = std::max(5, opts.seeds / 2);

  serve::StreamGenConfig gen;
  gen.target_items = static_cast<int>(items);
  gen.tenants = 64;  // plenty of keys so every shard count gets traffic
  gen.seed = 7;
  gen.log2_mu = 6;
  gen.horizon = 256.0;
  const std::vector<serve::ServeRequest> stream = serve::generate_stream(gen);

  const std::vector<std::size_t> shard_counts =
      opts.quick ? std::vector<std::size_t>{1, 4}
                 : std::vector<std::size_t>{1, 2, 4, 8, 16};
  const std::vector<serve::FsyncPolicy> policies = {
      serve::FsyncPolicy::kNone, serve::FsyncPolicy::kEvery};

  // Per-process name: concurrent runs must not share WAL directories.
  std::string dir_name = "cdbp_bench_serve_throughput.";
  dir_name.append(std::to_string(::getpid()));
  const fs::path dir = fs::temp_directory_path() / dir_name;
  std::vector<Cell> cells;
  std::vector<Cost> cost_at_shards(shard_counts.size(), -1.0);
  for (const serve::FsyncPolicy fsync : policies) {
    for (std::size_t k = 0; k < shard_counts.size(); ++k) {
      std::vector<FileRun> runs;
      std::vector<double> seconds, rates;
      for (int r = 0; r < reps; ++r) {
        runs.push_back(run_cell(stream, shard_counts[k], fsync, dir));
        seconds.push_back(runs.back().seconds);
        rates.push_back(static_cast<double>(stream.size()) /
                        runs.back().seconds);
        // Self-check: the packing outcome is a function of the stream and
        // the shard map, never of the durability policy or the run.
        if (cost_at_shards[k] < 0.0)
          cost_at_shards[k] = runs.back().total_cost;
        else if (runs.back().total_cost != cost_at_shards[k])
          throw std::runtime_error("cost changed with fsync policy at " +
                                   std::to_string(shard_counts[k]) +
                                   " shard(s)");
      }
      Cell cell;
      cell.shards = shard_counts[k];
      cell.fsync = fsync;
      cell.items = stream.size();
      cell.seconds = bench::spread(seconds);
      cell.offers_per_sec = bench::spread(rates);
      cell.median_run = std::move(runs[median_index(rates)]);
      cells.push_back(std::move(cell));
    }
  }

  // Networked sibling cells: the fsync=every router config, fed over
  // loopback instead of the in-process submit loop.
  std::vector<NetCell> net_cells;
  for (const std::size_t shards : shard_counts)
    net_cells.push_back(run_net_cell(
        with_tenants(stream, shard_pinned_tenants(shards)), shards,
        /*shard_window=*/0, /*pipeline=*/256, dir, "pipelined", reps));

  // Connection-scale soak: thousands of tenants, one connection each, in
  // ordered mode (shard_window=1). Throughput here is round-trip-bound by
  // design; the cell exists to prove 10k concurrent connections resolve
  // every offer with zero acked-offer loss.
  {
    std::uint64_t conns = opts.quick ? 1024 : 10000;
    // The load generator forks (run_load_forked), so listener and client
    // each budget ~1 fd per connection against their own limit.
    const std::uint64_t fd_limit = net::raise_nofile_limit(conns + 512);
    if (fd_limit < conns + 256) conns = fd_limit > 768 ? fd_limit - 512 : 128;
    const std::size_t soak_items =
        std::min(stream.size(), static_cast<std::size_t>(conns) * 2);
    std::vector<std::string> names(static_cast<std::size_t>(conns));
    for (std::size_t i = 0; i < names.size(); ++i)
      names[i] = "c" + std::to_string(i);
    const std::vector<serve::ServeRequest> soak_stream = with_tenants(
        {stream.begin(),
         stream.begin() + static_cast<std::ptrdiff_t>(soak_items)},
        names);
    const std::size_t soak_shards = opts.quick ? shard_counts.back() : 8;
    net_cells.push_back(run_net_cell(soak_stream, soak_shards,
                                     /*shard_window=*/1, /*pipeline=*/1, dir,
                                     "soak", reps));
  }

  std::cout << "== E18: serve throughput, " << stream.size()
            << " offers, 64 tenants, " << reps
            << " reps per cell: offers/sec median (min-max), latency of the "
               "median rep ==\n";
  report::Table table({"fsync", "shards", "offers/sec", "p50us", "p95us",
                       "p99us"});
  for (const Cell& c : cells) {
    const obs::HistogramSnapshot& lat = c.median_run.lat;
    table.add_row({serve::to_string(c.fsync), std::to_string(c.shards),
                   rate_spread(c.offers_per_sec),
                   std::to_string(lat.quantile(0.5)),
                   std::to_string(lat.quantile(0.95)),
                   std::to_string(lat.quantile(0.99))});
  }
  std::cout << table.to_string();

  std::cout << "== E18 networked: loopback via NetListener, fsync=every, "
               "client-observed latency ==\n";
  report::Table net_table({"mode", "shards", "conns", "offers", "offers/sec",
                           "p50us", "p95us", "p99us"});
  for (const NetCell& c : net_cells)
    net_table.add_row({c.mode, std::to_string(c.shards),
                       std::to_string(c.median_run.conns),
                       std::to_string(c.items), rate_spread(c.offers_per_sec),
                       std::to_string(c.median_run.p50),
                       std::to_string(c.median_run.p95),
                       std::to_string(c.median_run.p99)});
  std::cout << net_table.to_string();

  // Self-check: the socket front end may tax throughput, but at the
  // comparison shard count it must stay within 2x of the file-fed submit
  // loop under the same durability (quick runs only report the ratio — CI
  // smoke boxes are noisy). Enforced after the results are written, so a
  // failing run still leaves its measurements behind.
  const std::size_t cmp_shards = opts.quick ? shard_counts.back() : 8;
  double file_rate = 0.0;
  double net_rate = 0.0;
  for (const Cell& c : cells)
    if (c.fsync == serve::FsyncPolicy::kEvery && c.shards == cmp_shards)
      file_rate = c.offers_per_sec.median;
  for (const NetCell& c : net_cells)
    if (c.mode == "pipelined" && c.shards == cmp_shards)
      net_rate = c.offers_per_sec.median;
  const double net_ratio = net_rate > 0.0 ? file_rate / net_rate : -1.0;
  std::cout << "file-fed/networked at " << cmp_shards
            << " shards (fsync=every, medians): " << json_num(file_rate)
            << " / " << json_num(net_rate)
            << " offers/sec = " << json_num(net_ratio) << "x\n";

  if (opts.csv_path) {
    report::CsvWriter csv(
        *opts.csv_path,
        {"experiment", "mode", "fsync", "shards", "conns", "offers", "reps",
         "offers_per_sec_median", "offers_per_sec_min", "offers_per_sec_max",
         "lat_p50_us", "lat_p95_us", "lat_p99_us"});
    for (const Cell& c : cells) {
      const obs::HistogramSnapshot& lat = c.median_run.lat;
      csv.add_row({"E18", "file", serve::to_string(c.fsync),
                   std::to_string(c.shards), "0", std::to_string(c.items),
                   std::to_string(reps),
                   report::Table::num(c.offers_per_sec.median, 1),
                   report::Table::num(c.offers_per_sec.min, 1),
                   report::Table::num(c.offers_per_sec.max, 1),
                   std::to_string(lat.quantile(0.5)),
                   std::to_string(lat.quantile(0.95)),
                   std::to_string(lat.quantile(0.99))});
    }
    for (const NetCell& c : net_cells)
      csv.add_row({"E18", "net-" + c.mode, "every", std::to_string(c.shards),
                   std::to_string(c.median_run.conns),
                   std::to_string(c.items), std::to_string(reps),
                   report::Table::num(c.offers_per_sec.median, 1),
                   report::Table::num(c.offers_per_sec.min, 1),
                   report::Table::num(c.offers_per_sec.max, 1),
                   std::to_string(c.median_run.p50),
                   std::to_string(c.median_run.p95),
                   std::to_string(c.median_run.p99)});
  }
  if (json_path) {
    const auto lat_json = [](const obs::HistogramSnapshot& h) {
      std::string s = "{\"count\":" + std::to_string(h.count);
      s += ",\"p50\":" + std::to_string(h.quantile(0.5));
      s += ",\"p95\":" + std::to_string(h.quantile(0.95));
      s += ",\"p99\":" + std::to_string(h.quantile(0.99));
      s += ",\"max\":" + std::to_string(h.max) + "}";
      return s;
    };
    // Stamped before the file is opened: truncating a tracked output
    // would otherwise mark the checkout dirty.
    const std::string provenance = bench::provenance_json();
    std::ofstream f(*json_path);
    f << "{\"experiment\":\"E18\"," << provenance
      << ",\"quick\":" << (opts.quick ? "true" : "false")
      << ",\"reps\":" << reps << ",\"offers\":" << stream.size()
      << ",\"cells\":[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      f << (i ? "," : "") << "\n{\"mode\":\"file\",\"fsync\":\""
        << serve::to_string(c.fsync) << "\",\"shards\":" << c.shards
        << ",\"offers\":" << c.items
        << ",\"seconds\":" << json_spread(c.seconds)
        << ",\"offers_per_sec\":" << json_spread(c.offers_per_sec)
        << ",\"lat_us\":" << lat_json(c.median_run.lat)
        << ",\"shard_lat_us\":[";
      for (std::size_t s = 0; s < c.median_run.shard_lat.size(); ++s)
        f << (s ? "," : "") << lat_json(c.median_run.shard_lat[s]);
      f << "]}";
    }
    for (const NetCell& c : net_cells) {
      const NetRun& r = c.median_run;
      f << ",\n{\"mode\":\"net-" << c.mode
        << "\",\"fsync\":\"every\",\"shards\":" << c.shards
        << ",\"conns\":" << r.conns << ",\"offers\":" << c.items
        << ",\"seconds\":" << json_spread(c.seconds)
        << ",\"offers_per_sec\":" << json_spread(c.offers_per_sec)
        << ",\"client_lat_us\":{\"count\":" << c.items
        << ",\"p50\":" << r.p50 << ",\"p95\":" << r.p95
        << ",\"p99\":" << r.p99 << ",\"max\":" << r.lat_max << "}}";
    }
    f << "],\"file_vs_net\":{\"shards\":" << cmp_shards
      << ",\"file_offers_per_sec\":" << json_num(file_rate)
      << ",\"net_offers_per_sec\":" << json_num(net_rate)
      << ",\"ratio\":" << json_num(net_ratio) << ",\"bound\":2}}\n";
    std::cout << "json written to " << *json_path << "\n";
  }
  if (!opts.quick && net_rate * 2.0 < file_rate)
    throw std::runtime_error(
        "networked throughput fell below half of file-fed");
  std::cout << "self-checks passed: placed == offered in every cell, cost "
               "independent of fsync policy, no acked-offer loss over "
               "loopback\n";
  return 0;
}
