// perfbench: the repository benchmark. One run generates its workload's
// inputs from the seed, sets up several times (setup_s is the median),
// then runs the sim, direct and net phases and prints every metric.
//
//   perfbench --workload <tail|no-tail> --seed N --seconds S --trace 0|1
//             --work-dir DIR [--stamp-sha SHA]
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) wrap the same public calls in benchmark-side timing and
// report the per-layer metrics. The last stdout line is the JSON result;
// the exit code is nonzero when any output check failed.
#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "opt/bounds.h"
#include "sim_phase.h"
#include "serve_phases.h"
#include "serve/shard_router.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// The workloads: identical apart from the share of near-capacity items.
const std::vector<WorkloadSpec> kWorkloads = {
    {"tail", 0.01},
    {"no-tail", 0.0},
};

/// Replayed items per sim instance.
constexpr std::size_t kSimItems = 200000;
constexpr int kSetupReps = 3;

/// Share of --seconds given to the sim phase.
constexpr double kSimShare = 0.50;

/// The frozen ladder (offers/s), indexed by Rung. On the 4-vCPU VM it was
/// defined on, this setup saturated at ~330-400k offers/s direct and
/// ~200-270k offers/s over the network (README.md). lo and hi sit at
/// ~15-20% and ~30-40% of the lower (net) saturation: higher rungs spread
/// too much between runs there. max is above both saturation points, so
/// its achieved rate is the server's capacity.
constexpr Ladder kLadder = {40000.0, 80000.0, 600000.0};

/// Share of --seconds per rung, for the direct and the net phase. Every
/// rung is split into kPasses steps that alternate with the other phase
/// and with sim slices, so each rung samples the whole run rather than one
/// stretch of it. The checkpoint step follows the ladder.
constexpr Ladder kDirectShares = {0.06, 0.06, 0.012};
constexpr Ladder kNetShares = {0.05, 0.05, 0.012};
constexpr double kCheckpointShare = 0.03;
constexpr int kPasses = 3;

/// A step of one serve phase: a ladder rung, or the checkpoint step.
struct Step {
  bool checkpoint;
  Rung rung;
  double seconds;

  [[nodiscard]] std::size_t offers() const {
    return step_offers(checkpoint ? kCheckpointRate : kLadder[rung], seconds);
  }
};

/// Step order of one serve phase: kPasses x (lo, hi, max), then the
/// checkpoint step.
std::vector<Step> schedule(double seconds, const Ladder& shares) {
  std::vector<Step> steps;
  for (int p = 0; p < kPasses; ++p)
    for (const Rung r : {kLo, kHi, kMax})
      steps.push_back({false, r, seconds * shares[r] / kPasses});
  steps.push_back({true, kLo, seconds * kCheckpointShare});
  return steps;
}

std::size_t total_offers(const std::vector<Step>& steps) {
  std::size_t n = 0;
  for (const Step& st : steps) n += st.offers();
  return n;
}

/// Per-shard checkpoint period that puts the one checkpoint a quarter of
/// the way into the checkpoint step.
std::uint64_t checkpoint_every(const std::vector<Step>& steps) {
  return (total_offers(steps) - 3 * steps.back().offers() / 4) / kShards;
}

void run_step(OpenLoopPhase& phase, const Step& st) {
  if (st.checkpoint)
    phase.run_checkpoint_step(st.seconds);
  else
    phase.run_rung(st.rung, st.seconds);
}

std::string json_number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out + "\"";
}

std::string ladder_json() {
  std::string out = "{";
  for (std::size_t k = 0; k < kRungs; ++k)
    out += json_string(kRungNames[k]) + ": " + json_number(kLadder[k]) + ", ";
  return out + "\"ckpt\": " + json_number(kCheckpointRate) + "}";
}

std::string metrics_json(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    out += json_string(name) + ": {\"value\": " + json_number(metric.value) +
           ", \"unit\": " + json_string(metric.unit) + "}";
  }
  return out + "}";
}

std::string fs_name(const std::string& path) {
  struct statfs st {};
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

struct Args {
  Settings settings;
  std::string stamp_sha = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  throw std::invalid_argument(
      why +
      "\nusage: perfbench --workload <tail|no-tail> --seed N --seconds S "
      "--trace 0|1 --work-dir DIR [--stamp-sha SHA]");
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      for (const WorkloadSpec& w : kWorkloads)
        if (w.name == val) {
          a.settings.workload = w;
          have_workload = true;
        }
      if (!have_workload) usage("unknown workload " + val);
    } else if (key == "--seed") {
      a.settings.seed = std::stoull(val);
      have_seed = true;
    } else if (key == "--seconds") {
      a.settings.seconds = std::stod(val);
      have_seconds = a.settings.seconds > 0;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("--trace takes 0 or 1");
      a.settings.trace = val == "1";
      have_trace = true;
    } else if (key == "--work-dir") {
      a.settings.work_dir = val;
    } else if (key == "--stamp-sha") {
      a.stamp_sha = val;
    } else {
      usage("unknown argument " + key);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace ||
      a.settings.work_dir.empty())
    usage("missing a required argument");
  return a;
}

struct Inputs {
  SimInputs sim;
  ServeStream stream;
};

/// Generates every input from the seed and brings the serving stack up
/// once (router construction on a fresh WAL directory, then stop).
Inputs set_up(const Settings& s, std::size_t stream_offers) {
  Inputs in;
  in.sim.general = make_general(
      GeneralSpec{kSimItems, s.workload.tail_share}, s.seed);
  in.sim.aligned = make_aligned(kSimItems, s.seed + 1);
  in.sim.lb_general = cdbp::opt::compute_bounds(in.sim.general).lower();
  in.sim.lb_aligned = cdbp::opt::compute_bounds(in.sim.aligned).lower();
  const std::string dir = s.work_dir + "/setup-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::vector<std::string> tenants;
  {
    cdbp::serve::ShardRouter router(serve_config(dir, 0, false), make_ha, "ha");
    tenants = pin_tenants(kShards, [&](std::string_view t) {
      return router.shard_of(t);
    });
    router.stop();
  }
  std::filesystem::remove_all(dir);
  in.stream = make_stream(stream_offers, s.workload.tail_share,
                          std::move(tenants), s.seed + 2);
  return in;
}

int run(const Args& args) {
  const Settings& s = args.settings;
  std::filesystem::create_directories(s.work_dir);
  const std::vector<Step> direct_steps = schedule(s.seconds, kDirectShares);
  const std::vector<Step> net_steps = schedule(s.seconds, kNetShares);
  const std::size_t stream_offers =
      std::max(total_offers(direct_steps), total_offers(net_steps));

  Outcome out;
  SpanLog span_log;
  SpanLog* spans = s.trace ? &span_log : nullptr;

  std::vector<double> setup_s;
  Inputs in;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    in = Inputs{};
    const std::uint64_t t0 = now_ns();
    in = set_up(s, stream_offers);
    setup_s.push_back(seconds_since(t0));
  }
  out.end_to_end["setup_s"] = {median(setup_s), "s"};
  out.samples["setup_s"] = setup_s.size();

  // Sim slices and the two serve phases' steps alternate, so every figure
  // samples the whole run (the machine's speed drifts over seconds).
  SimPhase sim(in.sim, s, out, spans);
  DirectPhase direct(in.stream, kLadder, checkpoint_every(direct_steps), s,
                     out, spans);
  NetPhase net(in.stream, kLadder, checkpoint_every(net_steps), s, out, spans);
  const double sim_slice_s = s.seconds * kSimShare / (kPasses + 1);
  for (std::size_t i = 0; i < direct_steps.size(); ++i) {
    // A sim slice before each pass and before the checkpoint step.
    if (direct_steps[i].checkpoint || direct_steps[i].rung == kLo)
      sim.run_slice(sim_slice_s);
    run_step(direct, direct_steps[i]);
    run_step(net, net_steps[i]);
  }
  direct.finish();
  net.finish();
  if (s.trace) time_single_session(in.stream, s, out);
  direct.report("serve.", "cpu_us_per_offer");
  net.report("net.", "net.cpu_us_per_offer");
  sim.finish();
  if (s.trace)
    out.per_layer["net.overhead_us.lo"] = {
        (net.rungs()[kLo].p50_ms - direct.rungs()[kLo].p50_ms) * 1e3, "us"};

  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  out.end_to_end["peak_rss_mb"] = {static_cast<double>(ru.ru_maxrss) / 1024.0,
                                   "MB"};

  const auto& metrics = s.trace ? out.per_layer : out.end_to_end;
  for (const auto& [name, m] : metrics)
    out.check(std::isfinite(m.value), "metric " + name + " is not finite");

  // Stamped result record (also kept in the work directory).
  std::string samples = "{";
  for (const auto& [name, n] : out.samples) {
    if (samples.size() > 1) samples += ", ";
    samples += json_string(name) + ": " + std::to_string(n);
  }
  samples += "}";
  std::string violations = "[";
  for (const std::string& v : out.violations) {
    if (violations.size() > 1) violations += ", ";
    violations += json_string(v);
  }
  violations += "]";
  const std::string tag = s.workload.name + "-seed" + std::to_string(s.seed) +
                          "-trace" + (s.trace ? "1" : "0");
  const std::string record =
      "{\"workload\": " + json_string(s.workload.name) +
      ", \"seed\": " + std::to_string(s.seed) +
      ", \"seconds\": " + json_number(s.seconds) +
      ", \"trace\": " + (s.trace ? "true" : "false") +
      ", \"git_sha\": " + json_string(args.stamp_sha) +
      ", \"compiler\": " + json_string(std::string("gcc ") + __VERSION__) +
      ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"wal_fs\": " + json_string(fs_name(s.work_dir)) +
      ", \"ladder\": " + ladder_json() +
      ", \"p99_limit_ms\": " + json_number(kP99LimitMs) +
      ", \"samples\": " + samples + ", \"violations\": " + violations +
      ", \"end_to_end\": " + metrics_json(out.end_to_end) +
      ", \"per_layer\": " + metrics_json(out.per_layer) + "}";
  std::ofstream(s.work_dir + "/result-" + tag + ".json") << record << "\n";
  if (spans && !spans->write(s.work_dir + "/trace-" + tag + ".json"))
    out.check(false, "could not write the trace file");

  for (const std::string& v : out.violations)
    std::cerr << "CHECK FAILED: " << v << "\n";
  std::cout << "record " << record << "\n";
  std::cout << "{\"correct\": " << (out.correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
