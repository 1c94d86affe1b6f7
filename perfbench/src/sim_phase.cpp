// sim phase: single-threaded Simulator::run replays of ff, bf and ha over
// the general instance and of cdff over the aligned one, round-robin.
// Reports the median replay rate per algorithm and the paper's quality
// metric cost / LB.
#include <bit>
#include <memory>
#include <numeric>

#include "algos/any_fit.h"
#include "algos/cdff.h"
#include "algos/hybrid.h"
#include "core/time_types.h"
#include "obs/metrics.h"
#include "sim_phase.h"

namespace perfbench {
namespace {

using cdbp::Algorithm;
using cdbp::AlgorithmPtr;
using cdbp::BinId;
using cdbp::Item;
using cdbp::Ledger;

/// Decorator that times every algorithm callback (traced run only).
class TimedAlgorithm final : public Algorithm {
 public:
  explicit TimedAlgorithm(Algorithm& inner) : inner_(inner) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }

  BinId on_arrival(const Item& item, Ledger& ledger) override {
    const std::uint64_t t0 = now_ns();
    const BinId bin = inner_.on_arrival(item, ledger);
    arrival_ns.push_back(static_cast<double>(now_ns() - t0));
    return bin;
  }

  void on_departure(const Item& item, BinId bin, bool bin_closed,
                    Ledger& ledger) override {
    const std::uint64_t t0 = now_ns();
    inner_.on_departure(item, bin, bin_closed, ledger);
    departure_ns.push_back(static_cast<double>(now_ns() - t0));
  }

  void reset() override {
    inner_.reset();
    arrival_ns.clear();
    departure_ns.clear();
  }

  std::vector<double> arrival_ns;
  std::vector<double> departure_ns;

 private:
  Algorithm& inner_;
};

bool same_result(const cdbp::RunResult& a, const cdbp::RunResult& b) {
  return std::bit_cast<std::uint64_t>(a.cost) ==
             std::bit_cast<std::uint64_t>(b.cost) &&
         a.bins_opened == b.bins_opened && a.max_open == b.max_open &&
         a.items == b.items;
}

std::uint64_t counter(const char* name) {
  return cdbp::obs::MetricsRegistry::global().counter(name).value();
}

}  // namespace

SimPhase::SimPhase(const SimInputs& in, const Settings& s, Outcome& out,
                   SpanLog* spans)
    : in_(in),
      s_(s),
      out_(out),
      spans_(spans),
      cases_{
          {"ff", [] { return std::make_unique<cdbp::algos::FirstFit>(); },
           false},
          {"bf", [] { return std::make_unique<cdbp::algos::BestFit>(); },
           false},
          {"ha", [] { return std::make_unique<cdbp::algos::Hybrid>(); },
           false},
          {"cdff", [] { return std::make_unique<cdbp::algos::Cdff>(); },
           true},
      },
      series_(cases_.size()) {}

void SimPhase::run_slice(double budget_s) {
  const cdbp::Simulator sim{cdbp::SimulatorOptions{.keep_history = false}};
  const std::uint64_t start = now_ns();
  // At least one round per slice. In the traced run these untraced
  // replays are the baseline for trace.overhead_frac.
  do {
    for (std::size_t c = 0; c < cases_.size(); ++c) {
      const Case& k = cases_[c];
      const AlgorithmPtr algo = k.make();
      const std::uint64_t t0 = now_ns();
      cdbp::RunResult r = sim.run(k.aligned ? in_.aligned : in_.general, *algo);
      const std::uint64_t t1 = now_ns();
      if (spans_) spans_->add("sim.run." + k.key, t0, t1);
      Series& series = series_[c];
      series.seconds.push_back(static_cast<double>(t1 - t0) * 1e-9);
      out_.attempted += r.items;
      if (series.seconds.size() == 1) {
        series.first = std::move(r);
      } else {
        out_.check(same_result(r, series.first),
                   "sim: " + k.key + " repetition " +
                       std::to_string(series.seconds.size()) +
                       " differs from the first");
      }
    }
  } while (seconds_since(start) < budget_s);
}

void SimPhase::finish() {
  const cdbp::Simulator sim{cdbp::SimulatorOptions{.keep_history = false}};
  double untraced_total = 0.0;
  for (std::size_t c = 0; c < cases_.size(); ++c) {
    const Case& k = cases_[c];
    const cdbp::RunResult& r = series_[c].first;
    const double lb = k.aligned ? in_.lb_aligned : in_.lb_general;
    const std::size_t items = k.aligned ? in_.aligned.size() : in_.general.size();
    out_.check(r.items == items, "sim: " + k.key + " replayed " +
                                     std::to_string(r.items) + " of " +
                                     std::to_string(items) + " items");
    out_.check(lb > 0.0 && r.cost >= lb * (1.0 - 1e-9),
               "sim: " + k.key + " cost below the lower bound");
    const double med = median(series_[c].seconds);
    untraced_total += med;
    out_.end_to_end["items_per_s." + k.key] = {
        static_cast<double>(items) / med, "1/s"};
    out_.samples["items_per_s." + k.key] = series_[c].seconds.size();
    if (k.key == "ha" || k.key == "cdff")
      out_.end_to_end["cost_ratio." + k.key] = {r.cost / lb, "ratio"};
  }
  if (!s_.trace) return;

  // Traced replays: one per algorithm through the timing decorator, with
  // the index probe counters read around it.
  double traced_total = 0.0;
  for (std::size_t c = 0; c < cases_.size(); ++c) {
    const Case& k = cases_[c];
    const cdbp::Instance& inst = k.aligned ? in_.aligned : in_.general;
    const AlgorithmPtr inner = k.make();
    TimedAlgorithm timed(*inner);
    timed.arrival_ns.reserve(inst.size());
    timed.departure_ns.reserve(inst.size());
    const std::uint64_t probes0 = counter("index.probes");
    const std::uint64_t steps0 = counter("index.probe_steps");
    const std::uint64_t t0 = now_ns();
    const cdbp::RunResult r = sim.run(inst, timed);
    const std::uint64_t t1 = now_ns();
    const std::uint64_t probes = counter("index.probes") - probes0;
    const std::uint64_t steps = counter("index.probe_steps") - steps0;
    out_.attempted += r.items;
    out_.check(same_result(r, series_[c].first),
               "sim: traced " + k.key + " replay differs from untraced");
    spans_->add("sim.traced_run." + k.key, t0, t1);

    const double n = static_cast<double>(inst.size());
    const double wall_ns = static_cast<double>(t1 - t0);
    traced_total += wall_ns * 1e-9;
    const double in_algo =
        std::accumulate(timed.arrival_ns.begin(), timed.arrival_ns.end(), 0.0) +
        std::accumulate(timed.departure_ns.begin(), timed.departure_ns.end(),
                        0.0);
    auto& L = out_.per_layer;
    L["core.sim.self_ns_per_item." + k.key] = {(wall_ns - in_algo) / n, "ns"};
    L["core.index.probes_per_item." + k.key] = {
        static_cast<double>(probes) / n, "count"};
    L["core.index.probe_steps_per_item." + k.key] = {
        static_cast<double>(steps) / n, "count"};
    L["core.bins_opened." + k.key] = {static_cast<double>(r.bins_opened),
                                      "count"};
    L["core.peak_open." + k.key] = {static_cast<double>(r.max_open), "count"};
    L["algos.arrival_ns.mean." + k.key] = {mean(timed.arrival_ns), "ns"};
    L["algos.departure_ns.mean." + k.key] = {mean(timed.departure_ns), "ns"};
    out_.samples["algos.arrival_ns." + k.key] = timed.arrival_ns.size();
    out_.samples["algos.departure_ns." + k.key] = timed.departure_ns.size();
    L["algos.arrival_ns.p50." + k.key] = {percentile(timed.arrival_ns, 0.5),
                                          "ns"};
    L["algos.departure_ns.p50." + k.key] = {
        percentile(timed.departure_ns, 0.5), "ns"};
  }
  out_.per_layer["trace.overhead_frac"] = {
      traced_total / untraced_total - 1.0, "ratio"};

  // BestFit's capacity bound on its own: the public max_load_admitting
  // over every arrival size of the instance BF replays. index.probe_steps
  // does not count this walk, so it is timed separately.
  double sink = 0.0;
  const std::uint64_t t0 = now_ns();
  for (const Item& item : in_.general.items())
    sink += cdbp::max_load_admitting(item.size);
  const std::uint64_t t1 = now_ns();
  spans_->add("core.fit_bound.bf", t0, t1);
  out_.check(sink > 0.0, "sim: max_load_admitting returned no bound");
  const double bound_ns = static_cast<double>(t1 - t0) /
                          static_cast<double>(in_.general.size());
  out_.per_layer["core.fit_bound_ns.bf"] = {bound_ns, "ns"};
  out_.per_layer["core.fit_bound_share.bf"] = {
      bound_ns / (1e9 / out_.end_to_end["items_per_s.bf"].value), "ratio"};
}

}  // namespace perfbench
