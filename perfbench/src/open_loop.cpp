#include "open_loop.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <stdexcept>

namespace perfbench {
namespace {

std::uint64_t cpu_clock_ns(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// CPU time of every thread but the calling (generator) one: the router's
/// workers and, in the net phase, the listener's event loops.
std::uint64_t server_cpu_ns() {
  return cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID) -
         cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID);
}

}  // namespace

QueueDepth::QueueDepth() {
  auto& reg = cdbp::obs::MetricsRegistry::global();
  for (std::size_t i = 0; i < kShards; ++i)
    gauges_.push_back(&reg.gauge("serve.queue_depth.shard" + std::to_string(i)));
}

std::size_t QueueDepth::total() const {
  double sum = 0.0;
  for (const auto* g : gauges_) sum += g->value();
  return static_cast<std::size_t>(sum);
}

StepWindow::StepWindow(std::size_t first, std::size_t count,
                       double offered_rate)
    : begin(first),
      end(first + count),
      rate(offered_rate),
      windows(std::max<std::size_t>(
          1, static_cast<std::size_t>(std::lround(
                 static_cast<double>(count) / (offered_rate * kWindowSeconds))))),
      queue_peaks(windows, 0) {}

void StepWindow::sample_queue(std::size_t i, std::size_t depth) {
  std::size_t& peak = queue_peaks[(i - begin) * windows / (end - begin)];
  peak = std::max(peak, depth);
}

void add_step(const OfferLog& log, const StepWindow& w, RungStats& rung) {
  std::vector<double> latency_ms;
  std::uint64_t last_ack = w.start_ns;
  for (std::size_t j = 0; j < w.windows; ++j) {
    latency_ms.clear();
    for (std::size_t i = w.window_begin(j); i < w.window_begin(j + 1); ++i) {
      rung.late_us.push_back(
          static_cast<double>(log.sent[i] > log.due[i] ? log.sent[i] - log.due[i]
                                                       : 0) *
          1e-3);
      if (!log.applied(i)) {
        ++rung.failed;
        continue;
      }
      latency_ms.push_back(static_cast<double>(log.acked[i] - log.due[i]) *
                           1e-6);
      last_ack = std::max(last_ack, log.acked[i]);
    }
    rung.samples += latency_ms.size();
    if (!percentile_reportable(latency_ms.size(), 0.99)) ++rung.thin_windows;
    rung.window_p50.push_back(percentile(latency_ms, 0.5));
    rung.window_p99.push_back(percentile(latency_ms, 0.99));
  }
  rung.active_s += static_cast<double>(last_ack - w.start_ns) * 1e-9;
  rung.queue_peak = std::max(
      rung.queue_peak, *std::max_element(w.queue_peaks.begin(), w.queue_peaks.end()));
  const double last_late_s =
      w.end > w.begin && log.sent[w.end - 1] > log.due[w.end - 1]
          ? static_cast<double>(log.sent[w.end - 1] - log.due[w.end - 1]) * 1e-9
          : 0.0;
  const double owed =
      static_cast<double>(w.outstanding_at_end) + last_late_s * w.rate;
  rung.backlog_growing |= owed > w.rate * kP99LimitMs * 1e-3;
}

RungLatency summarize(const RungStats& rung, double rate) {
  RungLatency r;
  r.outcome.offered_rate = rate;
  r.outcome.samples = rung.samples;
  r.outcome.failed = rung.failed;
  r.outcome.backlog_growing = rung.backlog_growing;
  r.outcome.p99_ms = median(rung.window_p99);
  r.outcome.achieved_rate =
      rung.active_s > 0 ? static_cast<double>(rung.samples) / rung.active_s
                        : 0.0;
  r.p50_ms = median(rung.window_p50);
  r.windows = rung.window_p99.size();
  r.thin_windows = rung.thin_windows;
  std::vector<double> late = rung.late_us;
  r.late_p99_us = percentile(late, 0.99);
  r.queue_peak = rung.queue_peak;
  r.cpu_us_per_offer = median(rung.cpu_us_per_offer);
  return r;
}

OpenLoopPhase::OpenLoopPhase(std::string name, const ServeStream& stream,
                             const Ladder& ladder, Outcome& out, SpanLog* spans)
    : name_(std::move(name)),
      stream_(stream),
      ladder_(ladder),
      out_(out),
      spans_(spans),
      log_(stream.offers.size()),
      position_(stream.tenants.size()) {
  for (std::size_t i = 0; i < stream.offers.size(); ++i)
    position_[stream.offers[i].tenant].push_back(static_cast<std::uint32_t>(i));
}

void OpenLoopPhase::run_rung(Rung k, double seconds) {
  before_step(k);
  const StepWindow w = run_step(ladder_[k], seconds, kRungNames[k], stats_[k]);
  after_step(k, w);
}

void OpenLoopPhase::run_checkpoint_step(double seconds) {
  (void)run_step(kCheckpointRate, seconds, "ckpt", checkpoint_stats_);
}

StepWindow OpenLoopPhase::run_step(double rate, double seconds,
                                   const std::string& label,
                                   RungStats& stats) {
  StepWindow w(sent_, step_offers(rate, seconds), rate);
  if (w.end > log_.due.size())
    throw std::logic_error("open loop: stream shorter than the schedule");
  const double interval_ns = 1e9 / rate;
  const std::uint64_t cpu0 = server_cpu_ns();
  w.start_ns = now_ns() + 1'000'000;
  for (std::size_t i = w.begin; i < w.end; ++i) {
    log_.due[i] = w.start_ns + static_cast<std::uint64_t>(
                                   static_cast<double>(i - w.begin) *
                                   interval_ns);
    wait(log_.due[i]);
    log_.sent[i] = now_ns();
    send(i);
    w.sample_queue(i, depth_.total());
  }
  w.outstanding_at_end = w.end - answered();
  // Drain the step before the next one starts (bounded; anything still
  // pending afterwards counts as failed).
  const std::uint64_t deadline = now_ns() + 30'000'000'000ULL;
  while (answered() < w.end && now_ns() < deadline)
    wait(now_ns() + 200'000);
  const double cpu_us = static_cast<double>(server_cpu_ns() - cpu0) * 1e-3;
  sent_ = w.end;
  const std::size_t applied_before = stats.samples;
  add_step(log_, w, stats);
  if (stats.samples > applied_before)
    stats.cpu_us_per_offer.push_back(
        cpu_us / static_cast<double>(stats.samples - applied_before));
  if (spans_) {
    // Every 64th offer's send and ack spans; the offer index links them.
    const std::int64_t step_span =
        spans_->add(name_ + ".step." + label, w.start_ns, now_ns());
    for (std::size_t i = w.begin; i < w.end; i += 64) {
      spans_->add(name_ + ".send", log_.sent[i], log_.returned[i], step_span,
                  i + 1);
      if (log_.applied(i))
        spans_->add(name_ + ".ack_wait", log_.returned[i], log_.acked[i],
                    step_span, i + 1);
    }
  }
  return w;
}

std::vector<RungLatency> OpenLoopPhase::rungs() const {
  std::vector<RungLatency> r;
  for (std::size_t k = 0; k < kRungs; ++k)
    r.push_back(summarize(stats_[k], ladder_[k]));
  return r;
}

void OpenLoopPhase::report(const std::string& layer,
                           const std::string& cpu_metric) {
  std::uint64_t applied = 0;
  for (std::size_t i = 0; i < sent_; ++i)
    if (log_.applied(i)) ++applied;
  out_.attempted += sent_;
  out_.failed += sent_ - applied;

  const std::vector<RungLatency> r = rungs();
  const RungLatency ckpt = summarize(checkpoint_stats_, kCheckpointRate);
  const auto print = [&](const char* label, const RungLatency& st) {
    std::fprintf(stderr,
                 "%s %-4s rate %8.0f achieved %9.1f p50 %7.3f ms p99 %8.3f ms "
                 "windows %3zu late_p99 %8.1f us queue_peak %5zu backlog %d "
                 "failed %llu cpu %6.2f us/offer\n",
                 name_.c_str(), label, st.outcome.offered_rate,
                 st.outcome.achieved_rate, st.p50_ms, st.outcome.p99_ms,
                 st.windows, st.late_p99_us, st.queue_peak,
                 st.outcome.backlog_growing ? 1 : 0,
                 static_cast<unsigned long long>(st.outcome.failed),
                 st.cpu_us_per_offer);
    out_.samples[layer + "ack_ms." + label] = st.outcome.samples;
    out_.check(st.thin_windows == 0, name_ + " " + label +
                                         ": too few acks for a p99");
  };
  std::vector<StepOutcome> ladder_steps;
  for (const Rung k : {kLo, kHi, kMax}) {
    print(kRungNames[k], r[k]);
    ladder_steps.push_back(r[k].outcome);
  }
  print("ckpt", ckpt);

  // Server CPU per applied offer at saturation, where group commit
  // batches are full: the end-to-end serving figure. Wall-clock capacity
  // and latency are per-layer figures: with fsync=every they follow the
  // shared disk's fsync latency, which moved them by several times between
  // runs on the VM the benchmark was defined on (README.md).
  out_.end_to_end[cpu_metric] = {r[kMax].cpu_us_per_offer, "us"};
  out_.samples[cpu_metric] = r[kMax].outcome.samples;

  auto& L = out_.per_layer;
  for (const Rung k : {kLo, kHi}) {
    L[layer + "ack_p50_ms." + kRungNames[k]] = {r[k].p50_ms, "ms"};
    L[layer + "ack_p99_ms." + kRungNames[k]] = {r[k].outcome.p99_ms, "ms"};
  }
  L[layer + "ckpt_step_p99_ms"] = {ckpt.outcome.p99_ms, "ms"};
  L[layer + "sat_rate"] = {r[kMax].outcome.achieved_rate, "1/s"};
  const int best = max_rate_step(ladder_steps, kP99LimitMs);
  L[layer + "max_rate"] = {
      best < 0 ? 0.0 : ladder_steps[static_cast<std::size_t>(best)].achieved_rate,
      "1/s"};
}

}  // namespace perfbench
