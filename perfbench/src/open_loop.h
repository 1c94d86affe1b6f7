// The open-loop generator both serve phases share. Offers are sent on a
// fixed schedule whatever the server does, and every latency is measured
// from the offer's *scheduled* send time, so a stall charges its wait to
// every offer queued behind it (no coordinated omission).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "inputs.h"
#include "obs/metrics.h"
#include "stats.h"

namespace perfbench {

/// The rungs of the rate ladder both serve phases walk, lowest first.
/// kMax is offered above the server's saturation point, so its achieved
/// rate is the server's capacity.
enum Rung : std::size_t { kLo, kHi, kMax, kRungs };

/// Rung names as they appear in metric names.
inline constexpr std::array<const char*, kRungs> kRungNames = {"lo", "hi",
                                                               "max"};

/// Absolute offer rates (offers/s) per rung, frozen in main.cpp.
using Ladder = std::array<double, kRungs>;

/// Rate of the checkpoint step. That step is not part of the ladder: it
/// runs after the rungs and holds the run's one checkpoint, so the rungs
/// measure serving without a checkpoint stall while recovery still loads
/// a checkpoint and replays a WAL tail.
inline constexpr double kCheckpointRate = 40000.0;

/// Offers one step sends at `rate` for `seconds`.
[[nodiscard]] inline std::size_t step_offers(double rate, double seconds) {
  return static_cast<std::size_t>(rate * seconds);
}

/// p99 offer->ack limit a ladder step must meet to count for max_rate.
inline constexpr double kP99LimitMs = 50.0;
/// Shards of both serve phases' routers.
inline constexpr std::size_t kShards = 2;

/// Outcome of one ladder rung (all its steps) as seen by the generator.
struct RungLatency {
  StepOutcome outcome;  ///< p99_ms: median over windows of each window's p99
  double p50_ms = 0.0;  ///< median over windows of each window's p50
  std::size_t windows = 0;
  std::size_t thin_windows = 0;  ///< windows too small for a p99
  double late_p99_us = 0.0;   ///< generator lateness against schedule
  std::size_t queue_peak = 0;  ///< sampled summed shard queue depth
  double cpu_us_per_offer = 0.0;  ///< median over steps, server CPU
};

/// Terminal state of one offer as the generator saw it.
enum class OfferState : std::uint8_t {
  kPending,  ///< sent (or about to be), no terminal answer yet
  kApplied,  ///< acked as placed and durable
  kFailed,   ///< refused, dropped, invalid or answered with an error
};

/// Per-offer timestamps, indexed by stream position.
struct OfferLog {
  explicit OfferLog(std::size_t n)
      : due(n), sent(n), returned(n), acked(n), state(n) {}

  /// True once offer `i` was acked as applied; its `acked` time is then
  /// visible (the acker stores `acked` before releasing `state`).
  [[nodiscard]] bool applied(std::size_t i) const {
    return state[i].load(std::memory_order_acquire) == OfferState::kApplied;
  }

  std::vector<std::uint64_t> due;       ///< scheduled send time
  std::vector<std::uint64_t> sent;      ///< actual send time
  std::vector<std::uint64_t> returned;  ///< send call returned
  std::vector<std::uint64_t> acked;     ///< terminal answer seen
  std::vector<std::atomic<OfferState>> state;  ///< starts kPending
};

/// Live summed request-queue depth of the router's shards, read from the
/// registry gauges the router keeps.
class QueueDepth {
 public:
  QueueDepth();
  [[nodiscard]] std::size_t total() const;

 private:
  std::vector<cdbp::obs::Gauge*> gauges_;
};

/// Latency quantiles are taken per window of this many seconds of
/// scheduled sends, and a rung reports the median over its windows: a
/// stall that hits a few windows moves their p99, not the rung's.
inline constexpr double kWindowSeconds = 0.1;

/// One step: offers [begin, end) sent at `rate` from `start_ns`, cut into
/// equal latency windows of about kWindowSeconds each.
struct StepWindow {
  StepWindow(std::size_t first, std::size_t count, double offered_rate);

  /// Offers [window_begin(j), window_begin(j + 1)) form window j.
  [[nodiscard]] std::size_t window_begin(std::size_t j) const {
    return begin + j * (end - begin) / windows;
  }
  /// Records a sampled queue depth at offer `i`.
  void sample_queue(std::size_t i, std::size_t depth);

  std::size_t begin;
  std::size_t end;
  double rate;
  std::size_t windows;  ///< latency windows, at least one
  std::vector<std::size_t> queue_peaks;  ///< per window
  std::uint64_t start_ns = 0;
  std::size_t outstanding_at_end = 0;  ///< sent - answered after the last send
};

/// What the steps of one rung add up to, over all its passes.
struct RungStats {
  std::vector<double> window_p50, window_p99;  ///< ms, one per window
  std::vector<double> late_us;                 ///< per offer
  std::size_t samples = 0;       ///< applied offers (latency samples)
  std::size_t thin_windows = 0;  ///< windows too small for a p99
  std::size_t queue_peak = 0;
  std::uint64_t failed = 0;
  bool backlog_growing = false;
  double active_s = 0.0;  ///< sum over passes of first due -> last ack
  /// Per step: CPU the server's threads used (process CPU minus the
  /// generator thread's) from the first send until the step drained, per
  /// applied offer.
  std::vector<double> cpu_us_per_offer;
};

/// Folds one drained step into its rung. The backlog grows when, at the
/// end of the step, the offers still owed — sent but unanswered (the
/// queued ones included), plus those the generator had not sent yet —
/// exceed the limit's worth of arrivals. A stall the step recovered from
/// before its end is not growth.
void add_step(const OfferLog& log, const StepWindow& w, RungStats& rung);

/// The rung's summary: medians over its windows, achieved rate, lateness.
[[nodiscard]] RungLatency summarize(const RungStats& rung, double rate);

/// Drives one serve target through ladder steps. Subclasses say how an
/// offer is sent, how the generator waits (handling answers as they
/// come), and how many offers have a terminal answer.
class OpenLoopPhase {
 public:
  OpenLoopPhase(std::string name, const ServeStream& stream,
                const Ladder& ladder, Outcome& out, SpanLog* spans);
  virtual ~OpenLoopPhase() = default;
  OpenLoopPhase(const OpenLoopPhase&) = delete;
  OpenLoopPhase& operator=(const OpenLoopPhase&) = delete;

  /// Sends the next `seconds` worth of offers at rung `k`'s rate, then
  /// waits (bounded) until each has its terminal answer.
  void run_rung(Rung k, double seconds);

  /// The same at kCheckpointRate, for the step that holds the checkpoint.
  void run_checkpoint_step(double seconds);

  /// Summaries per rung over all passes so far.
  [[nodiscard]] std::vector<RungLatency> rungs() const;

  /// Counts attempts and failures and reports the rung metrics under
  /// `layer` ("serve." or "net."); the server CPU per applied offer at
  /// the max rung is the end-to-end metric `cpu_metric`.
  void report(const std::string& layer, const std::string& cpu_metric);

 protected:
  /// Sends offer `i`; sets log_.returned[i], and marks a refusal failed.
  virtual void send(std::size_t i) = 0;
  /// Returns once `until_ns` has passed, handling answers meanwhile.
  virtual void wait(std::uint64_t until_ns) = 0;
  /// Offers with a terminal answer (a refusal counts).
  [[nodiscard]] virtual std::size_t answered() const = 0;
  /// Hooks around each step, for the traced run's per-layer readings.
  virtual void before_step(Rung /*k*/) {}
  virtual void after_step(Rung /*k*/, const StepWindow& /*w*/) {}

  std::string name_;
  const ServeStream& stream_;
  const Ladder ladder_;
  Outcome& out_;
  SpanLog* spans_;
  OfferLog log_;
  /// (tenant, stream_index) -> stream position, for answers.
  std::vector<std::vector<std::uint32_t>> position_;
  std::size_t sent_ = 0;

 private:
  /// Sends one step at `rate` and folds it into `stats`.
  StepWindow run_step(double rate, double seconds, const std::string& label,
                      RungStats& stats);

  QueueDepth depth_;
  std::array<RungStats, kRungs> stats_;
  RungStats checkpoint_stats_;
};

}  // namespace perfbench
