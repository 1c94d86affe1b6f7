// The two serve phases: the same stream and ladder sent open-loop into an
// in-process ShardRouter (direct) and over CDBPNET1 on loopback into a
// NetListener in front of the same router setup (net). Both stay up for
// the whole run so that their ladder steps can alternate in time.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/algorithm.h"
#include "net/listener.h"
#include "open_loop.h"
#include "serve/shard_router.h"

namespace perfbench {

/// WAL segment rotation threshold of both serve phases' routers.
inline constexpr std::uint64_t kWalSegmentBytes = 4u << 20;

/// The router setup both serve phases use: ha, kShards shards,
/// fsync=every, WAL segment rotation, checkpoints every
/// `checkpoint_every` offers per shard (0 = none).
[[nodiscard]] cdbp::serve::RouterConfig serve_config(
    const std::string& wal_dir, std::uint64_t checkpoint_every, bool resume);

/// Fresh ha instance for the router's shards.
[[nodiscard]] cdbp::AlgorithmPtr make_ha();

/// Exact sums and counts of the serve registry instruments, for the
/// traced run's per-offer ratios over the lo steps.
struct ServeCounters {
  double batch_sum = 0, batch_n = 0, wait_sum = 0, wait_n = 0;
  double append_sum = 0, append_n = 0, commit_sum = 0, commit_n = 0;
  double fsyncs = 0, rounds = 0;

  static ServeCounters read();
  void add_delta(const ServeCounters& before, const ServeCounters& after);
};

/// Applied acks per shard, as the generator counted them.
using ShardAcks = std::array<std::atomic<std::uint64_t>, kShards>;

/// Checks a stopped router against the acks: per shard, its applied
/// count equals the applied acks, and it holds one result per applied
/// ack. Labels violations with `name`.
void check_stopped_router(const std::string& name,
                          const cdbp::serve::ShardRouter& router,
                          const ShardAcks& acked, Outcome& out);

/// What one recovery of a serve phase's WAL took and found.
struct Recovery {
  double seconds = 0.0;  ///< the resume=true constructor
  std::uint64_t replayed = 0, segments = 0, records = 0;
};

/// Recovers the router WAL in `dir` (resume=true) and checks it against
/// the run: per shard, the recovered WAL records equal the applied acks
/// and neither a torn tail nor a degraded shard remains; the recovered
/// cost equals `cost_before` bit for bit.
Recovery recover_and_check(const std::string& name, const std::string& dir,
                           std::uint64_t checkpoint_every,
                           cdbp::Cost cost_before, const ShardAcks& acked,
                           Outcome& out);

class DirectPhase final : public OpenLoopPhase {
 public:
  DirectPhase(const ServeStream& stream, const Ladder& ladder,
              std::uint64_t checkpoint_every, const Settings& s, Outcome& out,
              SpanLog* spans);
  ~DirectPhase() override;

  /// Stops the router without a final checkpoint, checks it against the
  /// acks, then recovers its WAL several times (recover_s is the median
  /// time of the resume=true constructor) and checks every recovery.
  void finish();

 private:
  void send(std::size_t i) override;
  void wait(std::uint64_t until_ns) override;
  [[nodiscard]] std::size_t answered() const override;
  void before_step(Rung k) override;
  void after_step(Rung k, const StepWindow& w) override;

  const Settings& s_;
  std::string dir_;
  std::uint64_t checkpoint_every_;
  std::atomic<std::uint64_t> acks_{0};  ///< terminal acks of any kind
  std::uint64_t refused_ = 0;
  ShardAcks applied_per_shard_{};
  ServeCounters lo_before_, lo_delta_;
  std::size_t applied_lo_ = 0;
  std::vector<double> submit_ns_hi_;
  std::vector<double> ack_lag_us_lo_;
  /// Last: its workers call the ack hook, which writes the members above.
  std::unique_ptr<cdbp::serve::ShardRouter> router_;
};

class NetPhase final : public OpenLoopPhase {
 public:
  NetPhase(const ServeStream& stream, const Ladder& ladder,
           std::uint64_t checkpoint_every, const Settings& s, Outcome& out,
           SpanLog* spans);
  ~NetPhase() override;

  /// Drains and stops the listener and router, checks that every offer
  /// got a terminal answer, then recovers the router's WAL once (untimed)
  /// with the same checks as the direct phase.
  void finish();

 private:
  class Conn;

  void send(std::size_t i) override;
  void wait(std::uint64_t until_ns) override;
  [[nodiscard]] std::size_t answered() const override { return answered_; }
  void before_step(Rung k) override;
  void after_step(Rung k, const StepWindow& w) override;
  /// Flushes output and handles every response that has arrived.
  void pump();
  /// Blocks until a response is readable or `until_ns` passes.
  void wait_readable(std::uint64_t until_ns);

  const Settings& s_;
  std::string dir_;
  std::uint64_t checkpoint_every_;
  std::size_t answered_ = 0;
  /// Connection t carries the tenant pinned to shard t.
  ShardAcks applied_per_shard_{};
  std::size_t hellos_ = 0;
  std::vector<double> encode_ns_;
  std::vector<double> decode_ns_;
  cdbp::net::ListenerCounters lo_before_;
  std::uint64_t lo_read_throttles_ = 0;
  std::uint64_t lo_backpressured_ = 0;
  std::string payload_;
  std::unique_ptr<cdbp::serve::ShardRouter> router_;
  std::unique_ptr<cdbp::net::NetListener> listener_;
  std::vector<std::unique_ptr<Conn>> conns_;  ///< one per tenant/shard
};

/// Times one DurableSession on its own (traced run only): placement, WAL
/// append and commit.
void time_single_session(const ServeStream& stream, const Settings& s,
                         Outcome& out);

}  // namespace perfbench
