// direct phase: one generator thread submits the stream with
// ShardRouter::try_submit to an in-process router (ha, fsync=every,
// periodic checkpoints, WAL segment rotation). Afterwards the router is
// stopped without a final checkpoint and recovered from the WAL the ladder
// wrote; recover_s times the resume=true constructor.
//
// Also holds the single-session timing of the traced run, which times
// placement, WAL append and commit of one DurableSession on their own.
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <thread>

#include "algos/hybrid.h"
#include "core/session.h"
#include "serve/durable_session.h"
#include "serve_phases.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using cdbp::serve::AckKind;
using cdbp::serve::RouterConfig;
using cdbp::serve::ShardRouter;

constexpr int kRecoverReps = 5;

/// Exact sum/count of a per-shard registry histogram, summed over shards.
std::pair<double, double> shard_hist(const std::string& base) {
  double sum = 0.0, count = 0.0;
  auto& reg = cdbp::obs::MetricsRegistry::global();
  for (std::size_t i = 0; i < kShards; ++i) {
    const auto snap =
        reg.histogram(base + ".shard" + std::to_string(i)).snapshot();
    sum += static_cast<double>(snap.sum);
    count += static_cast<double>(snap.count);
  }
  return {sum, count};
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::uint64_t wal_bytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.is_regular_file() &&
        e.path().filename().string().find(".wal") != std::string::npos)
      bytes += e.file_size();
  return bytes;
}

}  // namespace

cdbp::AlgorithmPtr make_ha() { return std::make_unique<cdbp::algos::Hybrid>(); }

RouterConfig serve_config(const std::string& wal_dir,
                          std::uint64_t checkpoint_every, bool resume) {
  RouterConfig c;
  c.wal_dir = wal_dir;
  c.shards = kShards;
  c.fsync = cdbp::serve::FsyncPolicy::kEvery;
  c.checkpoint_every = checkpoint_every;
  c.wal_segment_bytes = kWalSegmentBytes;
  c.resume = resume;
  return c;
}

ServeCounters ServeCounters::read() {
  auto& reg = cdbp::obs::MetricsRegistry::global();
  ServeCounters c;
  std::tie(c.batch_sum, c.batch_n) = shard_hist("serve.batch_size");
  std::tie(c.wait_sum, c.wait_n) = shard_hist("serve.queue_wait_us");
  std::tie(c.append_sum, c.append_n) = shard_hist("serve.wal_append_us");
  std::tie(c.commit_sum, c.commit_n) = shard_hist("serve.commit_us");
  c.fsyncs = static_cast<double>(reg.counter("wal.fsyncs").value());
  c.rounds =
      static_cast<double>(reg.counter("wal.group_commit.rounds").value());
  return c;
}

void ServeCounters::add_delta(const ServeCounters& a, const ServeCounters& b) {
  batch_sum += b.batch_sum - a.batch_sum;
  batch_n += b.batch_n - a.batch_n;
  wait_sum += b.wait_sum - a.wait_sum;
  wait_n += b.wait_n - a.wait_n;
  append_sum += b.append_sum - a.append_sum;
  append_n += b.append_n - a.append_n;
  commit_sum += b.commit_sum - a.commit_sum;
  commit_n += b.commit_n - a.commit_n;
  fsyncs += b.fsyncs - a.fsyncs;
  rounds += b.rounds - a.rounds;
}

DirectPhase::DirectPhase(const ServeStream& stream, const Ladder& ladder,
                         std::uint64_t checkpoint_every, const Settings& s,
                         Outcome& out, SpanLog* spans)
    : OpenLoopPhase("direct", stream, ladder, out, spans),
      s_(s),
      dir_(s.work_dir + "/direct-" + std::to_string(::getpid())),
      checkpoint_every_(checkpoint_every) {
  fs::remove_all(dir_);
  router_ = std::make_unique<ShardRouter>(
      serve_config(dir_, checkpoint_every_, false), make_ha, "ha");
  router_->set_on_ack([this](const cdbp::serve::ServeResult& r,
                             AckKind kind) {
    const std::uint64_t t = now_ns();
    std::size_t tenant = 0;
    while (stream_.tenants[tenant] != r.tenant) ++tenant;
    const std::size_t i = position_[tenant][r.stream_index - 1];
    log_.acked[i] = t;
    if (kind == AckKind::kApplied)
      applied_per_shard_[r.shard].fetch_add(1, std::memory_order_relaxed);
    log_.state[i].store(kind == AckKind::kApplied ? OfferState::kApplied
                                                  : OfferState::kFailed,
                        std::memory_order_release);
    acks_.fetch_add(1, std::memory_order_release);
  });
}

DirectPhase::~DirectPhase() {
  router_.reset();
  fs::remove_all(dir_);
}

void DirectPhase::send(std::size_t i) {
  const Offer& o = stream_.offers[i];
  const auto status = router_->try_submit(cdbp::serve::ServeRequest{
      stream_.tenants[o.tenant], o.stream_index, o.arrival, o.departure,
      o.size, 0});
  log_.returned[i] = now_ns();
  if (status != cdbp::serve::SubmitStatus::kAccepted) {
    log_.state[i].store(OfferState::kFailed, std::memory_order_relaxed);
    ++refused_;
  }
}

void DirectPhase::wait(std::uint64_t until_ns) {
  // Sleep, never spin: the generator must not take a core from the server
  // it measures. Sleep overshoot (the timer slack, ~50 us) makes an
  // on-time generator send in small bursts; each offer is still timed from
  // its own scheduled send time.
  const std::uint64_t now = now_ns();
  if (now < until_ns)
    std::this_thread::sleep_for(std::chrono::nanoseconds(until_ns - now));
}

std::size_t DirectPhase::answered() const {
  return acks_.load(std::memory_order_acquire) + refused_;
}

void DirectPhase::before_step(Rung k) {
  if (k == kLo) lo_before_ = ServeCounters::read();
}

void DirectPhase::after_step(Rung k, const StepWindow& w) {
  if (k == kLo) {
    lo_delta_.add_delta(lo_before_, ServeCounters::read());
    for (std::size_t i = w.begin; i < w.end; ++i) {
      if (!log_.applied(i)) continue;
      ++applied_lo_;
      ack_lag_us_lo_.push_back(
          static_cast<double>(log_.acked[i] - log_.returned[i]) * 1e-3);
    }
  }
  if (k == kHi)
    for (std::size_t i = w.begin; i < w.end; ++i)
      submit_ns_hi_.push_back(
          static_cast<double>(log_.returned[i] - log_.sent[i]));
}

void check_stopped_router(const std::string& name, const ShardRouter& router,
                          const ShardAcks& acked, Outcome& out) {
  std::uint64_t applied = 0;
  for (std::size_t sh = 0; sh < kShards; ++sh) {
    applied += acked[sh].load();
    out.check(router.stats(sh).applied == acked[sh].load(),
              name + ": shard " + std::to_string(sh) +
                  " applied count differs from its acks");
  }
  out.check(router.results().size() == applied,
            name + ": router results differ from the acked offers");
}

Recovery recover_and_check(const std::string& name, const std::string& dir,
                           std::uint64_t checkpoint_every,
                           cdbp::Cost cost_before, const ShardAcks& acked,
                           Outcome& out) {
  Recovery rec;
  const std::uint64_t t0 = now_ns();
  ShardRouter router(serve_config(dir, checkpoint_every, true), make_ha, "ha");
  rec.seconds = seconds_since(t0);
  router.stop();
  out.check(std::bit_cast<std::uint64_t>(router.total_cost()) ==
                std::bit_cast<std::uint64_t>(cost_before),
            name + ": cost after recovery differs from cost before restart");
  for (std::size_t sh = 0; sh < kShards; ++sh) {
    const auto& st = router.stats(sh);
    out.check(st.wal_records == acked[sh].load(),
              name + ": shard " + std::to_string(sh) + " recovered " +
                  std::to_string(st.wal_records) + " records, acked " +
                  std::to_string(acked[sh].load()));
    out.check(!st.recovery.torn && !st.degraded,
              name + ": shard " + std::to_string(sh) + " recovery not clean");
    rec.replayed += st.recovery.replayed;
    rec.segments += st.recovery.segments_scanned;
    rec.records += st.recovery.records;
  }
  return rec;
}

void DirectPhase::finish() {
  router_->stop();
  const cdbp::Cost cost_before = router_->total_cost();
  check_stopped_router(name_, *router_, applied_per_shard_, out_);
  router_.reset();

  // Recovery: every acked offer must come back from the WAL, and the
  // recovered shards must finish at the same cost, bit for bit.
  std::vector<double> recover_s;
  Recovery first;
  for (int rep = 0; rep < kRecoverReps; ++rep) {
    const std::uint64_t t0 = now_ns();
    const Recovery rec = recover_and_check(name_, dir_, checkpoint_every_,
                                           cost_before, applied_per_shard_,
                                           out_);
    if (spans_) spans_->add("direct.recover", t0, now_ns());
    recover_s.push_back(rec.seconds);
    if (rep == 0) first = rec;
  }
  out_.end_to_end["recover_s"] = {median(recover_s), "s"};
  out_.samples["recover_s"] = recover_s.size();
  if (!s_.trace) return;

  auto& L = out_.per_layer;
  const double n_lo = static_cast<double>(applied_lo_);
  L["serve.submit_ns.p50"] = {percentile(submit_ns_hi_, 0.5), "ns"};
  L["serve.submit_ns.p99"] = {percentile(submit_ns_hi_, 0.99), "ns"};
  out_.samples["serve.submit_ns"] = submit_ns_hi_.size();
  L["serve.ack_lag_us.p50"] = {percentile(ack_lag_us_lo_, 0.5), "us"};
  out_.samples["serve.ack_lag_us"] = ack_lag_us_lo_.size();
  const ServeCounters& c = lo_delta_;
  L["serve.batch_size_mean"] = {ratio(c.batch_sum, c.batch_n), "count"};
  L["serve.fsyncs_per_offer"] = {ratio(c.fsyncs, n_lo), "count"};
  L["serve.group_commit_rounds_per_offer"] = {ratio(c.rounds, n_lo), "count"};
  L["serve.queue_wait_us_mean"] = {ratio(c.wait_sum, c.wait_n), "us"};
  L["serve.wal_append_us_mean"] = {ratio(c.append_sum, c.append_n), "us"};
  L["serve.commit_us_mean"] = {ratio(c.commit_sum, c.commit_n), "us"};
  const std::vector<RungLatency> r = rungs();
  L["serve.queue_peak.hi"] = {static_cast<double>(r[kHi].queue_peak), "count"};
  L["gen.late_us_p99"] = {std::max(r[kLo].late_p99_us, r[kHi].late_p99_us),
                          "us"};
  L["serve.wal_bytes_per_offer"] = {
      ratio(static_cast<double>(wal_bytes(dir_)),
            static_cast<double>(first.records)),
      "B"};
  L["serve.recovery.replayed"] = {static_cast<double>(first.replayed),
                                  "count"};
  L["serve.recovery.segments_scanned"] = {static_cast<double>(first.segments),
                                          "count"};
}

void time_single_session(const ServeStream& stream, const Settings& s,
                         Outcome& out) {
  constexpr std::size_t kOffers = 20000;
  constexpr std::size_t kBatch = 64;
  const std::size_t n = std::min(kOffers, stream.offers.size());

  // Placement alone: an in-memory session over the same algorithm.
  cdbp::algos::Hybrid ha;
  cdbp::InteractiveSession session(ha);
  std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    const Offer& o = stream.offers[i];
    (void)session.offer(o.arrival, o.departure, o.size);
  }
  const double place_ns = static_cast<double>(now_ns() - t0) /
                          static_cast<double>(n);

  // Placement + WAL append (deferred), then one commit per batch.
  const std::string dir =
      s.work_dir + "/session-" + std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  cdbp::serve::DurableSessionConfig c;
  c.wal_path = dir + "/session.wal";
  c.checkpoint_path = dir + "/session.ckpt";
  c.fsync = cdbp::serve::FsyncPolicy::kEvery;
  c.wal_segment_bytes = kWalSegmentBytes;
  std::uint64_t deferred_ns = 0;
  std::uint64_t commit_ns = 0;
  std::size_t commits = 0;
  {
    cdbp::serve::DurableSession durable(make_ha(), "ha", c);
    for (std::size_t i = 0; i < n; ++i) {
      const Offer& o = stream.offers[i];
      t0 = now_ns();
      (void)durable.offer_deferred(o.arrival, o.departure, o.size, i + 1);
      deferred_ns += now_ns() - t0;
      if ((i + 1) % kBatch == 0 || i + 1 == n) {
        t0 = now_ns();
        durable.commit();
        commit_ns += now_ns() - t0;
        ++commits;
      }
    }
    out.check(durable.seq() == n, "session: durable session lost offers");
    durable.close();
  }
  fs::remove_all(dir);
  out.attempted += 2 * n;
  auto& L = out.per_layer;
  L["serve.session.place_ns"] = {place_ns, "ns"};
  L["serve.session.append_ns"] = {
      static_cast<double>(deferred_ns) / static_cast<double>(n) - place_ns,
      "ns"};
  L["serve.session.commit_us"] = {
      static_cast<double>(commit_ns) * 1e-3 / static_cast<double>(commits),
      "us"};
  out.samples["serve.session"] = n;
}

}  // namespace perfbench
