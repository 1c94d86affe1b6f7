// net phase: the stream sent open-loop over CDBPNET1 on loopback to an
// in-process NetListener in front of the same router setup as the direct
// phase. One generator thread drives one connection per shard; each
// connection carries the tenant pinned to that shard, so every shard still
// sees its offers in arrival order. Frames are built and parsed with the
// public protocol API (encode_request, FrameDecoder, parse_response).
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <ctime>
#include <filesystem>
#include <stdexcept>

#include "net/protocol.h"
#include "serve_phases.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using cdbp::net::AckStatus;
using cdbp::net::DecodeStatus;
using cdbp::net::MsgType;

/// Output buffered per connection before the generator flushes even while
/// it is behind schedule.
constexpr std::size_t kFlushBytes = 16 * 1024;

}  // namespace

/// One client connection: non-blocking socket, pending output, decoder.
class NetPhase::Conn {
 public:
  Conn(std::uint16_t port, const std::string& tenant) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("net: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("net: connect() failed");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
    out_.append(cdbp::net::kMagic, cdbp::net::kMagicLen);
    cdbp::net::Request hello;
    hello.type = MsgType::kHello;
    hello.tenant = tenant;
    cdbp::net::encode_request(hello, out_);
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  std::string& out() { return out_; }
  [[nodiscard]] std::size_t pending() const { return out_.size() - pos_; }
  cdbp::net::FrameDecoder& decoder() { return decoder_; }
  [[nodiscard]] int fd() const { return fd_; }

  /// Writes as much pending output as the socket takes.
  void flush() {
    while (pos_ < out_.size()) {
      const ssize_t n = ::send(fd_, out_.data() + pos_, out_.size() - pos_,
                               MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && (errno == EAGAIN || errno == EINTR)) return;
        throw std::runtime_error("net: send() failed");
      }
      pos_ += static_cast<std::size_t>(n);
    }
    out_.clear();
    pos_ = 0;
  }

  /// Reads what is available into the decoder; false when nothing came.
  bool read() {
    char buf[64 * 1024];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      decoder_.feed(buf, static_cast<std::size_t>(n));
      return true;
    }
    if (n == 0) throw std::runtime_error("net: server closed a connection");
    if (errno != EAGAIN && errno != EINTR)
      throw std::runtime_error("net: recv() failed");
    return false;
  }

 private:
  int fd_ = -1;
  std::string out_;
  std::size_t pos_ = 0;
  cdbp::net::FrameDecoder decoder_;
};

NetPhase::NetPhase(const ServeStream& stream, const Ladder& ladder,
                   std::uint64_t checkpoint_every, const Settings& s,
                   Outcome& out, SpanLog* spans)
    : OpenLoopPhase("net", stream, ladder, out, spans),
      s_(s),
      dir_(s.work_dir + "/net-" + std::to_string(::getpid())),
      checkpoint_every_(checkpoint_every) {
  fs::remove_all(dir_);
  router_ = std::make_unique<cdbp::serve::ShardRouter>(
      serve_config(dir_, checkpoint_every_, false), make_ha, "ha");
  listener_ = std::make_unique<cdbp::net::NetListener>(
      cdbp::net::ListenerConfig{}, *router_);
  for (const std::string& tenant : stream.tenants)
    conns_.push_back(std::make_unique<Conn>(listener_->port(), tenant));
  const std::uint64_t deadline = now_ns() + 10'000'000'000ULL;
  while (hellos_ < conns_.size() && now_ns() < deadline) {
    pump();
    wait_readable(now_ns() + 1'000'000);
  }
  out_.check(hellos_ == conns_.size(), "net: handshake did not complete");
}

NetPhase::~NetPhase() {
  conns_.clear();
  listener_.reset();
  router_.reset();
  fs::remove_all(dir_);
}

void NetPhase::send(std::size_t i) {
  const Offer& o = stream_.offers[i];
  cdbp::net::Request req;
  req.type = MsgType::kOffer;
  req.id = o.stream_index;
  req.arrival = o.arrival;
  req.departure = o.departure;
  req.size = o.size;
  Conn& c = *conns_[o.tenant];
  cdbp::net::encode_request(req, c.out());
  log_.returned[i] = now_ns();
  if (s_.trace)
    encode_ns_.push_back(static_cast<double>(log_.returned[i] - log_.sent[i]));
  // Offers already due ride in one send(): wait() flushes once the
  // generator is on schedule again, or here when a lot has piled up.
  if (c.pending() >= kFlushBytes) pump();
}

void NetPhase::wait(std::uint64_t until_ns) {
  if (now_ns() >= until_ns) return;
  for (pump(); now_ns() < until_ns; pump()) wait_readable(until_ns);
}

void NetPhase::wait_readable(std::uint64_t until_ns) {
  const std::uint64_t now = now_ns();
  if (now >= until_ns) return;
  std::vector<pollfd> fds;
  for (const auto& c : conns_) fds.push_back(pollfd{c->fd(), POLLIN, 0});
  const std::uint64_t wait = until_ns - now;
  const timespec timeout{static_cast<time_t>(wait / 1'000'000'000),
                         static_cast<long>(wait % 1'000'000'000)};
  ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
}

void NetPhase::pump() {
  std::string why;
  for (std::size_t t = 0; t < conns_.size(); ++t) {
    Conn& c = *conns_[t];
    c.flush();
    while (c.read()) {
    }
    for (;;) {
      const std::uint64_t t0 = now_ns();
      const DecodeStatus st = c.decoder().next(payload_);
      if (st == DecodeStatus::kNeedMore) break;
      if (st == DecodeStatus::kBad)
        throw std::runtime_error("net: bad frame: " + c.decoder().error());
      const auto resp = cdbp::net::parse_response(payload_, why);
      const std::uint64_t t1 = now_ns();
      if (!resp) throw std::runtime_error("net: bad response: " + why);
      if (resp->type == MsgType::kAck && resp->ack == AckStatus::kHello) {
        out_.check(resp->shard == t, "net: tenant " + stream_.tenants[t] +
                                         " not pinned to shard " +
                                         std::to_string(t));
        ++hellos_;
        continue;
      }
      if (s_.trace) decode_ns_.push_back(static_cast<double>(t1 - t0));
      if (resp->id == 0 || resp->id > position_[t].size())
        throw std::runtime_error("net: response for an unknown offer");
      const std::size_t i = position_[t][resp->id - 1];
      log_.acked[i] = t1;
      const bool ok =
          resp->type == MsgType::kAck && resp->ack == AckStatus::kApplied;
      log_.state[i].store(ok ? OfferState::kApplied : OfferState::kFailed,
                          std::memory_order_relaxed);
      ++answered_;
      if (ok) applied_per_shard_[t].fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void NetPhase::before_step(Rung k) {
  if (k == kLo) lo_before_ = listener_->counters();
}

void NetPhase::after_step(Rung k, const StepWindow& /*w*/) {
  if (k != kLo) return;
  const cdbp::net::ListenerCounters now = listener_->counters();
  lo_read_throttles_ += now.read_throttles - lo_before_.read_throttles;
  lo_backpressured_ += now.backpressured - lo_before_.backpressured;
}

void NetPhase::finish() {
  listener_->begin_drain();
  out_.check(listener_->drain(10'000), "net: listener did not drain");
  const cdbp::net::ListenerCounters end = listener_->counters();
  conns_.clear();
  listener_->stop();
  router_->stop();
  out_.check(answered_ == sent_,
             "net: " + std::to_string(sent_ - answered_) +
                 " offers lost (no terminal response)");
  const cdbp::Cost cost_before = router_->total_cost();
  check_stopped_router(name_, *router_, applied_per_shard_, out_);
  listener_.reset();
  router_.reset();
  (void)recover_and_check(name_, dir_, checkpoint_every_, cost_before,
                          applied_per_shard_, out_);
  if (!s_.trace) return;

  auto& L = out_.per_layer;
  const double n = static_cast<double>(sent_);
  L["net.bytes_in_per_offer"] = {static_cast<double>(end.bytes_in) / n, "B"};
  L["net.bytes_out_per_offer"] = {static_cast<double>(end.bytes_out) / n, "B"};
  L["net.encode_ns"] = {mean(encode_ns_), "ns"};
  L["net.decode_ns"] = {mean(decode_ns_), "ns"};
  out_.samples["net.encode_ns"] = encode_ns_.size();
  out_.samples["net.decode_ns"] = decode_ns_.size();
  L["net.read_throttles.lo"] = {static_cast<double>(lo_read_throttles_),
                                "count"};
  L["net.backpressured.lo"] = {static_cast<double>(lo_backpressured_),
                               "count"};
  const std::vector<RungLatency> r = rungs();
  L["gen.late_us_p99.net"] = {std::max(r[kLo].late_p99_us, r[kHi].late_p99_us),
                              "us"};
}

}  // namespace perfbench
