#include "core/session.h"

#include <stdexcept>

namespace cdbp {

void InteractiveSession::drain_until(Time t_inclusive) {
  while (!dq_.empty() && dq_.top().time <= t_inclusive) {
    const Departure d = dq_.top();
    dq_.pop();
    clock_ = std::max(clock_, d.time);
    const BinId bin = ledger_.remove(d.item, d.time);
    const bool closed = !ledger_.is_open(bin);
    algo_->on_departure(offered_[static_cast<std::size_t>(d.item)], bin,
                        closed, ledger_);
  }
}

BinId InteractiveSession::offer(Time arrival, Time departure, Load size) {
  // Input validation (not internal invariants): a service front end feeds
  // untrusted streams through here, so bad requests must be rejected with
  // std::invalid_argument before any state is touched.
  if (arrival < clock_)
    throw std::invalid_argument(
        "InteractiveSession: arrival is before the session clock "
        "(out-of-order offer)");
  if (!(departure > arrival))
    throw std::invalid_argument("InteractiveSession: departure <= arrival");
  drain_until(arrival);
  clock_ = arrival;

  Item item;
  item.id = static_cast<ItemId>(offered_.size());
  item.arrival = arrival;
  item.departure = departure;
  item.size = size;
  offered_.push_back(item);

  const BinId bin = algo_->on_arrival(item, ledger_);
  if (ledger_.bin_of(item.id) != bin)
    throw std::logic_error(
        "InteractiveSession: algorithm did not place the item in the bin it "
        "returned");
  dq_.push(Departure{departure, item.id});
  return bin;
}

void InteractiveSession::advance_to(Time t) {
  if (t < clock_)
    throw std::invalid_argument("InteractiveSession: advancing backwards");
  drain_until(t);
  clock_ = t;
}

Cost InteractiveSession::finish() {
  drain_until(kInfTime);
  if (!offered_.empty()) clock_ = std::max(clock_, ledger_.clock());
  return ledger_.total_usage(clock_);
}

Instance InteractiveSession::to_instance() const {
  return Instance{offered_};
}

void InteractiveSession::save_state(StateWriter& w) const {
  w.f64(clock_);
  w.u64(offered_.size());
  for (const Item& item : offered_) {
    w.f64(item.arrival);
    w.f64(item.departure);
    w.f64(item.size);
  }
  ledger_.save_state(w);
}

void InteractiveSession::load_state(StateReader& r) {
  if (!offered_.empty() || !dq_.empty())
    throw std::logic_error("InteractiveSession::load_state: session not fresh");
  clock_ = r.f64();
  const std::uint64_t n = r.u64();
  // Three f64 per item: a count the buffer cannot hold is rejected before
  // it sizes an allocation.
  if (n > r.remaining() / (3 * 8))
    throw std::runtime_error(
        "InteractiveSession::load_state: item count exceeds the buffer");
  offered_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Item item;
    item.id = static_cast<ItemId>(i);
    item.arrival = r.f64();
    item.departure = r.f64();
    item.size = r.f64();
    offered_.push_back(item);
  }
  ledger_.load_state(r);
  // The departure queue is exactly the still-active items: drain_until
  // pops every departure <= clock_ before an offer completes, so each
  // pending departure belongs to an active placement and vice versa.
  ledger_.active_item_ids_into(active_scratch_);
  for (ItemId id : active_scratch_) {
    if (id < 0 || static_cast<std::uint64_t>(id) >= n)
      throw std::runtime_error(
          "InteractiveSession::load_state: active item was never offered");
    dq_.push(Departure{offered_[static_cast<std::size_t>(id)].departure, id});
  }
}

}  // namespace cdbp
