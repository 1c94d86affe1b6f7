// InteractiveSession: the same replay semantics as Simulator, but driven one
// item at a time by a caller that may *adapt* to the algorithm's state —
// exactly what the Section-4 lower-bound adversary needs ("release a prefix
// of sigma*_t and stop as soon as ON opens sqrt(log mu) bins").
#pragma once

#include <queue>
#include <vector>

#include "core/algorithm.h"
#include "core/instance.h"
#include "core/ledger.h"

namespace cdbp {

class InteractiveSession {
 public:
  explicit InteractiveSession(Algorithm& algo) : algo_(&algo) {
    algo_->reset();
  }

  /// Feeds one item (arrival must be >= every previously fed arrival).
  /// Departures due at times <= item.arrival are processed first.
  /// Returns the bin chosen by the algorithm. The item's id is assigned by
  /// the session (sequence number) and returned via the offered item list.
  /// Throws std::invalid_argument on an out-of-order arrival (before the
  /// session clock) or a departure <= arrival, without mutating any state.
  BinId offer(Time arrival, Time departure, Load size);

  /// Advances the clock to `t`, processing departures with time <= t.
  void advance_to(Time t);

  /// Processes every remaining departure and returns the final cost.
  Cost finish();

  /// Number of currently open bins (the adversary's stopping signal).
  [[nodiscard]] std::size_t open_bins() const { return ledger_.open_count(); }

  /// Cost accumulated so far (open bins counted up to the clock).
  [[nodiscard]] Cost cost_so_far() const {
    return ledger_.total_usage(clock_);
  }

  [[nodiscard]] const Ledger& ledger() const { return ledger_; }
  [[nodiscard]] Time clock() const { return clock_; }

  /// Everything offered so far, as an Instance (finalized copy) — this is
  /// the sigma the adversary constructed, used to evaluate OPT on it.
  [[nodiscard]] Instance to_instance() const;

  /// Serializes the session (clock, offered items, full ledger state). The
  /// driven algorithm's state is NOT included — the caller saves it
  /// alongside iff the algorithm is Checkpointable (see src/serve/).
  /// `load_state` restores into a freshly constructed session (throws
  /// std::logic_error otherwise) and rebuilds the departure queue from the
  /// ledger's active items, after which the session continues
  /// bit-identically with the one that was saved. A buffer whose contents
  /// are inconsistent (see Ledger::load_state; also an active item id that
  /// was never offered) throws std::runtime_error.
  void save_state(StateWriter& w) const;
  void load_state(StateReader& r);

 private:
  struct Departure {
    Time time;
    ItemId item;
    friend bool operator>(const Departure& a, const Departure& b) {
      if (a.time != b.time) return a.time > b.time;
      return a.item > b.item;
    }
  };

  void drain_until(Time t_inclusive);

  Algorithm* algo_;
  Ledger ledger_;
  std::vector<Item> offered_;
  std::priority_queue<Departure, std::vector<Departure>, std::greater<>> dq_;
  std::vector<ItemId> active_scratch_;  ///< load_state rebuild buffer
  Time clock_ = 0.0;
};

}  // namespace cdbp
