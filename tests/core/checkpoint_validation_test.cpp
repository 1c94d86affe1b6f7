// Checkpoint buffers with valid framing but inconsistent contents.
//
// A checkpoint's CRC only proves the bytes arrived intact, not that they
// describe a ledger that could exist. Each test hand-builds one such buffer
// with StateWriter and requires Ledger::load_state or
// InteractiveSession::load_state to reject it with std::runtime_error
// before it can steer a later write out of bounds.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algos/any_fit.h"
#include "core/checkpoint.h"
#include "core/ledger.h"
#include "core/session.h"

namespace cdbp {
namespace {

constexpr std::uint64_t kHuge = std::uint64_t{1} << 60;

struct BinState {
  BinGroup group = 0;
  Time opened = 0.0;
  Time closed = kInfTime;
  Load load = 0.0;
  std::uint64_t active = 0;
  std::vector<ItemId> items;
  PoolId pool = 0;
  std::uint64_t slot = 0;
};

struct ActiveState {
  ItemId id;
  BinId bin;
  Load size;
};

/// The ledger section of a checkpoint, field by field in save_state order.
struct LedgerState {
  std::vector<BinState> bins;
  std::vector<ActiveState> active;
  Cost closed_usage = 0.0;
  std::uint64_t max_open = 0;
  Time clock = 0.0;

  void write(StateWriter& w) const {
    w.u64(bins.size());
    for (const BinState& b : bins) {
      w.i64(b.group);
      w.f64(b.opened);
      w.f64(b.closed);
      w.f64(b.load);
      w.u64(b.active);
      w.u64(b.items.size());
      for (ItemId id : b.items) w.i64(id);
      w.i64(b.pool);
      w.u64(b.slot);
    }
    w.u64(active.size());
    for (const ActiveState& a : active) {
      w.i64(a.id);
      w.i64(a.bin);
      w.f64(a.size);
    }
    w.f64(closed_usage);
    w.u64(max_open);
    w.f64(clock);
  }
};

/// Bin 0 open holding items 0 and 1; bin 1 held item 2 and closed at 2.
LedgerState good_state() {
  LedgerState s;
  s.bins.push_back(BinState{0, 0.0, kInfTime, 0.5, 2, {0, 1}, 0, 0});
  s.bins.push_back(BinState{0, 1.0, 2.0, 0.0, 0, {2}, 0, 1});
  s.active = {{0, 0, 0.25}, {1, 0, 0.25}};
  s.closed_usage = 1.0;
  s.max_open = 2;
  s.clock = 2.0;
  return s;
}

std::string bytes_of(const LedgerState& s) {
  StateWriter w;
  s.write(w);
  return w.buffer();
}

void load_ledger(const std::string& buffer) {
  Ledger ledger;
  StateReader r(buffer);
  ledger.load_state(r);
  // Reached only when the buffer was accepted: exercise the indexes a
  // corrupt entry would poison.
  for (ItemId id : ledger.active_item_ids()) ledger.remove(id, 3.0);
}

TEST(CheckpointValidation, HandBuiltStateMatchesARealLedger) {
  Ledger ledger;
  const BinId a = ledger.open_bin(0.0);
  ledger.place(0, 0.25, a, 0.0);
  ledger.place(1, 0.25, a, 0.0);
  const BinId b = ledger.open_bin(1.0);
  ledger.place(2, 0.5, b, 1.0);
  ledger.remove(2, 2.0);
  StateWriter w;
  ledger.save_state(w);
  EXPECT_EQ(w.buffer(), bytes_of(good_state()));
  EXPECT_NO_THROW(load_ledger(bytes_of(good_state())));
}

TEST(CheckpointValidation, ActiveItemInUnknownBinRejected) {
  for (const BinId bin : {BinId{2}, BinId{1} << 40, BinId{-1}}) {
    LedgerState s = good_state();
    s.active[1].bin = bin;
    EXPECT_THROW(load_ledger(bytes_of(s)), std::runtime_error) << bin;
  }
}

TEST(CheckpointValidation, ActiveItemInClosedBinRejected) {
  LedgerState s = good_state();
  s.bins[0].active = 1;
  s.bins[1].active = 1;  // counts agree; the bin is closed all the same
  s.active[1].bin = 1;
  EXPECT_THROW(load_ledger(bytes_of(s)), std::runtime_error);
}

TEST(CheckpointValidation, DuplicatedActiveItemRejected) {
  LedgerState s = good_state();
  s.active[1].id = 0;
  EXPECT_THROW(load_ledger(bytes_of(s)), std::runtime_error);
}

TEST(CheckpointValidation, ReservedActiveItemIdRejected) {
  LedgerState s = good_state();
  s.active[1].id = std::numeric_limits<ItemId>::min();
  EXPECT_THROW(load_ledger(bytes_of(s)), std::runtime_error);
}

TEST(CheckpointValidation, ActiveCountsMustMatchActiveItems) {
  LedgerState more = good_state();
  more.bins[0].active = 3;  // three claimed, two listed
  EXPECT_THROW(load_ledger(bytes_of(more)), std::runtime_error);

  LedgerState fewer = good_state();
  fewer.bins[0].active = 1;  // one claimed, two listed
  EXPECT_THROW(load_ledger(bytes_of(fewer)), std::runtime_error);

  LedgerState beyond = good_state();
  beyond.bins[0].active = kHuge;  // more than the bin ever held
  EXPECT_THROW(load_ledger(bytes_of(beyond)), std::runtime_error);
}

TEST(CheckpointValidation, CountsBeyondTheBufferRejected) {
  // Each count is patched to 2^60 in place, so the rest of the buffer is
  // well formed; the reader must refuse before sizing anything by it.
  const std::string good = bytes_of(good_state());
  const auto patched = [&](std::size_t offset) {
    StateWriter w;
    w.u64(kHuge);
    std::string out = good;
    out.replace(offset, 8, w.buffer());
    return out;
  };
  const std::size_t bin0_items = 8 + 5 * 8;  // after n_bins and 5 fields
  const std::size_t active_count = 8 + (8 * 8 + 2 * 8) + (8 * 8 + 1 * 8);
  EXPECT_THROW(load_ledger(patched(0)), std::runtime_error);  // n_bins
  EXPECT_THROW(load_ledger(patched(bin0_items)), std::runtime_error);
  EXPECT_THROW(load_ledger(patched(active_count)), std::runtime_error);
}

// --- InteractiveSession ----------------------------------------------------

std::string session_bytes(std::uint64_t n_offered, const LedgerState& ledger) {
  StateWriter w;
  w.f64(ledger.clock);
  w.u64(n_offered);
  for (std::uint64_t i = 0; i < std::min<std::uint64_t>(n_offered, 3); ++i) {
    w.f64(0.0);   // arrival
    w.f64(10.0);  // departure
    w.f64(0.25);  // size
  }
  ledger.write(w);
  return w.buffer();
}

void load_session(const std::string& buffer) {
  algos::FirstFit ff;
  InteractiveSession session(ff);
  StateReader r(buffer);
  session.load_state(r);
  session.finish();
}

TEST(CheckpointValidation, SessionAcceptsConsistentState) {
  EXPECT_NO_THROW(load_session(session_bytes(3, good_state())));
}

TEST(CheckpointValidation, SessionActiveItemNeverOfferedRejected) {
  LedgerState s = good_state();
  s.bins[0].items = {0, 7};
  s.active[1].id = 7;  // only items 0..2 were offered
  EXPECT_THROW(load_session(session_bytes(3, s)), std::runtime_error);
}

TEST(CheckpointValidation, SessionOfferedCountBeyondTheBufferRejected) {
  EXPECT_THROW(load_session(session_bytes(kHuge, good_state())),
               std::runtime_error);
}

}  // namespace
}  // namespace cdbp
