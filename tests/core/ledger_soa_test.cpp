// The column-store (SoA) ledger and its flat active-item map.
//
// The heavy cross-algorithm equivalence lives in
// tests/integration/equivalence_test.cpp (StorageEquivalence); this file
// covers the pieces directly: FlatItemMap behavior under growth and
// backward-shift deletion, the ledger's observable state mirroring the
// AoS ReferenceLedger oracle op by op, its error paths (the same as the
// oracle's), the *_into query variants, throughput mode
// (track_items=false), and checkpoint compatibility with the oracle
// (byte-identical buffers, either direction of restore).
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/flat_item_map.h"
#include "core/ledger.h"
#include "oracles/reference_ledger.h"

namespace cdbp {
namespace {

// --- FlatItemMap -----------------------------------------------------------

TEST(FlatItemMap, InsertFindTakeEraseLifecycle) {
  FlatItemMap map;
  EXPECT_TRUE(map.empty());
  EXPECT_TRUE(map.insert(7, 2, 0.25));
  EXPECT_FALSE(map.insert(7, 3, 0.5));  // duplicate id keeps the original
  ASSERT_NE(map.find(7), nullptr);
  EXPECT_EQ(map.find(7)->bin, 2);
  EXPECT_DOUBLE_EQ(map.find(7)->size, 0.25);
  EXPECT_EQ(map.find(8), nullptr);
  EXPECT_EQ(map.size(), 1u);

  BinId bin = kNoBin;
  Load size = 0.0;
  EXPECT_TRUE(map.take(7, bin, size));
  EXPECT_EQ(bin, 2);
  EXPECT_DOUBLE_EQ(size, 0.25);
  EXPECT_FALSE(map.take(7, bin, size));
  EXPECT_TRUE(map.empty());

  EXPECT_TRUE(map.insert(9, 1, 0.1));
  EXPECT_TRUE(map.erase(9));
  EXPECT_FALSE(map.erase(9));
}

TEST(FlatItemMap, ReservedKeyRejected) {
  FlatItemMap map;
  EXPECT_THROW(map.insert(FlatItemMap::kEmptyKey, 0, 0.1),
               std::invalid_argument);
}

TEST(FlatItemMap, MirrorsUnorderedMapUnderRandomChurn) {
  // Random insert/erase churn cross-checked against std::unordered_map:
  // exercises growth, collisions, and backward-shift deletion together.
  std::mt19937_64 rng(7);
  FlatItemMap map;
  std::unordered_map<ItemId, std::pair<BinId, Load>> mirror;
  for (int op = 0; op < 20000; ++op) {
    const ItemId id = static_cast<ItemId>(rng() % 4096);
    if (rng() % 3 != 0) {
      const BinId bin = static_cast<BinId>(rng() % 100);
      const Load size = static_cast<double>(rng() % 1000) / 1000.0;
      EXPECT_EQ(map.insert(id, bin, size),
                mirror.emplace(id, std::make_pair(bin, size)).second);
    } else {
      BinId bin = kNoBin;
      Load size = 0.0;
      const auto it = mirror.find(id);
      const bool expect_hit = it != mirror.end();
      EXPECT_EQ(map.take(id, bin, size), expect_hit);
      if (expect_hit) {
        EXPECT_EQ(bin, it->second.first);
        EXPECT_EQ(size, it->second.second);
        mirror.erase(it);
      }
    }
    ASSERT_EQ(map.size(), mirror.size());
  }
  // Everything still findable with the right payload after the churn.
  std::size_t visited = 0;
  map.for_each([&](const FlatItemMap::Slot& s) {
    const auto it = mirror.find(s.id);
    ASSERT_NE(it, mirror.end());
    EXPECT_EQ(s.bin, it->second.first);
    EXPECT_EQ(s.size, it->second.second);
    ++visited;
  });
  EXPECT_EQ(visited, mirror.size());
}

TEST(FlatItemMap, ClearResets) {
  FlatItemMap map;
  for (ItemId id = 0; id < 100; ++id) map.insert(id, 0, 0.1);
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(5), nullptr);
  EXPECT_TRUE(map.insert(5, 1, 0.2));
}

using oracles::ReferenceLedger;

// --- Ledger vs the ReferenceLedger oracle ---------------------------------

TEST(LedgerSoa, MirrorsReferenceUnderRandomOps) {
  // Drive the ledger and the oracle through one random op sequence and
  // compare every observable after every op. Bitwise comparisons
  // throughout: the column store must do the identical FP arithmetic.
  std::mt19937_64 rng(11);
  ReferenceLedger ref;
  Ledger soa;

  Time now = 0.0;
  std::vector<ItemId> active;
  ItemId next_item = 0;
  for (int op = 0; op < 2000; ++op) {
    now += static_cast<double>(rng() % 4) * 0.25;
    const Load size = static_cast<double>(1 + rng() % 999) / 1000.0;
    const PoolId pool = static_cast<PoolId>(rng() % 3);
    BinId touched = kNoBin;  // the bin this op placed into or removed from
    ItemId item = 0;
    if (active.empty() || rng() % 3 != 0) {
      touched = ref.first_fit(pool, size);
      ASSERT_EQ(touched, soa.first_fit(pool, size));
      if (touched == kNoBin) {
        touched = ref.open_bin(now, pool, pool);
        ASSERT_EQ(touched, soa.open_bin(now, pool, pool));
      }
      item = next_item++;
      ref.place(item, size, touched, now);
      soa.place(item, size, touched, now);
      active.push_back(item);
    } else {
      const std::size_t k = rng() % active.size();
      item = active[k];
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(k));
      touched = ref.remove(item, now);
      ASSERT_EQ(touched, soa.remove(item, now));
    }
    ASSERT_EQ(ref.bin_of(item), soa.bin_of(item));
    ASSERT_EQ(ref.is_open(touched), soa.is_open(touched));
    ASSERT_EQ(ref.group_of(touched), soa.group_of(touched));
    ASSERT_EQ(ref.load(touched), soa.load(touched));  // bitwise
    ASSERT_EQ(ref.fits(touched, size), soa.fits(touched, size));
    ASSERT_EQ(ref.open_bins(), soa.open_bins());
    ASSERT_EQ(ref.bins_opened(), soa.bins_opened());
    ASSERT_EQ(ref.active_items(), soa.active_items());
    ASSERT_EQ(ref.max_open(), soa.max_open());
    ASSERT_EQ(ref.total_usage(now), soa.total_usage(now));  // bitwise
    for (const PoolId p : {PoolId{0}, PoolId{1}, PoolId{2}}) {
      ASSERT_EQ(ref.best_fit(p, size), soa.best_fit(p, size));
      ASSERT_EQ(ref.worst_fit(p, size), soa.worst_fit(p, size));
      ASSERT_EQ(ref.newest_open_in_pool(p), soa.newest_open_in_pool(p));
      ASSERT_EQ(ref.open_count_in_pool(p), soa.open_count_in_pool(p));
      ASSERT_EQ(ref.open_bins_in_pool(p), soa.open_bins_in_pool(p));
      ASSERT_EQ(ref.open_bins_in_group(p), soa.open_bins_in_group(p));
    }
  }
  // Per-bin records and item lists agree once materialized.
  ASSERT_EQ(ref.records().size(), soa.records().size());
  for (std::size_t b = 0; b < ref.records().size(); ++b) {
    const BinRecord& r = ref.records()[b];
    const BinRecord& s = soa.records()[b];
    EXPECT_EQ(r.id, s.id);
    EXPECT_EQ(r.group, s.group);
    EXPECT_EQ(r.opened, s.opened);
    EXPECT_EQ(r.closed, s.closed);
    EXPECT_EQ(r.load, s.load);
    EXPECT_EQ(r.active_items, s.active_items);
    EXPECT_EQ(r.all_items, s.all_items);
    EXPECT_EQ(ref.pool_of(r.id), soa.pool_of(s.id));
  }
  ASSERT_EQ(ref.active_item_ids(), soa.active_item_ids());
  // Mid-run checkpoints (items still active) are byte-identical too.
  StateWriter wr, ws;
  ref.save_state(wr);
  soa.save_state(ws);
  EXPECT_EQ(wr.buffer(), ws.buffer());
}

template <typename L>
void expect_error_paths(L& ledger) {
  const BinId b = ledger.open_bin(0.0);
  ledger.place(0, 0.7, b, 0.0);
  EXPECT_THROW(ledger.place(1, 0.4, b, 0.0), std::logic_error);  // overflow
  EXPECT_THROW(ledger.place(0, 0.1, b, 0.0), std::logic_error);  // twice
  EXPECT_THROW(ledger.remove(99, 1.0), std::logic_error);  // ghost removal
  EXPECT_THROW(ledger.open_bin(-1.0), std::logic_error);   // time backwards
  EXPECT_THROW((void)ledger.load(42), std::out_of_range);  // unknown bin
  EXPECT_THROW((void)ledger.record(42), std::out_of_range);
  EXPECT_THROW((void)ledger.pool_of(42), std::out_of_range);
  ledger.remove(0, 1.0);  // closes b
  EXPECT_THROW(ledger.place(2, 0.1, b, 1.0), std::logic_error);  // closed
}

TEST(LedgerSoa, ErrorPathsMatchReference) {
  ReferenceLedger ref;
  Ledger soa;
  expect_error_paths(ref);
  expect_error_paths(soa);
}

TEST(LedgerSoa, IntoVariantsMatchAllocatingQueries) {
  Ledger ledger;
  const BinId a = ledger.open_bin(0.0, /*group=*/1);
  const BinId b = ledger.open_bin(0.0, /*group=*/2);
  ledger.place(0, 0.3, a, 0.0);
  ledger.place(1, 0.4, b, 0.0);
  ledger.place(2, 0.2, a, 1.0);

  std::vector<BinId> bins{kNoBin};  // non-empty: _into must clear first
  ledger.open_bins_into(bins);
  EXPECT_EQ(bins, std::vector<BinId>(ledger.open_bins().begin(),
                                     ledger.open_bins().end()));
  ledger.open_bins_in_group_into(1, bins);
  EXPECT_EQ(bins, ledger.open_bins_in_group(1));
  ledger.open_bins_in_pool_into(1, bins);
  EXPECT_EQ(bins, ledger.open_bins_in_pool(1));
  ledger.open_bins_in_pool_into(99, bins);  // unknown pool clears
  EXPECT_TRUE(bins.empty());

  std::vector<ItemId> items{42};
  ledger.active_item_ids_into(items);
  EXPECT_EQ(items, ledger.active_item_ids());
  EXPECT_EQ(items, (std::vector<ItemId>{0, 1, 2}));
}

TEST(LedgerSoa, ThroughputModeDropsItemLog) {
  Ledger ledger(/*track_items=*/false);
  EXPECT_FALSE(ledger.tracks_items());
  const BinId b = ledger.open_bin(0.0);
  ledger.place(0, 0.5, b, 0.0);
  ledger.place(1, 0.25, b, 0.0);
  // Costs and loads are unaffected; only the per-item history is gone.
  EXPECT_DOUBLE_EQ(ledger.load(b), 0.75);
  EXPECT_TRUE(ledger.record(b).all_items.empty());
  StateWriter w;
  EXPECT_THROW(ledger.save_state(w), std::logic_error);
}

// --- Checkpoints shared with the oracle -------------------------------------

template <typename L>
void drive(L& ledger) {
  const BinId a = ledger.open_bin(0.0, /*group=*/0, /*pool=*/0);
  const BinId b = ledger.open_bin(1.0, /*group=*/1, /*pool=*/7);
  ledger.place(0, 0.5, a, 1.0);
  ledger.place(1, 0.25, b, 1.5);
  ledger.place(2, 0.125, a, 2.0);
  ledger.remove(0, 3.0);
  const BinId c = ledger.open_bin(4.0, /*group=*/0, /*pool=*/0);
  ledger.place(3, 0.875, c, 4.0);
  ledger.remove(3, 5.0);  // closes c
}

TEST(LedgerSoa, CheckpointsAreByteIdenticalAcrossBackends) {
  ReferenceLedger ref;
  Ledger soa;
  drive(ref);
  drive(soa);
  StateWriter wr, ws;
  ref.save_state(wr);
  soa.save_state(ws);
  EXPECT_EQ(wr.buffer(), ws.buffer());
}

/// Restores `buffer` into a fresh `Reader` and checks it answers like
/// `writer` and re-serializes to the same bytes.
template <typename Reader, typename Writer>
void expect_restores(const std::string& buffer, const Writer& writer) {
  Reader restored;
  StateReader r(buffer);
  restored.load_state(r);
  EXPECT_TRUE(r.at_end());
  // Identical observable state, including the capacity indexes...
  EXPECT_EQ(restored.open_bins(), writer.open_bins());
  EXPECT_EQ(restored.total_usage(5.0), writer.total_usage(5.0));
  EXPECT_EQ(restored.first_fit(0, 0.3), writer.first_fit(0, 0.3));
  EXPECT_EQ(restored.best_fit(7, 0.3), writer.best_fit(7, 0.3));
  EXPECT_EQ(restored.active_item_ids(), writer.active_item_ids());
  // ...and a re-serialization reproduces the original bytes.
  StateWriter again;
  restored.save_state(again);
  EXPECT_EQ(again.buffer(), buffer);
}

TEST(LedgerSoa, EitherBackendRestoresTheOtherBackendsCheckpoint) {
  ReferenceLedger ref;
  Ledger soa;
  drive(ref);
  drive(soa);
  StateWriter wr, ws;
  ref.save_state(wr);
  soa.save_state(ws);
  expect_restores<Ledger>(wr.buffer(), ref);
  expect_restores<ReferenceLedger>(wr.buffer(), ref);
  expect_restores<Ledger>(ws.buffer(), soa);
  expect_restores<ReferenceLedger>(ws.buffer(), soa);
}

TEST(LedgerSoa, LoadStateRequiresFreshLedger) {
  Ledger writer;
  drive(writer);
  StateWriter w;
  writer.save_state(w);
  Ledger dirty;
  dirty.open_bin(0.0);
  StateReader r(w.buffer());
  EXPECT_THROW(dirty.load_state(r), std::logic_error);
}

}  // namespace
}  // namespace cdbp
