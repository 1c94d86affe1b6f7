// ReferenceLedger: the original array-of-structs bin ledger, kept as a
// test-only oracle for the column-store `cdbp::Ledger`.
//
// One BinRecord struct per bin plus a node-based hash map of active items.
// It performs the same floating-point operations in the same order as
// `Ledger`, so costs, loads, records and serialized checkpoints must match
// bit for bit; the equivalence suites (LedgerSoa, StorageEquivalence)
// mirror every ledger operation into it and compare. It always tracks
// items, touches no process-wide metrics, and is linked into the test
// binary only.
#pragma once

#include <cstddef>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/bin_index.h"
#include "core/checkpoint.h"
#include "core/ledger.h"

namespace cdbp::oracles {

class ReferenceLedger {
 public:
  BinId open_bin(Time now, BinGroup group = 0);
  BinId open_bin(Time now, BinGroup group, PoolId pool);
  void place(ItemId id, Load size, BinId bin, Time now);
  BinId remove(ItemId id, Time now);

  [[nodiscard]] bool fits(BinId bin, Load size) const;
  [[nodiscard]] Load load(BinId bin) const;
  [[nodiscard]] BinGroup group_of(BinId bin) const;
  [[nodiscard]] bool is_open(BinId bin) const;
  [[nodiscard]] BinId bin_of(ItemId id) const;

  [[nodiscard]] const std::set<BinId>& open_bins() const noexcept {
    return open_;
  }
  [[nodiscard]] std::vector<BinId> open_bins_in_group(BinGroup g) const;

  [[nodiscard]] BinId first_fit(PoolId pool, Load size) const;
  [[nodiscard]] BinId best_fit(PoolId pool, Load size) const;
  [[nodiscard]] BinId worst_fit(PoolId pool, Load size) const;
  [[nodiscard]] BinId newest_open_in_pool(PoolId pool) const;
  [[nodiscard]] std::vector<BinId> open_bins_in_pool(PoolId pool) const;
  [[nodiscard]] std::size_t open_count_in_pool(PoolId pool) const;
  [[nodiscard]] PoolId pool_of(BinId bin) const;

  [[nodiscard]] Cost total_usage(Time now) const;
  [[nodiscard]] std::size_t bins_opened() const noexcept {
    return bins_.size();
  }
  [[nodiscard]] std::size_t max_open() const noexcept { return max_open_; }
  [[nodiscard]] std::size_t active_items() const noexcept {
    return active_.size();
  }
  [[nodiscard]] const BinRecord& record(BinId bin) const;
  [[nodiscard]] const std::vector<BinRecord>& records() const noexcept {
    return bins_;
  }
  [[nodiscard]] std::vector<ItemId> active_item_ids() const;

  /// Same wire format as Ledger::save_state / Ledger::load_state.
  void save_state(StateWriter& w) const;
  void load_state(StateReader& r);

 private:
  void advance_clock(Time now);
  BinRecord& mutable_record(BinId bin);
  [[nodiscard]] const BinCapacityIndex* pool_index(PoolId pool) const;

  struct ActivePlacement {
    BinId bin;
    Load size;
  };
  /// Where a bin lives inside the capacity indexes.
  struct IndexRef {
    PoolId pool = 0;
    std::size_t slot = 0;
  };

  std::set<BinId> open_;
  Cost closed_usage_ = 0.0;
  std::size_t max_open_ = 0;
  Time clock_ = -kInfTime;
  std::vector<BinRecord> bins_;
  std::vector<IndexRef> index_ref_;  // parallel to bins_
  std::unordered_map<PoolId, BinCapacityIndex> pools_;
  std::unordered_map<ItemId, ActivePlacement> active_;
};

}  // namespace cdbp::oracles
