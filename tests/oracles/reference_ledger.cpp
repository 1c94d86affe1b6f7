#include "oracles/reference_ledger.h"

#include <algorithm>
#include <stdexcept>

namespace cdbp::oracles {

void ReferenceLedger::advance_clock(Time now) {
  if (now < clock_) throw std::logic_error("Ledger: time moved backwards");
  clock_ = now;
}

BinRecord& ReferenceLedger::mutable_record(BinId bin) {
  if (bin < 0 || static_cast<std::size_t>(bin) >= bins_.size())
    throw std::out_of_range("Ledger: unknown bin id");
  return bins_[static_cast<std::size_t>(bin)];
}

const BinRecord& ReferenceLedger::record(BinId bin) const {
  if (bin < 0 || static_cast<std::size_t>(bin) >= bins_.size())
    throw std::out_of_range("Ledger: unknown bin id");
  return bins_[static_cast<std::size_t>(bin)];
}

BinId ReferenceLedger::open_bin(Time now, BinGroup group) {
  return open_bin(now, group, /*pool=*/group);
}

BinId ReferenceLedger::open_bin(Time now, BinGroup group, PoolId pool) {
  advance_clock(now);
  const auto id = static_cast<BinId>(bins_.size());
  BinRecord rec;
  rec.id = id;
  rec.group = group;
  rec.opened = now;
  bins_.push_back(std::move(rec));
  index_ref_.push_back(IndexRef{pool, pools_[pool].add_bin(id)});
  open_.insert(id);
  max_open_ = std::max(max_open_, open_.size());
  return id;
}

void ReferenceLedger::place(ItemId id, Load size, BinId bin, Time now) {
  advance_clock(now);
  BinRecord& rec = mutable_record(bin);
  if (!rec.is_open()) throw std::logic_error("Ledger: place into closed bin");
  if (!fits_in_bin(rec.load, size))
    throw std::logic_error("Ledger: bin capacity exceeded");
  if (active_.contains(id)) throw std::logic_error("Ledger: item placed twice");
  rec.load += size;
  rec.active_items += 1;
  rec.all_items.push_back(id);
  active_.emplace(id, ActivePlacement{bin, size});

  const IndexRef& ref = index_ref_[static_cast<std::size_t>(bin)];
  pools_[ref.pool].set_load(ref.slot, rec.load);
}

BinId ReferenceLedger::remove(ItemId id, Time now) {
  advance_clock(now);
  const auto it = active_.find(id);
  if (it == active_.end())
    throw std::logic_error("Ledger: removing item that is not placed");
  const auto [bin, size] = it->second;
  active_.erase(it);

  BinRecord& rec = mutable_record(bin);
  rec.active_items -= 1;
  rec.load -= size;
  if (rec.load < 0.0 && rec.load >= -kLoadEps) rec.load = 0.0;
  const IndexRef& ref = index_ref_[static_cast<std::size_t>(bin)];
  if (rec.active_items == 0) {
    rec.load = 0.0;
    rec.closed = now;
    closed_usage_ += rec.closed - rec.opened;
    open_.erase(bin);
    pools_[ref.pool].close(ref.slot);
  } else {
    pools_[ref.pool].set_load(ref.slot, rec.load);
  }
  return bin;
}

bool ReferenceLedger::fits(BinId bin, Load size) const {
  const BinRecord& rec = record(bin);
  return rec.is_open() && fits_in_bin(rec.load, size);
}

Load ReferenceLedger::load(BinId bin) const { return record(bin).load; }

BinGroup ReferenceLedger::group_of(BinId bin) const {
  return record(bin).group;
}

bool ReferenceLedger::is_open(BinId bin) const {
  return record(bin).is_open();
}

BinId ReferenceLedger::bin_of(ItemId id) const {
  const auto it = active_.find(id);
  return it == active_.end() ? kNoBin : it->second.bin;
}

std::vector<BinId> ReferenceLedger::open_bins_in_group(BinGroup g) const {
  std::vector<BinId> out;
  for (BinId b : open_)
    if (bins_[static_cast<std::size_t>(b)].group == g) out.push_back(b);
  return out;
}

const BinCapacityIndex* ReferenceLedger::pool_index(PoolId pool) const {
  const auto it = pools_.find(pool);
  return it == pools_.end() ? nullptr : &it->second;
}

BinId ReferenceLedger::first_fit(PoolId pool, Load size) const {
  const BinCapacityIndex* idx = pool_index(pool);
  return idx ? idx->first_fit(size) : kNoBin;
}

BinId ReferenceLedger::best_fit(PoolId pool, Load size) const {
  const BinCapacityIndex* idx = pool_index(pool);
  return idx ? idx->best_fit(size) : kNoBin;
}

BinId ReferenceLedger::worst_fit(PoolId pool, Load size) const {
  const BinCapacityIndex* idx = pool_index(pool);
  return idx ? idx->worst_fit(size) : kNoBin;
}

BinId ReferenceLedger::newest_open_in_pool(PoolId pool) const {
  const BinCapacityIndex* idx = pool_index(pool);
  return idx ? idx->newest_open() : kNoBin;
}

std::vector<BinId> ReferenceLedger::open_bins_in_pool(PoolId pool) const {
  std::vector<BinId> out;
  if (const BinCapacityIndex* idx = pool_index(pool)) idx->open_bins_into(out);
  return out;
}

std::size_t ReferenceLedger::open_count_in_pool(PoolId pool) const {
  const BinCapacityIndex* idx = pool_index(pool);
  return idx ? idx->open_count() : 0;
}

PoolId ReferenceLedger::pool_of(BinId bin) const {
  if (bin < 0 || static_cast<std::size_t>(bin) >= index_ref_.size())
    throw std::out_of_range("Ledger: unknown bin id");
  return index_ref_[static_cast<std::size_t>(bin)].pool;
}

Cost ReferenceLedger::total_usage(Time now) const {
  Cost acc = closed_usage_;
  for (BinId b : open_) acc += now - bins_[static_cast<std::size_t>(b)].opened;
  return acc;
}

std::vector<ItemId> ReferenceLedger::active_item_ids() const {
  std::vector<ItemId> out;
  out.reserve(active_.size());
  for (const auto& [id, placement] : active_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

void ReferenceLedger::save_state(StateWriter& w) const {
  w.u64(bins_.size());
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    const BinRecord& rec = bins_[i];
    w.i64(rec.group);
    w.f64(rec.opened);
    w.f64(rec.closed);
    w.f64(rec.load);
    w.u64(rec.active_items);
    w.u64(rec.all_items.size());
    for (ItemId item : rec.all_items) w.i64(item);
    w.i64(index_ref_[i].pool);
    w.u64(index_ref_[i].slot);
  }
  const std::vector<ItemId> active = active_item_ids();
  w.u64(active.size());
  for (ItemId id : active) {
    const ActivePlacement& p = active_.at(id);
    w.i64(id);
    w.i64(p.bin);
    w.f64(p.size);
  }
  w.f64(closed_usage_);
  w.u64(max_open_);
  w.f64(clock_);
}

void ReferenceLedger::load_state(StateReader& r) {
  if (!bins_.empty() || !active_.empty() || clock_ != -kInfTime)
    throw std::logic_error("Ledger::load_state: ledger is not fresh");
  const std::uint64_t n_bins = r.u64();
  for (std::uint64_t i = 0; i < n_bins; ++i) {
    BinRecord rec;
    rec.id = static_cast<BinId>(i);
    rec.group = r.i64();
    rec.opened = r.f64();
    rec.closed = r.f64();
    rec.load = r.f64();
    rec.active_items = r.u64();
    const std::uint64_t n_items = r.u64();
    for (std::uint64_t k = 0; k < n_items; ++k)
      rec.all_items.push_back(r.i64());
    const PoolId pool = r.i64();
    const std::uint64_t slot = r.u64();
    const std::size_t got = pools_[pool].add_bin(rec.id);
    if (got != slot)
      throw std::runtime_error("Ledger::load_state: slot mismatch");
    if (rec.is_open()) {
      open_.insert(rec.id);
      pools_[pool].set_load(got, rec.load);
    } else {
      pools_[pool].close(got);
    }
    index_ref_.push_back(IndexRef{pool, got});
    bins_.push_back(std::move(rec));
  }
  const std::uint64_t n_active = r.u64();
  for (std::uint64_t i = 0; i < n_active; ++i) {
    const ItemId id = r.i64();
    const BinId bin = r.i64();
    const Load size = r.f64();
    active_.emplace(id, ActivePlacement{bin, size});
  }
  closed_usage_ = r.f64();
  max_open_ = r.u64();
  clock_ = r.f64();
}

}  // namespace cdbp::oracles
