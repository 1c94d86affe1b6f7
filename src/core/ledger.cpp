#include "core/ledger.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/obs.h"

namespace cdbp {

namespace {

// Process-wide instruments; resolved at static-init time, then a relaxed
// atomic op per event.  The open-bins gauge tracks the most recent ledger
// touched, which is what a live trace wants (per-run breakdowns come from
// RunResult).
obs::Counter& g_bins_opened =
    obs::MetricsRegistry::global().counter("ledger.bins_opened");
obs::Counter& g_bins_closed =
    obs::MetricsRegistry::global().counter("ledger.bins_closed");
obs::Gauge& g_open_bins =
    obs::MetricsRegistry::global().gauge("ledger.open_bins");

// Smallest serialized sizes, used to bound counts read from a checkpoint
// before anything is reserved: a bin is eight 8-byte fields plus its item
// list, an item list entry one i64, an active entry (id, bin, size).
constexpr std::size_t kBinBytes = 8 * 8;
constexpr std::size_t kItemBytes = 8;
constexpr std::size_t kActiveBytes = 3 * 8;

[[noreturn]] void bad_state(const char* what) {
  throw std::runtime_error(std::string("Ledger::load_state: ") + what);
}

}  // namespace

void Ledger::advance_clock(Time now) {
  if (now < clock_) throw std::logic_error("Ledger: time moved backwards");
  clock_ = now;
}

void Ledger::check_bin(BinId bin) const {
  if (bin < 0 || static_cast<std::size_t>(bin) >= opened_.size())
    throw std::out_of_range("Ledger: unknown bin id");
}

std::uint32_t Ledger::find_or_add_pool(PoolId pool) {
  const auto it = std::lower_bound(
      pool_ids_.begin(), pool_ids_.end(), pool,
      [](const auto& e, PoolId p) { return e.first < p; });
  if (it != pool_ids_.end() && it->first == pool) return it->second;
  const auto idx = static_cast<std::uint32_t>(pools_.size());
  pools_.emplace_back();
  pool_ids_.insert(it, {pool, idx});
  return idx;
}

const BinCapacityIndex* Ledger::pool_index(PoolId pool) const {
  const auto it = std::lower_bound(
      pool_ids_.begin(), pool_ids_.end(), pool,
      [](const auto& e, PoolId p) { return e.first < p; });
  if (it == pool_ids_.end() || it->first != pool) return nullptr;
  return &pools_[it->second];
}

const BinRecord& Ledger::record(BinId bin) const {
  check_bin(bin);
  materialize_records();
  return records_[static_cast<std::size_t>(bin)];
}

const std::vector<BinRecord>& Ledger::records() const {
  materialize_records();
  return records_;
}

void Ledger::items_by_bin(std::vector<std::size_t>& begin,
                          std::vector<ItemId>& items) const {
  // Counting sort by bin: a stable partition of the placement log, so each
  // bin's items keep their placement order.
  const std::size_t n = opened_.size();
  begin.assign(n + 1, 0);
  for (const auto& [item, bin] : placements_)
    ++begin[static_cast<std::size_t>(bin) + 1];
  for (std::size_t b = 0; b < n; ++b) begin[b + 1] += begin[b];
  items.resize(placements_.size());
  for (const auto& [item, bin] : placements_)
    items[begin[static_cast<std::size_t>(bin)]++] = item;
  // The scatter advanced each begin[b] to the end of bin b; shift back.
  for (std::size_t b = n; b > 0; --b) begin[b] = begin[b - 1];
  begin[0] = 0;
}

void Ledger::materialize_records() const {
  if (records_version_ == version_) return;
  std::vector<std::size_t> begin;
  std::vector<ItemId> items;
  items_by_bin(begin, items);
  const std::size_t n = opened_.size();
  records_.assign(n, BinRecord{});
  for (std::size_t i = 0; i < n; ++i) {
    BinRecord& rec = records_[i];
    rec.id = static_cast<BinId>(i);
    rec.group = group_[i];
    rec.opened = opened_[i];
    rec.closed = closed_[i];
    rec.load = load_[i];
    rec.active_items = active_count_[i];
    rec.all_items.assign(
        items.begin() + static_cast<std::ptrdiff_t>(begin[i]),
        items.begin() + static_cast<std::ptrdiff_t>(begin[i + 1]));
  }
  records_version_ = version_;
}

BinId Ledger::open_bin(Time now, BinGroup group) {
  return open_bin(now, group, /*pool=*/group);
}

BinId Ledger::open_bin(Time now, BinGroup group, PoolId pool) {
  advance_clock(now);
  const auto id = static_cast<BinId>(opened_.size());
  const std::uint32_t pidx = find_or_add_pool(pool);
  group_.push_back(group);
  opened_.push_back(now);
  closed_.push_back(kInfTime);
  load_.push_back(0.0);
  active_count_.push_back(0);
  pool_.push_back(pool);
  pool_idx_.push_back(pidx);
  slot_.push_back(static_cast<std::uint32_t>(pools_[pidx].add_bin(id)));
  ++version_;
  open_.insert(id);
  max_open_ = std::max(max_open_, open_.size());
  g_bins_opened.add();
  g_open_bins.set(static_cast<double>(open_.size()));
  return id;
}

void Ledger::place(ItemId id, Load size, BinId bin, Time now) {
  advance_clock(now);
  check_bin(bin);
  const auto b = static_cast<std::size_t>(bin);
  if (closed_[b] != kInfTime)
    throw std::logic_error("Ledger: place into closed bin");
  if (!fits_in_bin(load_[b], size))
    throw std::logic_error("Ledger: bin capacity exceeded");
  if (!active_.insert(id, bin, size))
    throw std::logic_error("Ledger: item placed twice");
  load_[b] += size;
  active_count_[b] += 1;
  if (track_items_) placements_.emplace_back(id, bin);
  pools_[pool_idx_[b]].set_load(slot_[b], load_[b]);
  ++version_;
}

BinId Ledger::remove(ItemId id, Time now) {
  advance_clock(now);
  BinId bin = kNoBin;
  Load size = 0.0;
  if (!active_.take(id, bin, size))
    throw std::logic_error("Ledger: removing item that is not placed");
  const auto b = static_cast<std::size_t>(bin);
  active_count_[b] -= 1;
  load_[b] -= size;
  // Subtraction can leave a negative residue when the removed size was
  // rounded into the sum differently than it rounds out; clamp it so load
  // stays a valid Load and fits() never sees a phantom deficit.
  if (load_[b] < 0.0 && load_[b] >= -kLoadEps) load_[b] = 0.0;
  if (active_count_[b] == 0) {
    load_[b] = 0.0;  // clear any floating-point residue
    closed_[b] = now;
    closed_usage_ += closed_[b] - opened_[b];
    open_.erase(bin);
    pools_[pool_idx_[b]].close(slot_[b]);
    g_bins_closed.add();
    g_open_bins.set(static_cast<double>(open_.size()));
  } else {
    pools_[pool_idx_[b]].set_load(slot_[b], load_[b]);
  }
  ++version_;
  return bin;
}

bool Ledger::fits(BinId bin, Load size) const {
  check_bin(bin);
  const auto b = static_cast<std::size_t>(bin);
  return closed_[b] == kInfTime && fits_in_bin(load_[b], size);
}

Load Ledger::load(BinId bin) const {
  check_bin(bin);
  return load_[static_cast<std::size_t>(bin)];
}

BinGroup Ledger::group_of(BinId bin) const {
  check_bin(bin);
  return group_[static_cast<std::size_t>(bin)];
}

bool Ledger::is_open(BinId bin) const {
  check_bin(bin);
  return closed_[static_cast<std::size_t>(bin)] == kInfTime;
}

BinId Ledger::bin_of(ItemId id) const {
  const FlatItemMap::Slot* slot = active_.find(id);
  return slot ? slot->bin : kNoBin;
}

void Ledger::open_bins_into(std::vector<BinId>& out) const {
  out.clear();
  out.reserve(open_.size());
  out.assign(open_.begin(), open_.end());
}

std::vector<BinId> Ledger::open_bins_in_group(BinGroup g) const {
  std::vector<BinId> out;
  open_bins_in_group_into(g, out);
  return out;
}

void Ledger::open_bins_in_group_into(BinGroup g,
                                     std::vector<BinId>& out) const {
  out.clear();
  for (BinId b : open_)
    if (group_[static_cast<std::size_t>(b)] == g) out.push_back(b);
}

std::size_t Ledger::open_count_in_group(BinGroup g) const {
  std::size_t n = 0;
  for (BinId b : open_)
    if (group_[static_cast<std::size_t>(b)] == g) ++n;
  return n;
}

BinId Ledger::first_fit(PoolId pool, Load size) const {
  const BinCapacityIndex* idx = pool_index(pool);
  return idx ? idx->first_fit(size) : kNoBin;
}

BinId Ledger::best_fit(PoolId pool, Load size) const {
  const BinCapacityIndex* idx = pool_index(pool);
  return idx ? idx->best_fit(size) : kNoBin;
}

BinId Ledger::worst_fit(PoolId pool, Load size) const {
  const BinCapacityIndex* idx = pool_index(pool);
  return idx ? idx->worst_fit(size) : kNoBin;
}

BinId Ledger::newest_open_in_pool(PoolId pool) const {
  const BinCapacityIndex* idx = pool_index(pool);
  return idx ? idx->newest_open() : kNoBin;
}

std::vector<BinId> Ledger::open_bins_in_pool(PoolId pool) const {
  std::vector<BinId> out;
  open_bins_in_pool_into(pool, out);
  return out;
}

void Ledger::open_bins_in_pool_into(PoolId pool,
                                    std::vector<BinId>& out) const {
  const BinCapacityIndex* idx = pool_index(pool);
  if (!idx) {
    out.clear();
    return;
  }
  idx->open_bins_into(out);
}

std::size_t Ledger::open_count_in_pool(PoolId pool) const {
  const BinCapacityIndex* idx = pool_index(pool);
  return idx ? idx->open_count() : 0;
}

PoolId Ledger::pool_of(BinId bin) const {
  check_bin(bin);
  return pool_[static_cast<std::size_t>(bin)];
}

Cost Ledger::total_usage(Time now) const {
  Cost acc = closed_usage_;
  for (BinId b : open_) acc += now - opened_[static_cast<std::size_t>(b)];
  return acc;
}

std::vector<ItemId> Ledger::active_item_ids() const {
  std::vector<ItemId> out;
  active_item_ids_into(out);
  return out;
}

void Ledger::active_item_ids_into(std::vector<ItemId>& out) const {
  out.clear();
  out.reserve(active_.size());
  active_.for_each([&](const FlatItemMap::Slot& s) { out.push_back(s.id); });
  std::sort(out.begin(), out.end());
}

void Ledger::save_state(StateWriter& w) const {
  if (!track_items_)
    throw std::logic_error(
        "Ledger::save_state: item tracking is disabled (track_items=false)");
  // Transient bin-major view of the placement log; freed on return, so a
  // checkpoint leaves no second copy of the history resident.
  std::vector<std::size_t> begin;
  std::vector<ItemId> items;
  items_by_bin(begin, items);
  const std::size_t n = opened_.size();
  w.u64(n);
  for (std::size_t i = 0; i < n; ++i) {
    w.i64(group_[i]);
    w.f64(opened_[i]);
    w.f64(closed_[i]);
    w.f64(load_[i]);
    w.u64(active_count_[i]);
    w.u64(begin[i + 1] - begin[i]);
    for (std::size_t k = begin[i]; k < begin[i + 1]; ++k) w.i64(items[k]);
    w.i64(pool_[i]);
    w.u64(slot_[i]);
  }
  const std::vector<ItemId> active = active_item_ids();
  w.u64(active.size());
  for (ItemId id : active) {
    const FlatItemMap::Slot* slot = active_.find(id);
    w.i64(id);
    w.i64(slot->bin);
    w.f64(slot->size);
  }
  w.f64(closed_usage_);
  w.u64(max_open_);
  w.f64(clock_);
}

void Ledger::load_state(StateReader& r) {
  if (bins_opened() != 0 || active_items() != 0 || clock_ != -kInfTime)
    throw std::logic_error("Ledger::load_state: ledger is not fresh");
  if (!track_items_)
    throw std::logic_error(
        "Ledger::load_state: item tracking is disabled (track_items=false)");
  const std::uint64_t n_bins = r.u64();
  if (n_bins > r.remaining() / kBinBytes)
    bad_state("bin count exceeds the buffer");
  group_.reserve(n_bins);
  opened_.reserve(n_bins);
  closed_.reserve(n_bins);
  load_.reserve(n_bins);
  active_count_.reserve(n_bins);
  pool_.reserve(n_bins);
  pool_idx_.reserve(n_bins);
  slot_.reserve(n_bins);
  for (std::uint64_t i = 0; i < n_bins; ++i) {
    const auto id = static_cast<BinId>(i);
    const BinGroup group = r.i64();
    const Time opened = r.f64();
    const Time closed = r.f64();
    const Load load = r.f64();
    const std::uint64_t active_count = r.u64();
    const std::uint64_t n_items = r.u64();
    if (n_items > r.remaining() / kItemBytes)
      bad_state("item count exceeds the buffer");
    // Bounds the count to the bin's placements, so it fits its column.
    if (active_count > n_items)
      bad_state("bin has more active items than it ever held");
    // Bin-major replay of the placement log preserves each bin's item
    // order, which is all items_by_bin observes.
    for (std::uint64_t k = 0; k < n_items; ++k)
      placements_.emplace_back(r.i64(), id);
    const PoolId pool = r.i64();
    const std::uint64_t slot = r.u64();
    // Bins are replayed in id order, which within a pool is opening order,
    // so the capacity index hands out the same slots it originally did and
    // ends up value-identical (same leaves, same (load, bin) set, same
    // tournament shape) to the uninterrupted index.
    const std::uint32_t pidx = find_or_add_pool(pool);
    const std::size_t got = pools_[pidx].add_bin(id);
    if (got != slot) bad_state("slot mismatch");
    if (closed == kInfTime) {
      open_.insert(id);
      pools_[pidx].set_load(got, load);
    } else {
      pools_[pidx].close(got);
    }
    group_.push_back(group);
    opened_.push_back(opened);
    closed_.push_back(closed);
    load_.push_back(load);
    active_count_.push_back(static_cast<std::uint32_t>(active_count));
    pool_.push_back(pool);
    pool_idx_.push_back(pidx);
    slot_.push_back(static_cast<std::uint32_t>(got));
  }
  const std::uint64_t n_active = r.u64();
  if (n_active > r.remaining() / kActiveBytes)
    bad_state("active item count exceeds the buffer");
  // Every active entry must sit in an open bin, once, and each bin's
  // active count must equal its number of entries: remove() trusts all
  // three when it indexes the columns.
  std::vector<std::uint32_t> seen(opened_.size(), 0);
  for (std::uint64_t i = 0; i < n_active; ++i) {
    const ItemId id = r.i64();
    const BinId bin = r.i64();
    const Load size = r.f64();
    if (bin < 0 || static_cast<std::size_t>(bin) >= opened_.size() ||
        closed_[static_cast<std::size_t>(bin)] != kInfTime)
      bad_state("active item in an unknown or closed bin");
    if (id == FlatItemMap::kEmptyKey || !active_.insert(id, bin, size))
      bad_state("active item id reserved or duplicated");
    ++seen[static_cast<std::size_t>(bin)];
  }
  if (seen != active_count_)
    bad_state("per-bin active counts disagree with the active items");
  closed_usage_ = r.f64();
  max_open_ = r.u64();
  clock_ = r.f64();
  ++version_;
  g_open_bins.set(static_cast<double>(open_.size()));
}

StepFunction Ledger::open_bins_profile(Time now) const {
  StepFunction f;
  for (std::size_t i = 0; i < opened_.size(); ++i)
    f.add(opened_[i], closed_[i] == kInfTime ? now : closed_[i], 1.0);
  return f;
}

}  // namespace cdbp
