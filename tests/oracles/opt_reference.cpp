#include "oracles/opt_reference.h"

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <stdexcept>
#include <utility>

#include "core/step_function.h"
#include "opt/bin_packing.h"

namespace cdbp::oracles {

namespace {

using opt::BinPackingOptions;
using opt::bp_exact;
using opt::ExactOptions;
using opt::ExactRepackingOptions;
using opt::ExactRepackingResult;
using opt::ExactResult;
using opt::LocalSearchOptions;
using opt::LocalSearchResult;
using opt::OfflineResult;

// ---------------------------------------------------------------------------
// Exact OPT_NR: the original search.
// ---------------------------------------------------------------------------

/// Mutable bin state during the search.
struct SearchBin {
  std::vector<std::size_t> members;  // item indices, arrival-ordered
  Time lo = 0.0, hi = 0.0;           // current span endpoints
};

class SearchReference {
 public:
  SearchReference(const Instance& instance, const ExactOptions& options)
      : items_(instance.items()), opts_(options) {}

  std::optional<ExactResult> run() {
    best_cost_ = std::numeric_limits<double>::infinity();
    // Greedy seed (first-fit by arrival) to get an initial incumbent.
    seed_incumbent();
    assignment_.assign(items_.size(), -1);
    bins_.clear();
    bins_.reserve(items_.size());
    nodes_ = 0;
    aborted_ = false;
    recurse(0, 0.0);
    if (aborted_) return std::nullopt;
    ExactResult r;
    r.cost = best_cost_;
    r.assignment = best_assignment_;
    r.nodes_explored = nodes_;
    return r;
  }

 private:
  void seed_incumbent() {
    std::vector<SearchBin> bins;
    std::vector<int> assign(items_.size(), -1);
    double cost = 0.0;
    for (std::size_t i = 0; i < items_.size(); ++i) {
      bool placed = false;
      for (std::size_t b = 0; b < bins.size() && !placed; ++b)
        if (fits(bins[b], i)) {
          cost += add_cost(bins[b], i);
          commit(bins[b], i);
          assign[i] = static_cast<int>(b);
          placed = true;
        }
      if (!placed) {
        bins.push_back(SearchBin{{i}, items_[i].arrival, items_[i].departure});
        cost += items_[i].length();
        assign[i] = static_cast<int>(bins.size()) - 1;
      }
    }
    best_cost_ = cost;
    best_assignment_ = assign;
  }

  /// Capacity feasibility of adding item i to bin b: at every instant of
  /// i's interval the loads of overlapping members plus s(i) stay <= 1.
  /// Checked at the O(|members|) candidate breakpoints.
  [[nodiscard]] bool fits(const SearchBin& b, std::size_t i) const {
    const Item& r = items_[i];
    // Candidate critical times: r.arrival and members' arrivals inside I(r).
    auto load_at = [&](Time t) {
      Load acc = 0.0;
      for (std::size_t m : b.members) {
        const Item& x = items_[m];
        if (x.arrival <= t && t < x.departure) acc += x.size;
      }
      return acc;
    };
    if (!fits_in_bin(load_at(r.arrival), r.size)) return false;
    for (std::size_t m : b.members) {
      const Item& x = items_[m];
      if (x.arrival > r.arrival && x.arrival < r.departure)
        if (!fits_in_bin(load_at(x.arrival), r.size)) return false;
    }
    return true;
  }

  /// Span increase caused by adding item i to bin b.
  [[nodiscard]] double add_cost(const SearchBin& b, std::size_t i) const {
    const Item& r = items_[i];
    const Time lo = std::min(b.lo, r.arrival);
    const Time hi = std::max(b.hi, r.departure);
    // Items are assigned in arrival order and bins stay span-contiguous:
    // every member overlaps the running span (enforced in recurse()), so
    // the union stays an interval.
    return (hi - lo) - (b.hi - b.lo);
  }

  void commit(SearchBin& b, std::size_t i) {
    b.members.push_back(i);
    b.lo = std::min(b.lo, items_[i].arrival);
    b.hi = std::max(b.hi, items_[i].departure);
  }

  void recurse(std::size_t i, double cost) {
    if (aborted_) return;
    if (++nodes_ > opts_.node_limit) {
      aborted_ = true;
      return;
    }
    if (cost >= best_cost_ - 1e-12) return;  // prune
    if (i == items_.size()) {
      best_cost_ = cost;
      best_assignment_ = assignment_;
      return;
    }
    const Item& r = items_[i];

    // Try each existing bin (set-partition order: bins are created in
    // first-use order, so this enumerates each partition once).
    for (std::size_t b = 0; b < bins_.size(); ++b) {
      // NOTE on span accounting: if r does not overlap bin's current span,
      // reusing the bin is equivalent to a new bin cost-wise (bins close
      // when empty and are never reused, w.l.o.g.), so we skip it; the
      // "new bin" branch covers that packing.
      if (r.arrival > bins_[b].hi || r.departure < bins_[b].lo) continue;
      if (!fits(bins_[b], i)) continue;
      const double delta = add_cost(bins_[b], i);
      const SearchBin saved = bins_[b];
      commit(bins_[b], i);
      assignment_[i] = static_cast<int>(b);
      recurse(i + 1, cost + delta);
      // Deeper levels may have reallocated bins_; restore by index.
      bins_[b] = saved;
      assignment_[i] = -1;
    }
    // New bin.
    bins_.push_back(SearchBin{{i}, r.arrival, r.departure});
    assignment_[i] = static_cast<int>(bins_.size()) - 1;
    recurse(i + 1, cost + r.length());
    bins_.pop_back();
    assignment_[i] = -1;
  }

  const std::vector<Item>& items_;
  ExactOptions opts_;

  std::vector<SearchBin> bins_;
  std::vector<int> assignment_;
  double best_cost_ = 0.0;
  std::vector<int> best_assignment_;
  std::size_t nodes_ = 0;
  bool aborted_ = false;
};

// ---------------------------------------------------------------------------
// Offline FFD: per-probe StepFunction copies.
// ---------------------------------------------------------------------------

/// Reference bin: per-probe StepFunction copies (the historical engine).
struct OfflineBin {
  StepFunction load;
  Time lo = kInfTime, hi = -kInfTime;
  std::vector<std::size_t> members;

  [[nodiscard]] bool fits(const Item& r) const {
    // Max load over I(r): conservative check via the step function.
    // Break the check early using the bin's own breakpoints.
    StepFunction probe = load;
    probe.add(r.arrival, r.departure, r.size);
    return probe.max_value() <= kBinCapacity + kLoadEps;
  }

  void add(const Item& r, std::size_t index) {
    load.add(r.arrival, r.departure, r.size);
    lo = std::min(lo, r.arrival);
    hi = std::max(hi, r.departure);
    members.push_back(index);
  }

  [[nodiscard]] Cost span(const std::vector<Item>& items) const {
    StepFunction s;
    for (std::size_t m : members) {
      const Item& x = items[m];
      s.add(x.arrival, x.departure, 1.0);
    }
    return s.support_measure(0.5);
  }
};

/// Longest first, ties by arrival then index (opt/offline_ffd.cpp sorts the
/// same way; a copy, so the oracle does not share the shipped order).
std::vector<std::size_t> ffd_order(const std::vector<Item>& items) {
  std::vector<std::size_t> order(items.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (items[a].length() != items[b].length())
      return items[a].length() > items[b].length();
    if (items[a].arrival != items[b].arrival)
      return items[a].arrival < items[b].arrival;
    return a < b;
  });
  return order;
}

OfflineResult ffd_reference(const std::vector<Item>& items,
                            const std::vector<std::size_t>& order) {
  std::vector<OfflineBin> bins;
  OfflineResult result;
  result.assignment.assign(items.size(), -1);
  for (std::size_t idx : order) {
    const Item& r = items[idx];
    bool placed = false;
    for (std::size_t b = 0; b < bins.size() && !placed; ++b)
      if (bins[b].fits(r)) {
        bins[b].add(r, idx);
        result.assignment[idx] = static_cast<int>(b);
        placed = true;
      }
    if (!placed) {
      bins.emplace_back();
      bins.back().add(r, idx);
      result.assignment[idx] = static_cast<int>(bins.size()) - 1;
    }
  }
  result.bins = bins.size();
  for (const OfflineBin& b : bins) result.cost += b.span(items);
  return result;
}

// ---------------------------------------------------------------------------
// Local search: full StepFunction rebuilds around every candidate move.
// ---------------------------------------------------------------------------

/// Reference bin state: members + load profile, span recomputed on demand
/// via fresh StepFunctions (the historical engine).
struct LsBin {
  std::vector<std::size_t> members;

  [[nodiscard]] StepFunction load(const std::vector<Item>& items) const {
    StepFunction f;
    for (std::size_t m : members)
      f.add(items[m].arrival, items[m].departure, items[m].size);
    return f;
  }

  [[nodiscard]] double span(const std::vector<Item>& items) const {
    StepFunction f;
    for (std::size_t m : members)
      f.add(items[m].arrival, items[m].departure, 1.0);
    return f.support_measure(0.5);
  }

  [[nodiscard]] bool fits(const std::vector<Item>& items,
                          const Item& r) const {
    StepFunction f = load(items);
    f.add(r.arrival, r.departure, r.size);
    return f.max_value() <= kBinCapacity + kLoadEps;
  }
};

LocalSearchResult improve_reference(const std::vector<Item>& items,
                                    std::vector<LsBin> bins,
                                    std::vector<int> assignment,
                                    const LocalSearchOptions& options) {
  LocalSearchResult result;
  auto bin_span = [&](std::size_t b) { return bins[b].span(items); };

  bool improved = true;
  while (improved && result.rounds < options.max_rounds &&
         result.moves < options.max_moves) {
    improved = false;
    ++result.rounds;
    for (std::size_t k = 0; k < items.size(); ++k) {
      const auto from = static_cast<std::size_t>(assignment[k]);
      // Cost of removing k from its bin.
      const double span_from_before = bin_span(from);
      auto& from_members = bins[from].members;
      from_members.erase(
          std::find(from_members.begin(), from_members.end(), k));
      const double span_from_after = bin_span(from);
      const double gain = span_from_before - span_from_after;

      // Best target: the bin whose span grows least.
      std::size_t best_to = from;
      double best_delta = span_from_before - span_from_after;  // back home
      for (std::size_t to = 0; to < bins.size(); ++to) {
        if (to == from) continue;
        if (!bins[to].fits(items, items[k])) continue;
        const double before = bin_span(to);
        bins[to].members.push_back(k);
        const double after = bin_span(to);
        bins[to].members.pop_back();
        const double delta = after - before;
        if (delta < best_delta - 1e-9) {
          best_delta = delta;
          best_to = to;
        }
      }
      bins[best_to].members.push_back(k);
      assignment[k] = static_cast<int>(best_to);
      if (best_to != from && best_delta < gain - 1e-12) {
        ++result.moves;
        improved = true;
        if (result.moves >= options.max_moves) break;
      }
    }
    // Drop emptied bins (compact indices).
    std::vector<LsBin> kept;
    std::vector<int> remap(bins.size(), -1);
    for (std::size_t b = 0; b < bins.size(); ++b) {
      if (bins[b].members.empty()) continue;
      remap[b] = static_cast<int>(kept.size());
      kept.push_back(std::move(bins[b]));
    }
    bins = std::move(kept);
    for (std::size_t k = 0; k < items.size(); ++k)
      assignment[k] = remap[static_cast<std::size_t>(assignment[k])];
  }

  result.assignment = assignment;
  result.cost = 0.0;
  for (std::size_t b = 0; b < bins.size(); ++b) result.cost += bin_span(b);
  return result;
}

}  // namespace

std::optional<ExactResult> exact_opt_nonrepacking_reference(
    const Instance& instance, const ExactOptions& options) {
  if (instance.size() > options.max_items) return std::nullopt;
  if (instance.empty()) return ExactResult{};
  return SearchReference(instance, options).run();
}

OfflineResult offline_ffd_by_length_reference(const Instance& instance) {
  const std::vector<Item>& items = instance.items();
  return ffd_reference(items, ffd_order(items));
}

LocalSearchResult improve_packing_reference(
    const Instance& instance, const std::vector<int>& seed_assignment,
    const LocalSearchOptions& options) {
  const std::vector<Item>& items = instance.items();
  if (seed_assignment.size() != items.size())
    throw std::invalid_argument("improve_packing: assignment size mismatch");

  // Build bins from the seed (compacted, first-use order).
  std::map<int, std::vector<std::size_t>> by_id;
  for (std::size_t k = 0; k < items.size(); ++k) {
    if (seed_assignment[k] < 0)
      throw std::invalid_argument("improve_packing: unassigned item");
    by_id[seed_assignment[k]].push_back(k);
  }
  std::vector<LsBin> bins;
  std::vector<int> assignment(items.size(), -1);
  for (auto& [id, members] : by_id) {
    (void)id;
    for (std::size_t m : members)
      assignment[m] = static_cast<int>(bins.size());
    bins.push_back(LsBin{std::move(members)});
  }
  for (const LsBin& bin : bins)
    if (bin.load(items).max_value() > kBinCapacity + 2 * kLoadEps)
      throw std::invalid_argument("improve_packing: infeasible seed");
  return improve_reference(items, std::move(bins), std::move(assignment),
                           options);
}

LocalSearchResult local_search_opt_nr_reference(
    const Instance& instance, const LocalSearchOptions& options) {
  return improve_packing_reference(
      instance, offline_ffd_by_length_reference(instance).assignment,
      options);
}

std::optional<ExactRepackingResult> exact_opt_repacking_reference(
    const Instance& instance, const ExactRepackingOptions& options) {
  // Event sweep with departures-before-arrivals at equal times. Between
  // events the active multiset is constant. Memoized on the exact-double
  // sorted multiset — the pre-pipeline behaviour, kept as the oracle.
  struct Ev {
    Time time;
    bool arrival;
    ItemId item;
  };
  std::vector<Ev> events;
  events.reserve(instance.size() * 2);
  for (const Item& r : instance.items()) {
    events.push_back(Ev{r.arrival, true, r.id});
    events.push_back(Ev{r.departure, false, r.id});
  }
  std::sort(events.begin(), events.end(), [](const Ev& a, const Ev& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.arrival != b.arrival) return !a.arrival;
    return a.item < b.item;
  });

  std::multiset<Load> active;
  std::map<std::vector<Load>, int> cache;
  ExactRepackingResult result;
  const std::vector<Item>& items = instance.items();

  std::size_t e = 0;
  Time prev = events.empty() ? 0.0 : events.front().time;
  while (e < events.size()) {
    const Time t = events[e].time;
    // Account for [prev, t) with the previous active set.
    if (t > prev && !active.empty()) {
      std::vector<Load> sizes(active.begin(), active.end());
      if (sizes.size() > options.max_active) return std::nullopt;
      const auto [it, fresh] = cache.try_emplace(sizes, 0);
      if (fresh) {
        const auto solved = bp_exact(
            sizes, BinPackingOptions{options.node_limit_per_snapshot});
        if (!solved) {
          cache.erase(it);
          return std::nullopt;
        }
        it->second = *solved;
        ++result.snapshots;
        ++result.distinct_snapshots;
      } else {
        ++result.cache_hits;
      }
      result.cost += static_cast<double>(it->second) * (t - prev);
      result.bins_over_time.add(prev, t, static_cast<double>(it->second));
      result.max_active = std::max(result.max_active, sizes.size());
    }
    // Apply all events at time t.
    while (e < events.size() && events[e].time == t) {
      const Item& r = items[static_cast<std::size_t>(events[e].item)];
      if (events[e].arrival) {
        active.insert(r.size);
      } else {
        active.erase(active.find(r.size));
      }
      ++e;
    }
    prev = t;
  }
  return result;
}

}  // namespace cdbp::oracles
