// SelectionChecker: a test-only Algorithm decorator that checks every
// placement of the algorithm it wraps against a linear scan.
//
// Before it delegates an arrival, it snapshots the ledger's open bins and
// their loads, read from the ledger columns (Ledger::load), not from the
// capacity index. Afterwards it runs pick_bin over the open bins of the
// chosen bin's pool, in opening order, on the snapshot:
//   * a reused bin must be exactly the bin pick_bin returns;
//   * a new bin may open only when pick_bin finds none.
// pick_bin tests fits_in_bin directly, so it is an independent oracle for
// the index, including BestFit's exact key bound (max_load_admitting).
// Which pool an algorithm routes an item to (HA's CD vs GN bins, CDFF's
// rows) is the algorithm's own logic and is not checked here.
//
// Part of the cdbp_oracles library: linked into the tests and the benches,
// never installed.
#pragma once

#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "algos/any_fit.h"
#include "core/algorithm.h"

namespace cdbp::oracles {

/// Picks a bin from `candidates` (opening order) according to `rule`, or
/// kNoBin when none fits, by linear scan. `bins` answers fits(bin, size)
/// and load(bin): a Ledger, or the checker's pre-arrival snapshot.
template <typename Bins>
[[nodiscard]] BinId pick_bin(const Bins& bins,
                             const std::vector<BinId>& candidates, Load size,
                             algos::FitRule rule) {
  using algos::FitRule;
  BinId chosen = kNoBin;
  switch (rule) {
    case FitRule::kFirst:
      for (BinId b : candidates)
        if (bins.fits(b, size)) return b;
      return kNoBin;
    case FitRule::kNext:
      if (!candidates.empty() && bins.fits(candidates.back(), size))
        return candidates.back();
      return kNoBin;
    case FitRule::kBest: {
      Load best_load = -1.0;
      for (BinId b : candidates)
        if (bins.fits(b, size) && bins.load(b) > best_load) {
          best_load = bins.load(b);
          chosen = b;
        }
      return chosen;
    }
    case FitRule::kWorst: {
      Load best_load = 2.0;
      for (BinId b : candidates)
        if (bins.fits(b, size) && bins.load(b) < best_load) {
          best_load = bins.load(b);
          chosen = b;
        }
      return chosen;
    }
  }
  throw std::invalid_argument("unknown FitRule");
}

class SelectionChecker final : public Algorithm {
 public:
  /// `rule` is the fit rule `inner` applies inside every pool.
  SelectionChecker(AlgorithmPtr inner, algos::FitRule rule)
      : inner_(std::move(inner)), rule_(rule) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  /// Delegates, then checks the placement; throws std::logic_error naming
  /// the item, the pool and both bins on a mismatch.
  BinId on_arrival(const Item& item, Ledger& ledger) override;

  void on_departure(const Item& item, BinId bin, bool bin_closed,
                    Ledger& ledger) override {
    inner_->on_departure(item, bin, bin_closed, ledger);
  }
  void reset() override { inner_->reset(); }

  /// Arrivals checked so far (guards against a vacuous oracle).
  [[nodiscard]] std::size_t checked() const noexcept { return checked_; }

 private:
  /// Open bins and their loads just before an arrival.
  struct Snapshot {
    std::map<BinId, Load> loads;
    [[nodiscard]] Load load(BinId bin) const { return loads.at(bin); }
    [[nodiscard]] bool fits(BinId bin, Load size) const {
      return fits_in_bin(load(bin), size);
    }
  };

  AlgorithmPtr inner_;
  algos::FitRule rule_;
  Snapshot before_;
  std::size_t checked_ = 0;
};

}  // namespace cdbp::oracles
