#include "oracles/selection_checker.h"

#include <stdexcept>

namespace cdbp::oracles {

BinId SelectionChecker::on_arrival(const Item& item, Ledger& ledger) {
  before_.loads.clear();
  for (const BinId b : ledger.open_bins())
    before_.loads.emplace(b, ledger.load(b));

  const BinId chosen = inner_->on_arrival(item, ledger);

  const PoolId pool = ledger.pool_of(chosen);
  std::vector<BinId> candidates;  // the pool's open bins, opening order
  for (const auto& [b, load] : before_.loads)
    if (ledger.pool_of(b) == pool) candidates.push_back(b);
  const BinId want = pick_bin(before_, candidates, item.size, rule_);
  const bool opened = before_.loads.count(chosen) == 0;
  if (opened ? want != kNoBin : want != chosen) {
    std::string msg = "SelectionChecker: ";
    msg.append(inner_->name())
        .append(" placed item ").append(std::to_string(item.id))
        .append(opened ? " in new bin " : " in open bin ")
        .append(std::to_string(chosen))
        .append(" of pool ").append(std::to_string(pool))
        .append("; the linear scan picks ")
        .append(want == kNoBin
                    ? std::string("a new bin")
                    : std::string("bin ").append(std::to_string(want)));
    throw std::logic_error(msg);
  }
  ++checked_;
  return chosen;
}

}  // namespace cdbp::oracles
