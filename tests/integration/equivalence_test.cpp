// Equivalence and invariance properties across execution paths:
//  * the batch Simulator and the interactive Session must produce
//    identical costs/placements for every algorithm on the same stream;
//  * indexed bin selection (capacity index) must pick, placement by
//    placement, the bin a linear scan of the same pool picks;
//  * the column-store Ledger must reproduce the AoS ReferenceLedger oracle
//    bit for bit, event by event;
//  * OPT bounds are invariant under same-instant presentation reordering
//    (they depend on the multiset of items only);
//  * shifting an instance in time shifts nothing but timestamps.
#include <algorithm>
#include <cmath>
#include <queue>
#include <random>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "algos/cdff.h"
#include "algos/classify.h"
#include "algos/harmonic.h"
#include "algos/hybrid.h"
#include "core/session.h"
#include "core/simulator.h"
#include "oracles/reference_ledger.h"
#include "oracles/selection_checker.h"
#include "opt/bounds.h"
#include "opt/repack.h"
#include "test_util.h"
#include "workloads/aligned_random.h"
#include "workloads/general_random.h"

namespace cdbp {
namespace {

class SessionEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SessionEquivalence, SimulatorAndSessionAgreeForEveryAlgorithm) {
  std::mt19937_64 rng(GetParam());
  workloads::GeneralConfig cfg;
  cfg.target_items = 120;
  cfg.log2_mu = 6;
  cfg.horizon = 48.0;
  const Instance in = workloads::make_general_random(cfg, rng);

  for (const auto& f : testutil::online_factories()) {
    auto batch_algo = f.make();
    const RunResult batch = Simulator{}.run(in, *batch_algo);

    auto live_algo = f.make();
    InteractiveSession session(*live_algo);
    std::vector<BinId> live_bins;
    for (const Item& r : in.items())
      live_bins.push_back(session.offer(r.arrival, r.departure, r.size));
    const Cost live_cost = session.finish();

    EXPECT_NEAR(batch.cost, live_cost, 1e-9) << f.name;
    ASSERT_EQ(batch.placements.size(), live_bins.size()) << f.name;
    for (std::size_t k = 0; k < live_bins.size(); ++k)
      EXPECT_EQ(batch.placements[k].bin, live_bins[k])
          << f.name << " item " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionEquivalence,
                         ::testing::Range<std::uint64_t>(0, 8));

// --- Indexed selection vs the linear scan -----------------------------------
//
// Every algorithm selects bins through the ledger's capacity index. Each
// run here goes through oracles::SelectionChecker, which re-derives every
// placement by a linear scan of the chosen pool's open bins (pick_bin) on
// a pre-arrival snapshot of the ledger's loads, and throws on the first
// disagreement. 18 seeds x (9 general + 11 aligned + 11 near-capacity)
// algorithms. The scan tests fits_in_bin directly, so it is an
// independent oracle for BestFit's key bound.

struct CheckedAlgo {
  std::string name;
  std::function<AlgorithmPtr()> make;
  algos::FitRule rule;  ///< the rule the algorithm applies in every pool
};

std::vector<CheckedAlgo> checked_algos() {
  using namespace algos;
  std::vector<CheckedAlgo> out;
  for (const FitRule r : {FitRule::kFirst, FitRule::kBest, FitRule::kWorst,
                          FitRule::kNext})
    out.push_back(
        {AnyFit(r).name(), [r] { return std::make_unique<AnyFit>(r); }, r});
  out.push_back({"CBD2",
                 [] { return std::make_unique<ClassifyByDuration>(); },
                 FitRule::kFirst});
  out.push_back({"CBD2-best",
                 [] {
                   return std::make_unique<ClassifyByDuration>(
                       2.0, FitRule::kBest);
                 },
                 FitRule::kBest});
  out.push_back({"Harmonic",
                 [] { return std::make_unique<HarmonicFit>(); },
                 FitRule::kFirst});
  out.push_back(
      {"HA", [] { return std::make_unique<Hybrid>(); }, FitRule::kFirst});
  out.push_back({"HA-best",
                 [] {
                   return std::make_unique<Hybrid>(&Hybrid::paper_threshold,
                                                   "HA-best", FitRule::kBest);
                 },
                 FitRule::kBest});
  return out;
}

// CDFF is only defined on aligned inputs, so it runs on those alone.
std::vector<CheckedAlgo> cdff_algos() {
  using namespace algos;
  std::vector<CheckedAlgo> out;
  for (const auto& [name, rule] : {std::pair{"CDFF", FitRule::kFirst},
                                   std::pair{"CDBF", FitRule::kBest}})
    out.push_back({name, [rule] { return std::make_unique<Cdff>(rule); },
                   rule});
  return out;
}

void expect_scan_selection(const Instance& in, const CheckedAlgo& algo) {
  oracles::SelectionChecker checker(algo.make(), algo.rule);
  RunResult checked;
  EXPECT_NO_THROW(checked = Simulator{}.run(in, checker)) << algo.name;
  EXPECT_EQ(checker.checked(), in.size()) << algo.name;
  // The checker only observes: the bare algorithm runs identically.
  auto bare = algo.make();
  const RunResult plain = Simulator{}.run(in, *bare);
  EXPECT_EQ(checked.cost, plain.cost) << algo.name;  // bitwise
  ASSERT_EQ(checked.placements.size(), plain.placements.size()) << algo.name;
  for (std::size_t k = 0; k < plain.placements.size(); ++k)
    ASSERT_EQ(checked.placements[k].bin, plain.placements[k].bin)
        << algo.name << " item " << k;
}

// Near-capacity family: keeps `in`'s times and redraws every size. Half the
// items are large, 1 - size log-uniform in [1e-6, 1e-1]. The other half are
// small, within one ulp of the largest load that the previous or the next
// large item fits on. fits_in_bin(a, b) == fits_in_bin(b, a), so whichever
// item of such a pair arrives second is placed at BestFit's key bound.
Instance with_near_capacity_sizes(const Instance& in, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> log_gap(std::log(1e-6),
                                                 std::log(1e-1));
  const auto draw_large = [&] { return 1.0 - std::exp(log_gap(rng)); };
  // For a large size s, 1 + eps - s is exact (Sterbenz), and a load fits s
  // iff it is at most (1 + eps - s) + 2^-53, up to the rounding tie: the
  // boundary is that double or the one below it.
  const auto edge = [](Load s) {
    return kBinCapacity + kLoadEps - s + std::ldexp(1.0, -53);
  };
  const auto near = [&](Load t) {
    const auto j = rng() % 3;
    return j == 0 ? std::nextafter(t, 0.0)
                  : j == 1 ? t : std::nextafter(t, 1.0);
  };
  Load prev_large = draw_large();
  Load next_large = draw_large();
  Instance out;
  for (const Item& r : in.items()) {
    Load size = 0.0;
    switch (rng() % 4) {
      case 0:
      case 1:
        size = prev_large = next_large;
        next_large = draw_large();
        break;
      case 2:
        size = near(edge(prev_large));
        break;
      default:
        size = near(edge(next_large));
        break;
    }
    out.add(r.arrival, r.departure, size);
  }
  out.finalize();
  return out;
}

class SelectionEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SelectionEquivalence, IndexedMatchesLinearScanOnGeneralInstances) {
  std::mt19937_64 rng(GetParam());
  workloads::GeneralConfig cfg;
  cfg.target_items = 220;
  cfg.log2_mu = 6;
  cfg.horizon = 40.0;  // dense enough to keep many bins open
  const Instance in = workloads::make_general_random(cfg, rng);
  for (const CheckedAlgo& algo : checked_algos())
    expect_scan_selection(in, algo);
}

TEST_P(SelectionEquivalence, IndexedMatchesLinearScanOnAlignedInstances) {
  std::mt19937_64 rng(GetParam() + 1000);
  workloads::AlignedConfig cfg;
  cfg.max_bucket = 5;
  cfg.n = 6;
  const Instance in = workloads::make_aligned_random(cfg, rng);
  for (const CheckedAlgo& algo : checked_algos())
    expect_scan_selection(in, algo);
  for (const CheckedAlgo& algo : cdff_algos()) expect_scan_selection(in, algo);
}

TEST_P(SelectionEquivalence, IndexedMatchesLinearScanNearCapacity) {
  std::mt19937_64 rng(GetParam() + 2000);
  workloads::GeneralConfig general_cfg;
  general_cfg.target_items = 220;
  general_cfg.log2_mu = 6;
  general_cfg.horizon = 40.0;
  const Instance general = with_near_capacity_sizes(
      workloads::make_general_random(general_cfg, rng), rng);
  for (const CheckedAlgo& algo : checked_algos())
    expect_scan_selection(general, algo);

  workloads::AlignedConfig aligned_cfg;
  aligned_cfg.max_bucket = 5;
  aligned_cfg.n = 6;
  const Instance aligned = with_near_capacity_sizes(
      workloads::make_aligned_random(aligned_cfg, rng), rng);
  for (const CheckedAlgo& algo : cdff_algos())
    expect_scan_selection(aligned, algo);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectionEquivalence,
                         ::testing::Range<std::uint64_t>(0, 18));

// --- The column-store Ledger vs the AoS ReferenceLedger oracle -------------
//
// Every algorithm runs through an InteractiveSession, and every ledger
// operation it causes is mirrored into the oracle: bins opened with the
// same group and pool, each placement, and each removal in the session's
// (departure, id) drain order. total_usage must agree after every event,
// and records and checkpoint bytes at the midpoint and at the end. All
// comparisons are bitwise: the two layouts must perform the identical FP
// ops in the identical order.

void expect_same_checkpoint(const Ledger& ledger,
                            const oracles::ReferenceLedger& ref,
                            const std::string& where) {
  StateWriter wl, wr;
  ledger.save_state(wl);
  ref.save_state(wr);
  EXPECT_EQ(wl.buffer(), wr.buffer()) << where;
}

void expect_same_storage_run(const Instance& in,
                             const testutil::NamedFactory& f) {
  auto algo = f.make();
  InteractiveSession session(*algo);
  const Ledger& ledger = session.ledger();
  oracles::ReferenceLedger ref;

  // (departure, id) min-heap: the session's drain order.
  using Pending = std::pair<Time, ItemId>;
  std::priority_queue<Pending, std::vector<Pending>, std::greater<>> pending;
  // Drains every departure at times <= t, one departure time at a time.
  const auto drain = [&](Time t) {
    while (!pending.empty() && pending.top().first <= t) {
      const Time d = pending.top().first;
      session.advance_to(d);
      for (; !pending.empty() && pending.top().first == d; pending.pop())
        ref.remove(pending.top().second, d);
      ASSERT_EQ(ledger.total_usage(d), ref.total_usage(d)) << f.name;
    }
  };

  const std::vector<Item>& items = in.items();
  for (std::size_t k = 0; k < items.size(); ++k) {
    const Item& item = items[k];
    drain(item.arrival);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    const BinId bin = session.offer(item.arrival, item.departure, item.size);
    const auto id = static_cast<ItemId>(k);
    for (auto b = static_cast<BinId>(ref.bins_opened());
         b < static_cast<BinId>(ledger.bins_opened()); ++b)
      ASSERT_EQ(ref.open_bin(item.arrival, ledger.group_of(b),
                             ledger.pool_of(b)),
                b)
          << f.name;
    ref.place(id, item.size, bin, item.arrival);
    pending.emplace(item.departure, id);
    ASSERT_EQ(ledger.total_usage(item.arrival), ref.total_usage(item.arrival))
        << f.name << " item " << k;
    if (k == items.size() / 2)
      expect_same_checkpoint(ledger, ref, f.name + " mid-run");
  }
  drain(kInfTime);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  const Cost cost = session.finish();
  EXPECT_EQ(cost, ref.total_usage(ledger.clock())) << f.name;
  EXPECT_EQ(ledger.max_open(), ref.max_open()) << f.name;

  ASSERT_EQ(ledger.records().size(), ref.records().size()) << f.name;
  for (std::size_t b = 0; b < ref.records().size(); ++b) {
    const BinRecord& got = ledger.records()[b];
    const BinRecord& want = ref.records()[b];
    EXPECT_EQ(got.group, want.group) << f.name << " bin " << b;
    EXPECT_EQ(got.opened, want.opened) << f.name << " bin " << b;
    EXPECT_EQ(got.closed, want.closed) << f.name << " bin " << b;
    EXPECT_EQ(got.load, want.load) << f.name << " bin " << b;
    EXPECT_EQ(got.active_items, want.active_items) << f.name << " bin " << b;
    EXPECT_EQ(got.all_items, want.all_items) << f.name << " bin " << b;
  }
  expect_same_checkpoint(ledger, ref, f.name + " end");

  // The batch Simulator runs the same ledger to the same cost.
  auto batch_algo = f.make();
  EXPECT_EQ(Simulator{}.run(in, *batch_algo).cost, cost) << f.name;
}

class StorageEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StorageEquivalence, SoaMatchesReferenceOnGeneralInstances) {
  std::mt19937_64 rng(GetParam());
  workloads::GeneralConfig cfg;
  cfg.target_items = 220;
  cfg.log2_mu = 6;
  cfg.horizon = 40.0;  // dense enough to keep many bins open
  const Instance in = workloads::make_general_random(cfg, rng);
  for (const auto& f : testutil::online_factories())
    expect_same_storage_run(in, f);
}

TEST_P(StorageEquivalence, SoaMatchesReferenceOnAlignedInstances) {
  std::mt19937_64 rng(GetParam() + 1000);
  workloads::AlignedConfig cfg;
  cfg.max_bucket = 5;
  cfg.n = 6;
  const Instance in = workloads::make_aligned_random(cfg, rng);
  for (const auto& f : testutil::aligned_factories())
    expect_same_storage_run(in, f);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorageEquivalence,
                         ::testing::Range<std::uint64_t>(0, 18));

class BoundsInvariance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoundsInvariance, ReorderingSameInstantItemsChangesNoBound) {
  std::mt19937_64 rng(GetParam());
  workloads::GeneralConfig cfg;
  cfg.target_items = 100;
  cfg.log2_mu = 5;
  cfg.horizon = 10.0;  // dense: many shared instants
  cfg.integer_times = true;
  const Instance in = workloads::make_general_random(cfg, rng);

  std::vector<Item> items = in.items();
  std::shuffle(items.begin(), items.end(), rng);
  const Instance shuffled{items};

  const opt::Bounds a = opt::compute_bounds(in);
  const opt::Bounds b = opt::compute_bounds(shuffled);
  EXPECT_NEAR(a.demand, b.demand, 1e-9);
  EXPECT_NEAR(a.span, b.span, 1e-9);
  EXPECT_NEAR(a.ceil_integral, b.ceil_integral, 1e-9);
  // The repacking witness consumes events time-ordered, so it is also
  // order-invariant.
  EXPECT_NEAR(opt::repack_witness(in).cost, opt::repack_witness(shuffled).cost,
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundsInvariance,
                         ::testing::Range<std::uint64_t>(0, 8));

class TimeShiftInvariance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimeShiftInvariance, ShiftingTimestampsShiftsNothingElse) {
  std::mt19937_64 rng(GetParam());
  workloads::GeneralConfig cfg;
  cfg.target_items = 80;
  cfg.log2_mu = 5;
  const Instance in = workloads::make_general_random(cfg, rng);

  const double delta = 1024.0;  // dyadic: exact in double
  Instance shifted;
  for (const Item& r : in.items())
    shifted.add(r.arrival + delta, r.departure + delta, r.size);
  shifted.finalize();

  const opt::Bounds a = opt::compute_bounds(in);
  const opt::Bounds b = opt::compute_bounds(shifted);
  EXPECT_NEAR(a.demand, b.demand, 1e-9);
  EXPECT_NEAR(a.span, b.span, 1e-9);
  EXPECT_NEAR(a.ceil_integral, b.ceil_integral, 1e-9);

  // First-Fit ignores absolute time entirely.
  algos::FirstFit f1, f2;
  EXPECT_NEAR(run_cost(in, f1), run_cost(shifted, f2), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimeShiftInvariance,
                         ::testing::Range<std::uint64_t>(0, 6));

}  // namespace
}  // namespace cdbp
