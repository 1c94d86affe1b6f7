// Fuzz-style stress suite: adversarially structured edge-case instances
// and randomly mutated workloads, run through every algorithm with full
// post-hoc validation. The goal is to shake out boundary bugs the
// structured suites cannot reach: exact-capacity stacks, touching
// intervals, duplicated items, pathological same-instant orderings.
#include <algorithm>
#include <random>

#include <gtest/gtest.h>

#include "core/simulator.h"
#include "core/validation.h"
#include "opt/bounds.h"
#include "test_util.h"
#include "workloads/general_random.h"

namespace cdbp {
namespace {

void check_everyone(const Instance& in, const std::string& label) {
  const double lb = opt::compute_bounds(in).lower();
  for (const auto& f : testutil::online_factories()) {
    auto algo = f.make();
    const RunResult r = Simulator{}.run(in, *algo);
    const ValidationReport rep = validate_run(in, r);
    EXPECT_TRUE(rep.ok()) << label << " / " << f.name << ": "
                          << rep.to_string();
    EXPECT_GE(r.cost, lb - 1e-6) << label << " / " << f.name;
  }
}

TEST(Fuzz, ExactCapacityStacks) {
  // Items that fill bins to exactly 1.0 repeatedly.
  Instance in;
  for (int wave = 0; wave < 6; ++wave) {
    const Time t = wave * 2.0;
    for (int k = 0; k < 4; ++k) in.add(t, t + 2.0, 0.25);
    for (int k = 0; k < 2; ++k) in.add(t, t + 2.0, 0.5);
  }
  in.finalize();
  check_everyone(in, "exact-capacity");
}

TEST(Fuzz, IdenticalItemsBurst) {
  Instance in;
  for (int k = 0; k < 64; ++k) in.add(0.0, 1.0, 0.3);
  in.finalize();
  check_everyone(in, "identical");
}

TEST(Fuzz, TouchingIntervalChains) {
  // Long chains where departure_i == arrival_{i+1} exactly.
  Instance in;
  for (int k = 0; k < 40; ++k)
    in.add(static_cast<Time>(k), static_cast<Time>(k + 1), 0.6);
  in.finalize();
  check_everyone(in, "touching-chain");
}

TEST(Fuzz, NestedIntervals) {
  // Strictly nested intervals (matryoshka): stresses horizon bookkeeping.
  Instance in;
  for (int k = 0; k < 12; ++k)
    in.add(static_cast<Time>(k), static_cast<Time>(64 - k), 0.07);
  in.finalize();
  check_everyone(in, "nested");
}

TEST(Fuzz, FullSizeItems) {
  // Size exactly 1: every item needs a private bin.
  Instance in;
  for (int k = 0; k < 10; ++k)
    in.add(static_cast<Time>(k) * 0.5, static_cast<Time>(k) * 0.5 + 2.0, 1.0);
  in.finalize();
  check_everyone(in, "full-size");
  algos::FirstFit ff;
  EXPECT_EQ(Simulator{}.run(in, ff).bins_opened, in.size());
  // BestFit's capacity bound at size 1.0 sits 2^29 ulps from its start
  // point; the index must still find it (and refuse every open bin).
  algos::BestFit bf;
  EXPECT_EQ(Simulator{}.run(in, bf).bins_opened, in.size());
}

TEST(Fuzz, TinySizes) {
  Instance in;
  for (int k = 0; k < 200; ++k)
    in.add(static_cast<Time>(k % 7), static_cast<Time>(k % 7) + 1.0 + k % 3,
           1e-6);
  in.finalize();
  check_everyone(in, "tiny-sizes");
}

TEST(Fuzz, ExtremeDurationRatios) {
  Instance in;
  in.add(0.0, pow2(24), 0.5);  // mu = 2^24 against length-1 items
  for (int k = 0; k < 30; ++k)
    in.add(static_cast<Time>(k * 17 % 97), static_cast<Time>(k * 17 % 97) + 1.0,
           0.4);
  in.finalize();
  check_everyone(in, "extreme-mu");
}

class FuzzMutations : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzMutations, MutatedWorkloadsStayValid) {
  std::mt19937_64 rng(GetParam());
  workloads::GeneralConfig cfg;
  cfg.target_items = 120;
  cfg.log2_mu = 6;
  cfg.horizon = 48.0;
  Instance base = workloads::make_general_random(cfg, rng);

  // Mutations: duplicate random items, clone with jittered sizes, and
  // reverse same-instant presentation order.
  std::vector<Item> items = base.items();
  std::uniform_int_distribution<std::size_t> pick(0, items.size() - 1);
  std::uniform_real_distribution<double> jitter(0.5, 1.5);
  for (int m = 0; m < 20; ++m) {
    Item clone = items[pick(rng)];
    clone.size = std::clamp(clone.size * jitter(rng), 1e-6, 1.0);
    items.push_back(clone);
  }
  std::shuffle(items.begin(), items.end(), rng);
  Instance mutated{items};
  check_everyone(mutated, "mutated-" + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzMutations,
                         ::testing::Range<std::uint64_t>(0, 10));

TEST(Fuzz, ManyInstantsOneItemEach) {
  Instance in;
  for (int k = 0; k < 500; ++k) {
    const Time t = static_cast<Time>(k) * 0.125;
    in.add(t, t + 1.0 + (k % 5), 0.2 + 0.1 * (k % 4));
  }
  in.finalize();
  check_everyone(in, "dense-instants");
}

}  // namespace
}  // namespace cdbp
