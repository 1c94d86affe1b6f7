#include "core/bin_index.h"

#include <bit>
#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace cdbp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The original one-ulp-at-a-time search, kept as the bit-identity oracle for
// max_load_admitting. Its cost is the ulp distance from 1 + eps - size to
// the boundary, about 2^(k-1) steps at size 1 - 2^-k (2^29 at size 1.0).
Load walk_max_load_admitting(Load size) {
  Load t = kBinCapacity + kLoadEps - size;
  while (fits_in_bin(t, size)) t = std::nextafter(t, kInf);
  while (!fits_in_bin(t, size)) t = std::nextafter(t, -kInf);
  return t;
}

void expect_matches_walk(Load size) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(max_load_admitting(size)),
            std::bit_cast<std::uint64_t>(walk_max_load_admitting(size)))
      << "size " << size;
}

std::uint64_t bound_probes(Load size) {
  std::uint64_t probes = 0;
  (void)max_load_admitting(size, probes);
  return probes;
}

TEST(MaxLoadAdmitting, MatchesFitsInBinBoundaryExactly) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> unit(1e-6, 1.0);
  for (int k = 0; k < 2000; ++k) {
    const Load size = unit(rng);
    const Load bound = max_load_admitting(size);
    EXPECT_TRUE(fits_in_bin(bound, size));
    EXPECT_FALSE(fits_in_bin(
        std::nextafter(bound, std::numeric_limits<double>::infinity()),
        size));
  }
  // Degenerate sizes: tiny and full.
  for (const Load size : {1e-300, 1e-18, 1.0}) {
    const Load bound = max_load_admitting(size);
    EXPECT_TRUE(fits_in_bin(bound, size));
    EXPECT_FALSE(fits_in_bin(
        std::nextafter(bound, std::numeric_limits<double>::infinity()),
        size));
  }
  // Sizes 1 - 2^-k for k > 30, too close to 1 for the walk oracle.
  for (int k = 31; k <= 53; ++k) {
    const Load size = 1.0 - std::ldexp(1.0, -k);
    const Load bound = max_load_admitting(size);
    EXPECT_TRUE(fits_in_bin(bound, size)) << "k " << k;
    EXPECT_FALSE(fits_in_bin(std::nextafter(bound, kInf), size)) << "k " << k;
  }
}

// Sizes 1 - 2^-k approach capacity one bit at a time; each doubles the
// walk's length, so k = 30 is as far as the oracle can be run.
class MaxLoadAdmittingNearOne : public ::testing::TestWithParam<int> {};

TEST_P(MaxLoadAdmittingNearOne, MatchesWalkBitForBit) {
  expect_matches_walk(1.0 - std::ldexp(1.0, -GetParam()));
}

INSTANTIATE_TEST_SUITE_P(K, MaxLoadAdmittingNearOne, ::testing::Range(1, 31));

TEST(MaxLoadAdmitting, MatchesWalkOnRandomAndSubnormalSizes) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int k = 0; k < 2000; ++k) expect_matches_walk(unit(rng));
  const double denorm = std::numeric_limits<double>::denorm_min();
  for (const Load size :
       {0.0, -0.0, denorm, 2 * denorm, 12345.0 * denorm,
        std::numeric_limits<double>::min() / 3,
        std::nextafter(std::numeric_limits<double>::min(), 0.0),
        std::numeric_limits<double>::min(), kLoadEps, 1.0 / 3, 0.5, 0.75})
    expect_matches_walk(size);
}

TEST(MaxLoadAdmitting, ProbeCountIsLogarithmicNearCapacity) {
  for (const Load size : {0.0, 1e-300, 0.5, 0.999, 0.9999999,
                          1.0 - std::ldexp(1.0, -52), 1.0})
    EXPECT_LE(bound_probes(size), 130u) << "size " << size;
  // At 1.0 the boundary is 2^29 ulps away: gallop and bisect, not walk.
  EXPECT_LE(bound_probes(1.0), 64u);
}

TEST(MaxLoadAdmitting, ProbeCountStaysSmallOnBodySizes) {
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> body(0.02, 0.6);
  for (int k = 0; k < 100000; ++k) {
    const Load size = body(rng);
    ASSERT_LE(bound_probes(size), 4u) << "size " << size;
  }
  for (const Load size : {0.02, 0.25, 0.5, 0.6})
    EXPECT_LE(bound_probes(size), 4u) << "size " << size;
}

#ifndef CDBP_OBS_OFF
TEST(BinCapacityIndex, BestFitCountsItsBoundProbes) {
  obs::Counter& counter =
      obs::MetricsRegistry::global().counter("index.bound_probes");
  BinCapacityIndex idx;
  idx.set_load(idx.add_bin(0), 0.3);
  for (const Load size : {0.25, 0.6, 0.9999999, 1.0}) {
    const std::uint64_t before = counter.value();
    (void)idx.best_fit(size);
    EXPECT_EQ(counter.value() - before, bound_probes(size)) << "size " << size;
  }
}
#endif

TEST(BinCapacityIndex, EmptyIndexSelectsNothing) {
  BinCapacityIndex idx;
  EXPECT_EQ(idx.first_fit(0.5), kNoBin);
  EXPECT_EQ(idx.best_fit(0.5), kNoBin);
  EXPECT_EQ(idx.worst_fit(0.5), kNoBin);
  EXPECT_EQ(idx.newest_open(), kNoBin);
  EXPECT_EQ(idx.open_count(), 0u);
}

TEST(BinCapacityIndex, FirstFitIsEarliestOpened) {
  BinCapacityIndex idx;
  const auto s0 = idx.add_bin(10);
  const auto s1 = idx.add_bin(11);
  idx.add_bin(12);
  idx.set_load(s0, 0.9);
  idx.set_load(s1, 0.5);
  // 0.2 fits bins 11 and 12; earliest opened wins.
  EXPECT_EQ(idx.first_fit(0.2), 11);
  // 0.05 also fits bin 10.
  EXPECT_EQ(idx.first_fit(0.05), 10);
  EXPECT_EQ(idx.first_fit(0.9), 12);
}

TEST(BinCapacityIndex, BestFitPrefersFullestThenEarliest) {
  BinCapacityIndex idx;
  const auto s0 = idx.add_bin(0);
  const auto s1 = idx.add_bin(1);
  const auto s2 = idx.add_bin(2);
  idx.set_load(s0, 0.4);
  idx.set_load(s1, 0.7);
  idx.set_load(s2, 0.7);
  EXPECT_EQ(idx.best_fit(0.2), 1);  // 0.7 beats 0.4; tie -> earliest id
  EXPECT_EQ(idx.best_fit(0.5), 0);  // only 0.4 admits it
  EXPECT_EQ(idx.best_fit(0.95), kNoBin);
}

TEST(BinCapacityIndex, WorstFitPrefersEmptiestThenEarliest) {
  BinCapacityIndex idx;
  const auto s0 = idx.add_bin(0);
  const auto s1 = idx.add_bin(1);
  const auto s2 = idx.add_bin(2);
  idx.set_load(s0, 0.4);
  idx.set_load(s1, 0.2);
  idx.set_load(s2, 0.2);
  EXPECT_EQ(idx.worst_fit(0.3), 1);  // min load; tie -> earliest id
  // If the min-load bin cannot take it, nothing can.
  EXPECT_EQ(idx.worst_fit(0.9), kNoBin);
}

TEST(BinCapacityIndex, ClosedBinsAreNeverSelected) {
  BinCapacityIndex idx;
  const auto s0 = idx.add_bin(0);
  idx.add_bin(1);
  idx.set_load(s0, 0.1);
  idx.close(s0);
  EXPECT_EQ(idx.first_fit(0.1), 1);
  EXPECT_EQ(idx.best_fit(0.1), 1);
  EXPECT_EQ(idx.worst_fit(0.1), 1);
  EXPECT_EQ(idx.open_count(), 1u);
  EXPECT_EQ(idx.open_bins(), std::vector<BinId>{1});
}

TEST(BinCapacityIndex, NewestOpenSkipsClosedTail) {
  BinCapacityIndex idx;
  idx.add_bin(0);
  idx.add_bin(1);
  const auto s2 = idx.add_bin(2);
  EXPECT_EQ(idx.newest_open(), 2);
  idx.close(s2);
  EXPECT_EQ(idx.newest_open(), 1);
}

// Randomized cross-check against a straight linear scan, through a long
// open/load/close churn that also exercises tree growth.
TEST(BinCapacityIndex, AgreesWithLinearScanUnderChurn) {
  BinCapacityIndex idx;
  std::mt19937_64 rng(123);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  struct Slot {
    BinId bin;
    std::size_t slot;
    Load load = 0.0;
    bool open = true;
  };
  std::vector<Slot> shadow;

  const auto linear_first = [&](Load size) {
    for (const Slot& s : shadow)
      if (s.open && fits_in_bin(s.load, size)) return s.bin;
    return kNoBin;
  };
  const auto linear_best = [&](Load size) {
    BinId chosen = kNoBin;
    Load best = -1.0;
    for (const Slot& s : shadow)
      if (s.open && fits_in_bin(s.load, size) && s.load > best) {
        best = s.load;
        chosen = s.bin;
      }
    return chosen;
  };
  const auto linear_worst = [&](Load size) {
    BinId chosen = kNoBin;
    Load best = 2.0;
    for (const Slot& s : shadow)
      if (s.open && fits_in_bin(s.load, size) && s.load < best) {
        best = s.load;
        chosen = s.bin;
      }
    return chosen;
  };

  BinId next_bin = 0;
  for (int step = 0; step < 5000; ++step) {
    const double r = unit(rng);
    if (r < 0.3 || shadow.empty()) {
      Slot s;
      s.bin = next_bin++;
      s.slot = idx.add_bin(s.bin);
      shadow.push_back(s);
    } else if (r < 0.8) {
      Slot& s = shadow[static_cast<std::size_t>(unit(rng) *
                                                static_cast<double>(
                                                    shadow.size()))];
      if (s.open) {
        s.load = unit(rng);
        idx.set_load(s.slot, s.load);
      }
    } else {
      Slot& s = shadow[static_cast<std::size_t>(unit(rng) *
                                                static_cast<double>(
                                                    shadow.size()))];
      if (s.open) {
        s.open = false;
        idx.close(s.slot);
      }
    }
    const Load size = unit(rng);
    ASSERT_EQ(idx.first_fit(size), linear_first(size)) << "step " << step;
    ASSERT_EQ(idx.best_fit(size), linear_best(size)) << "step " << step;
    ASSERT_EQ(idx.worst_fit(size), linear_worst(size)) << "step " << step;
  }
}

}  // namespace
}  // namespace cdbp
