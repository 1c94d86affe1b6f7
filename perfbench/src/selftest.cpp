// Self-tests of the benchmark's own logic: exact percentiles and the
// "ten samples beyond" rule, max_rate ladder selection, tenant-to-shard
// pinning, and the input generators (tail share and range, alignment,
// determinism). Run with `python3 perfbench/run.py --self-test`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "inputs.h"
#include "serve/shard_router.h"
#include "stats.h"

namespace perfbench {
namespace {

/// True when `size` lies in the tail's range: 1 - size in
/// [kTailGapMin, kTailGapMax], with rounding slack.
bool is_tail_size(double size) {
  const double gap = 1.0 - size;
  return gap >= kTailGapMin * (1.0 - 1e-6) && gap <= kTailGapMax * (1.0 + 1e-9);
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRankIsExact) {
  auto v = one_to(100);
  EXPECT_EQ(percentile(v, 0.5), 50.0);
  EXPECT_EQ(percentile(v, 0.99), 99.0);
  EXPECT_EQ(percentile(v, 1.0), 100.0);
  EXPECT_EQ(percentile(v, 0.0), 1.0);
  auto w = one_to(1000);
  EXPECT_EQ(percentile(w, 0.99), 990.0);
  EXPECT_EQ(percentile(w, 0.999), 999.0);
  std::vector<double> empty;
  EXPECT_EQ(percentile(empty, 0.5), 0.0);
}

TEST(Percentile, MedianAveragesTheMiddlePair) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Percentile, TenSamplesBeyondRule) {
  // p99 of n samples sits at rank ceil(0.99 n); it needs n - rank >= 10.
  EXPECT_TRUE(percentile_reportable(1000, 0.99));
  EXPECT_FALSE(percentile_reportable(999, 0.99));
  EXPECT_TRUE(percentile_reportable(20, 0.5));
  EXPECT_FALSE(percentile_reportable(19, 0.5));
  EXPECT_FALSE(percentile_reportable(0, 0.5));
  EXPECT_TRUE(percentile_reportable(10000, 0.999));
  EXPECT_FALSE(percentile_reportable(10000, 0.9999));
}

StepOutcome step(double rate, double p99_ms, std::uint64_t failed = 0,
                 bool backlog = false, std::size_t samples = 5000) {
  StepOutcome s;
  s.offered_rate = rate;
  s.achieved_rate = rate;
  s.p99_ms = p99_ms;
  s.samples = samples;
  s.failed = failed;
  s.backlog_growing = backlog;
  return s;
}

TEST(MaxRate, PicksHighestPassingRate) {
  EXPECT_EQ(max_rate_step({step(10, 1), step(20, 2), step(30, 50)}, 20.0), 1);
  EXPECT_EQ(max_rate_step({step(30, 1), step(10, 1), step(20, 1)}, 20.0), 0);
  // A higher rate that passes counts even when a lower one failed.
  EXPECT_EQ(max_rate_step({step(10, 50), step(20, 2)}, 20.0), 1);
  EXPECT_EQ(max_rate_step({step(10, 50), step(20, 50)}, 20.0), -1);
}

TEST(MaxRate, FailuresBacklogAndThinSamplesDisqualify) {
  EXPECT_EQ(max_rate_step({step(10, 1), step(20, 1, /*failed=*/1)}, 20.0), 0);
  EXPECT_EQ(max_rate_step({step(10, 1), step(20, 1, 0, /*backlog=*/true)}, 20.0),
            0);
  EXPECT_EQ(max_rate_step({step(10, 1), step(20, 1, 0, false, /*samples=*/999)},
                          20.0),
            0);
  EXPECT_TRUE(step_passes(step(10, 20.0), 20.0));
  EXPECT_FALSE(step_passes(step(10, 20.5), 20.0));
}

TEST(Pinning, EveryTenantLandsOnItsShard) {
  for (std::size_t shards : {1u, 2u, 3u, 4u, 8u}) {
    const auto shard_of = [shards](std::string_view t) {
      return static_cast<std::size_t>(cdbp::serve::tenant_hash(t) % shards);
    };
    const auto names = pin_tenants(shards, shard_of);
    ASSERT_EQ(names.size(), shards);
    for (std::size_t k = 0; k < shards; ++k) EXPECT_EQ(shard_of(names[k]), k);
    auto sorted = names;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
  }
}

TEST(Generators, TailHitsItsShareAndRange) {
  constexpr std::size_t n = 200000;
  const cdbp::Instance inst = make_general(GeneralSpec{n, 0.01}, 7);
  ASSERT_EQ(inst.size(), n);
  std::vector<double> gaps;
  for (const cdbp::Item& it : inst.items()) {
    if (is_tail_size(it.size)) {
      gaps.push_back(1.0 - it.size);
    } else {
      EXPECT_GE(it.size, kSizeMin);
      EXPECT_LE(it.size, kSizeMax);
    }
    EXPECT_GE(it.length(), 1.0);
    EXPECT_LE(it.length(), kMu);
  }
  const double share = static_cast<double>(gaps.size()) / n;
  EXPECT_NEAR(share, 0.01, 0.001);  // ~4.5 standard deviations
  EXPECT_GE(*std::min_element(gaps.begin(), gaps.end()), kTailGapMin * 0.999);
  EXPECT_LE(*std::max_element(gaps.begin(), gaps.end()), kTailGapMax * 1.001);
  // Log-uniform: the median gap is near the geometric mean of the range.
  const double mid = median(gaps);
  EXPECT_GT(mid, std::sqrt(kTailGapMin * kTailGapMax) / 1.5);
  EXPECT_LT(mid, std::sqrt(kTailGapMin * kTailGapMax) * 1.5);

  const cdbp::Instance none = make_general(GeneralSpec{n, 0.0}, 7);
  for (const cdbp::Item& it : none.items()) EXPECT_FALSE(is_tail_size(it.size));
}

TEST(Generators, SameSeedSameItems) {
  const auto a = make_general(GeneralSpec{1000, 0.01}, 3);
  const auto b = make_general(GeneralSpec{1000, 0.01}, 3);
  const auto c = make_general(GeneralSpec{1000, 0.01}, 4);
  EXPECT_EQ(a.items(), b.items());
  EXPECT_NE(a.items(), c.items());
}

TEST(Generators, AlignedInstanceIsAligned) {
  const cdbp::Instance inst = make_aligned(100000, 5);
  EXPECT_TRUE(inst.is_aligned());
  EXPECT_NEAR(static_cast<double>(inst.size()), 100000.0, 5000.0);
}

TEST(Generators, StreamIsOrderedPerTenant) {
  const ServeStream s = make_stream(5000, 0.01, {"a", "b", "c"}, 11);
  ASSERT_EQ(s.offers.size(), 5000u);
  std::vector<std::uint64_t> last(3, 0);
  double clock = 0.0;
  for (const Offer& o : s.offers) {
    EXPECT_EQ(o.stream_index, last[o.tenant] + 1);
    last[o.tenant] = o.stream_index;
    EXPECT_GE(o.arrival, clock);
    clock = o.arrival;
    EXPECT_GT(o.departure, o.arrival);
  }
  for (const std::uint64_t n : last) EXPECT_GT(n, 1000u);
}

}  // namespace
}  // namespace perfbench
