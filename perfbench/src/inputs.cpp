#include "inputs.h"

#include <cmath>
#include <stdexcept>

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::log_uniform(double lo, double hi) {
  return std::exp(std::log(lo) + uniform() * (std::log(hi) - std::log(lo)));
}

int Rng::poisson(double lambda) {
  const double limit = std::exp(-lambda);
  int k = 0;
  double p = uniform();
  while (p > limit) {
    ++k;
    p *= uniform();
  }
  return k;
}

namespace {

constexpr double kGrid = 1024.0;  // event times are multiples of 2^-10

double snap(double t) { return std::floor(t * kGrid) / kGrid; }

/// One general item drawn from `rng`; `arrival_span` is the horizon.
cdbp::Item draw_item(Rng& rng, double arrival_span, double tail_share) {
  cdbp::Item item;
  item.arrival = snap(rng.uniform() * arrival_span);
  const double length = std::max(1.0, snap(rng.log_uniform(1.0, kMu)));
  item.departure = item.arrival + length;
  // Draw both uniforms unconditionally so the tail share does not shift
  // the rest of the stream.
  const double pick = rng.uniform();
  const double u = rng.uniform();
  item.size = pick < tail_share
                  ? 1.0 - std::exp(std::log(kTailGapMin) +
                                   u * (std::log(kTailGapMax) -
                                        std::log(kTailGapMin)))
                  : kSizeMin + u * (kSizeMax - kSizeMin);
  return item;
}

}  // namespace

cdbp::Instance make_general(const GeneralSpec& spec, std::uint64_t seed) {
  Rng rng(seed);
  const double span = static_cast<double>(spec.items) / kArrivalsPerTime;
  cdbp::Instance inst;
  for (std::size_t i = 0; i < spec.items; ++i) {
    const cdbp::Item item = draw_item(rng, span, spec.tail_share);
    inst.add(item.arrival, item.departure, item.size);
  }
  inst.finalize();
  return inst;
}

cdbp::Instance make_aligned(std::size_t items, std::uint64_t seed) {
  constexpr int kHorizonExp = 16;
  constexpr int kMaxBucket = 8;
  // Bucket i has 2^(16-i) slots, so all buckets together hold about
  // 2^17 * lambda items.
  const double lambda =
      static_cast<double>(items) / std::ldexp(1.0, kHorizonExp + 1);
  Rng rng(seed);
  cdbp::Instance inst;
  for (int i = 0; i <= kMaxBucket; ++i) {
    const double len = std::ldexp(1.0, i);
    const double slots = std::ldexp(1.0, kHorizonExp - i);
    for (double c = 0; c < slots; c += 1.0) {
      const int k = rng.poisson(lambda);
      for (int j = 0; j < k; ++j)
        inst.add(c * len, c * len + len, 0.05 + 0.45 * rng.uniform());
    }
  }
  inst.finalize();
  return inst;
}

std::vector<std::string> pin_tenants(
    std::size_t shards,
    const std::function<std::size_t(std::string_view)>& shard_of) {
  std::vector<std::string> names;
  for (std::size_t k = 0; k < shards; ++k) {
    for (std::size_t j = 0;; ++j) {
      std::string name = "t" + std::to_string(k) + "-" + std::to_string(j);
      if (shard_of(name) == k) {
        names.push_back(std::move(name));
        break;
      }
      if (j > 100000) throw std::runtime_error("pin_tenants: no tenant found");
    }
  }
  return names;
}

ServeStream make_stream(std::size_t offers, double tail_share,
                        std::vector<std::string> tenants, std::uint64_t seed) {
  const cdbp::Instance inst =
      make_general(GeneralSpec{offers, tail_share}, seed);
  Rng rng(seed ^ 0x5eed5eed5eed5eedULL);
  ServeStream stream;
  stream.tenants = std::move(tenants);
  std::vector<std::uint64_t> next_index(stream.tenants.size(), 1);
  stream.offers.reserve(inst.size());
  for (const cdbp::Item& item : inst.items()) {
    Offer o;
    o.tenant = static_cast<std::uint32_t>(rng.next() % stream.tenants.size());
    o.stream_index = next_index[o.tenant]++;
    o.arrival = item.arrival;
    o.departure = item.departure;
    o.size = item.size;
    stream.offers.push_back(o);
  }
  return stream;
}

}  // namespace perfbench
