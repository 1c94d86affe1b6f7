// Seeded input generators. The benchmark owns them (rather than calling
// the library's workload generators) so that a change to the program can
// never change the inputs it is measured on: the same seed gives the same
// items on every commit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/instance.h"

namespace perfbench {

/// splitmix64: tiny, portable and identical on every toolchain (the
/// standard distributions are implementation-defined, so none are used).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1) with 53 random bits.
  double uniform();
  /// exp(uniform(log lo, log hi)).
  double log_uniform(double lo, double hi);
  /// Poisson(lambda) by inversion of the product of uniforms (small lambda).
  int poisson(double lambda);

 private:
  std::uint64_t state_;
};

/// Shape of the general (unaligned) instances.
struct GeneralSpec {
  std::size_t items = 0;
  /// Share of items whose `1 - size` is drawn log-uniform in
  /// [kTailGapMin, kTailGapMax] — the near-capacity tail.
  double tail_share = 0.0;
};

inline constexpr double kTailGapMin = 1e-6;
inline constexpr double kTailGapMax = 1e-1;
/// Durations are log-uniform in [1, kMu] (mu = 2^8).
inline constexpr double kMu = 256.0;
/// Body sizes are uniform in [kSizeMin, kSizeMax].
inline constexpr double kSizeMin = 0.02;
inline constexpr double kSizeMax = 0.6;
/// Mean arrivals per unit of simulated time; sets how many bins are open.
inline constexpr double kArrivalsPerTime = 50.0;

/// Poisson-like arrivals over [0, items / kArrivalsPerTime), on a 2^-10
/// time grid so every event time is exact, log-uniform durations, uniform
/// body sizes plus the near-capacity tail.
[[nodiscard]] cdbp::Instance make_general(const GeneralSpec& spec,
                                          std::uint64_t seed);

/// An aligned instance (Definition 2.1) of about `items` items: every
/// duration bucket i in [0, 8] gets Poisson-many items of length 2^i at
/// each multiple of 2^i in [0, 2^16). CDFF requires this shape.
[[nodiscard]] cdbp::Instance make_aligned(std::size_t items,
                                          std::uint64_t seed);

/// One offer of the serve stream.
struct Offer {
  std::uint32_t tenant = 0;        ///< index into ServeStream::tenants
  std::uint64_t stream_index = 0;  ///< 1-based, per tenant
  double arrival = 0.0;
  double departure = 0.0;
  double size = 0.0;
};

/// A multi-tenant offer stream in global arrival order: each tenant's
/// stream indices increase with arrival, and every shard receives its
/// offers in arrival order when they are sent in stream order.
struct ServeStream {
  std::vector<std::string> tenants;
  std::vector<Offer> offers;
};

/// Tenant names, one per shard, such that shard_of(names[k]) == k. Names
/// are "t<k>-<j>" with the smallest j that lands on shard k.
[[nodiscard]] std::vector<std::string> pin_tenants(
    std::size_t shards,
    const std::function<std::size_t(std::string_view)>& shard_of);

/// The serve stream: items drawn like make_general (tail included) and
/// dealt to `tenants` round-robin by a seeded draw.
[[nodiscard]] ServeStream make_stream(std::size_t offers, double tail_share,
                                      std::vector<std::string> tenants,
                                      std::uint64_t seed);

}  // namespace perfbench
