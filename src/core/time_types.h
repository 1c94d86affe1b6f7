// Core scalar types and the single numeric-tolerance policy for libcdbp.
//
// Times are IEEE doubles. Every generator in this repository emits *dyadic*
// times (integer multiples of a power of two), which are exactly
// representable, so event ordering and aligned-input arithmetic are exact.
// Loads (item sizes) are doubles in [0, 1]; all capacity comparisons go
// through the helpers below so the tolerance lives in exactly one place.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>

namespace cdbp {

/// Simulation time. Generators emit dyadic rationals; see file comment.
using Time = double;

/// An item size or a bin load, in [0, 1] (sums of sizes may exceed 1).
using Load = double;

/// Accumulated usage time (MinUsageTime cost).
using Cost = double;

/// Identifier of a bin within a Ledger. Assigned in opening order, so
/// comparing BinIds compares opening times (First-Fit scans ascending ids).
using BinId = std::int64_t;

/// Identifier of an item within an Instance (its index).
using ItemId = std::int64_t;

/// Sentinel for "no bin".
inline constexpr BinId kNoBin = -1;

/// Bin capacity. The problem statement fixes it to 1; kept symbolic so the
/// tolerance helpers read naturally.
inline constexpr Load kBinCapacity = 1.0;

/// Global absolute tolerance for load arithmetic. Applied on the permissive
/// side of capacity checks and the strict side of algorithm thresholds.
inline constexpr Load kLoadEps = 1e-9;

/// Absolute tolerance for time comparisons in *derived* quantities
/// (integrals, spans). Raw event times are compared exactly.
inline constexpr double kTimeEps = 1e-9;

/// True when a bin currently at `load` can also accept `size`.
[[nodiscard]] inline bool fits_in_bin(Load load, Load size) noexcept {
  return load + size <= kBinCapacity + kLoadEps;
}

/// True when `a` exceeds `b` beyond tolerance (strict compare for
/// algorithm thresholds such as HA's 1/(2*sqrt(i))).
[[nodiscard]] inline bool definitely_greater(double a, double b) noexcept {
  return a > b + kLoadEps;
}

namespace detail {

/// Maps a double onto an unsigned key whose integer order is the numeric
/// order of the doubles (-0.0 sits one key below +0.0; NaNs lie outside
/// [-inf, +inf]). Adjacent keys are adjacent doubles, so a key distance is
/// an ulp count.
[[nodiscard]] inline std::uint64_t ordered_key(double x) noexcept {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  return bits >> 63 ? ~bits : bits | (std::uint64_t{1} << 63);
}

[[nodiscard]] inline double from_ordered_key(std::uint64_t key) noexcept {
  return std::bit_cast<double>(key >> 63 ? key & ~(std::uint64_t{1} << 63)
                                         : ~key);
}

}  // namespace detail

/// Largest load value that still admits `size` under fits_in_bin, computed
/// exactly on the double grid (fits_in_bin is monotone non-increasing in
/// load, so the admitting loads form a prefix of the number line). Used by
/// the capacity index to turn the tolerance predicate into a key bound.
///
/// The search starts at 1 + eps - size, gallops away from it on the ordered
/// bit pattern (probe offsets 1, 3, 7, ... ulps) until fits_in_bin flips,
/// then bisects the bracket. A boundary d ulps away costs about
/// 2*log2(d) + 2 probes; `probes` is incremented once per fits_in_bin
/// evaluation. Sizes in [0, 1) whose start point is >= 0.25 land within
/// 2 ulps (<= 4 probes); as size -> 1 the start point shrinks towards eps
/// while the boundary stays half an ulp(1) above it, so d grows to 2^29 at
/// size 1.0 (60 probes). No finite size takes more than 128 probes.
/// `size` must not be NaN or +infinity.
[[nodiscard]] inline Load max_load_admitting(Load size,
                                             std::uint64_t& probes) noexcept {
  constexpr std::uint64_t kTop = 0xFFF0000000000000;     // key of +inf
  constexpr std::uint64_t kBottom = 0x000FFFFFFFFFFFFF;  // key of -inf
  const auto fits = [&](std::uint64_t key) {
    ++probes;
    return fits_in_bin(detail::from_ordered_key(key), size);
  };
  // Invariant once bracketed: fits(lo) and !fits(hi). +inf never fits and
  // -inf always does, so clamping the gallop there keeps it finite.
  std::uint64_t lo = detail::ordered_key(kBinCapacity + kLoadEps - size);
  std::uint64_t hi = lo;
  std::uint64_t step = 1;
  if (fits(lo)) {
    for (;; step *= 2) {
      hi = lo + std::min(step, kTop - lo);
      if (!fits(hi)) break;
      lo = hi;
    }
  } else {
    for (;; step *= 2) {
      lo = hi - std::min(step, hi - kBottom);
      if (fits(lo)) break;
      hi = lo;
    }
  }
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (fits(mid))
      lo = mid;
    else
      hi = mid;
  }
  return detail::from_ordered_key(lo);
}

/// max_load_admitting without the probe count.
[[nodiscard]] inline Load max_load_admitting(Load size) noexcept {
  std::uint64_t probes = 0;
  return max_load_admitting(size, probes);
}

/// True when |a - b| is within load tolerance.
[[nodiscard]] inline bool approx_equal(double a, double b,
                                       double eps = kLoadEps) noexcept {
  return std::fabs(a - b) <= eps;
}

/// floor(log2(x)) for x >= 1, computed on the exact double representation.
[[nodiscard]] inline int floor_log2(double x) noexcept {
  assert(x >= 1.0);
  int exp = 0;
  const double frac = std::frexp(x, &exp);  // x = frac * 2^exp, frac in [0.5,1)
  (void)frac;
  return exp - 1;
}

/// Smallest i with 2^i >= x, for x >= 1.
[[nodiscard]] inline int ceil_log2(double x) noexcept {
  assert(x >= 1.0);
  const int f = floor_log2(x);
  return std::ldexp(1.0, f) == x ? f : f + 1;
}

/// floor(log2(n)) for integral n >= 1.
[[nodiscard]] inline int floor_log2_u64(std::uint64_t n) noexcept {
  assert(n >= 1);
  return 63 - std::countl_zero(n);
}

/// True when n is a power of two (n >= 1).
[[nodiscard]] inline bool is_power_of_two(std::uint64_t n) noexcept {
  return n != 0 && (n & (n - 1)) == 0;
}

/// Number of trailing zero bits of n (n >= 1).
[[nodiscard]] inline int trailing_zeros(std::uint64_t n) noexcept {
  assert(n >= 1);
  return std::countr_zero(n);
}

/// 2^i as a double (i may be negative).
[[nodiscard]] inline double pow2(int i) noexcept { return std::ldexp(1.0, i); }

/// True when t is an integer multiple of 2^i (t >= 0, dyadic t).
[[nodiscard]] inline bool is_multiple_of_pow2(Time t, int i) noexcept {
  const double q = t / pow2(i);
  return q == std::floor(q);
}

inline constexpr double kInfTime = std::numeric_limits<double>::infinity();

}  // namespace cdbp
