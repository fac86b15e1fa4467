// Shared vocabulary of the wire benchmark: clocks, the seeded RNG, the
// failure type every check throws, and small numeric helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock (the epoch is arbitrary but shared by every
/// timestamp the generator records).
inline double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// A failed correctness check.  The run prints no result when one escapes.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Throws CheckFailure(msg) when `cond` is false.  A macro so that the
/// message is only built on failure: checks run once per reply.
#define PB_REQUIRE(cond, msg)                            \
  do {                                                   \
    if (!(cond)) throw ::pb::CheckFailure(msg);          \
  } while (false)

/// splitmix64: the benchmark's only randomness source, seeded from --seed,
/// so the same seed gives the same inputs.
struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed * 0x9E3779B97F4A7C15ULL + 1) {}
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  std::size_t index(std::size_t n) {
    return static_cast<std::size_t>(uniform() * static_cast<double>(n)) %
           (n == 0 ? 1 : n);
  }
};

/// 64-bit mixing hash used to fingerprint replies and model answers.
struct Hasher {
  std::uint64_t h = 0x84222325CBF29CE4ULL;
  void add(std::uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    h *= 0xFF51AFD7ED558CCDULL;
    h ^= h >> 33;
  }
  void add_double(double d) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof d);
    __builtin_memcpy(&bits, &d, sizeof d);
    add(bits);
  }
};

/// Exact percentile of a sample (nearest rank on a sorted copy).
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  return v[static_cast<std::size_t>(std::llround(rank))];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 50); }

}  // namespace pb
