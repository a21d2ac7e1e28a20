#ifndef HYBRIDTIER_COMMON_RNG_H_
#define HYBRIDTIER_COMMON_RNG_H_

/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the simulator flows through these generators
 * so that every experiment is reproducible bit-for-bit from its seed.
 * SplitMix64 is used for seeding and hashing-style mixing; xoshiro256**
 * is the main generator (fast, 256-bit state, passes BigCrush).
 */

#include <cmath>
#include <cstdint>

#include "common/logging.h"

namespace hybridtier {

/** One SplitMix64 step: advances `state` and returns the next value. */
inline uint64_t SplitMix64Next(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/**
 * xoshiro256** generator with distribution helpers.
 *
 * The helpers intentionally avoid std::uniform_int_distribution et al.,
 * whose outputs differ across standard library implementations.
 */
class Rng {
 public:
  /** Seeds the 256-bit state from a single 64-bit seed via SplitMix64. */
  explicit Rng(uint64_t seed = 0x185fb8271cull) {
    uint64_t sm = seed;
    for (auto& word : state_) word = SplitMix64Next(sm);
  }

  /** Returns the next raw 64-bit value. */
  uint64_t NextU64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /** Returns a double uniformly distributed in [0, 1). */
  double NextDouble() { return UnitOf(NextU64()); }

  /** The double NextDouble() returns for the raw draw `x`. */
  static double UnitOf(uint64_t x) {
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  }

  /**
   * Returns the raw-draw threshold `t` such that, for every 64-bit `x`,
   * `x < t` exactly when `UnitOf(x) < p`, so `NextU64() < t` replaces
   * `NextDouble() < p` without changing a single outcome.
   *
   * UnitOf(x) < p is (x >> 11) < p * 2^53. Scaling by a power of two is
   * exact, and for an integer m, m < y exactly when m < ceil(y); so the
   * test is (x >> 11) < ceil(p * 2^53), i.e. x < ceil(p * 2^53) << 11.
   * Requires 0 < p < 1: p < 1 keeps the ceiling at most 2^53 - 1, so the
   * shift cannot overflow (p = 1 would wrap to t = 0 and reject every x).
   */
  static uint64_t UnitThreshold(double p) {
    HT_ASSERT(p > 0.0 && p < 1.0, "UnitThreshold requires 0 < p < 1, got ",
              p);
    return static_cast<uint64_t>(std::ceil(p * 0x1.0p53)) << 11;
  }

  /** Returns an integer uniformly distributed in [0, bound). */
  uint64_t NextBounded(uint64_t bound) {
    HT_ASSERT(bound > 0, "NextBounded requires bound > 0");
    // Lemire's multiply-shift rejection method: unbiased and fast.
    uint64_t x = NextU64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t low = static_cast<uint64_t>(m);
    if (low < bound) {
      uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = NextU64();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /** Returns an integer uniformly distributed in [lo, hi] inclusive. */
  int64_t UniformInt(int64_t lo, int64_t hi) {
    HT_ASSERT(lo <= hi, "UniformInt requires lo <= hi");
    return lo + static_cast<int64_t>(
                    NextBounded(static_cast<uint64_t>(hi - lo) + 1));
  }

  /** Returns true with probability `p`. */
  bool Bernoulli(double p) { return NextDouble() < p; }

  /** Samples an exponential distribution with the given mean. */
  double Exponential(double mean) {
    double u = NextDouble();
    // Guard against log(0).
    if (u <= 0.0) u = 0x1.0p-53;
    return -mean * std::log(u);
  }

  /** Samples a standard normal via Box-Muller (uses one pair per call). */
  double Normal(double mean = 0.0, double stddev = 1.0) {
    double u1 = NextDouble();
    double u2 = NextDouble();
    if (u1 <= 0.0) u1 = 0x1.0p-53;
    const double mag = std::sqrt(-2.0 * std::log(u1));
    return mean + stddev * mag * std::cos(2.0 * M_PI * u2);
  }

  /** Samples a lognormal distribution parameterized by log-space mu/sigma. */
  double LogNormal(double mu, double sigma) {
    return std::exp(Normal(mu, sigma));
  }

  /**
   * Fisher-Yates shuffles `data[0..n)` in place.
   * @tparam T element type of the array being permuted.
   */
  template <typename T>
  void Shuffle(T* data, size_t n) {
    for (size_t i = n; i > 1; --i) {
      const size_t j = NextBounded(i);
      std::swap(data[i - 1], data[j]);
    }
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_COMMON_RNG_H_
