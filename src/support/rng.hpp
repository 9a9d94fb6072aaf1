// Deterministic, splittable pseudo-random number generation.
//
// Everything random in this project (synthetic data, Monte Carlo weights,
// permutation shuffles, failure injection) flows through `Rng` so that runs
// are reproducible from a single seed even when partitions execute on
// different executor threads. `Rng::Split(stream_id)` derives a statistically
// independent child stream, which is how per-partition and per-replicate
// generators are created: the result of a distributed computation never
// depends on task scheduling order.
//
// The generator is xoshiro256** (Blackman & Vigna), seeded through
// SplitMix64 as its authors recommend.
#pragma once

#include <cstdint>

namespace ss {

/// SplitMix64 step; used for seeding and stream derivation. Public because
/// tests and hash-mixing in the engine reuse it.
std::uint64_t SplitMix64(std::uint64_t& state);

/// xoshiro256** generator with an explicit split operation.
class Rng {
 public:
  /// Seeds the four words of state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // The per-draw members are defined inline below: resampling blocks and
  // shuffles call them once per entry, where an out-of-line call costs
  // as much as the draw itself.

  /// Next 64 uniform bits.
  std::uint64_t NextU64();

  /// Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble();

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t NextBounded(std::uint64_t bound);

  /// Derives an independent child generator identified by `stream_id`.
  /// Children with distinct ids are independent of each other and of the
  /// parent's future output; the parent state is not advanced.
  Rng Split(std::uint64_t stream_id) const;

  /// UniformRandomBitGenerator interface so <algorithm> shuffles work.
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return NextU64(); }

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

inline std::uint64_t Rng::NextU64() {
  const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

inline double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

inline std::uint64_t Rng::NextBounded(std::uint64_t bound) {
  if (bound == 0) return 0;
  // Lemire's nearly-divisionless method.
  std::uint64_t x = NextU64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto l = static_cast<std::uint64_t>(m);
  if (l < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (l < threshold) {
      x = NextU64();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

}  // namespace ss
