#include "support/rng.hpp"

namespace ss {

std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64(sm);
}

Rng Rng::Split(std::uint64_t stream_id) const {
  // Mix the parent state with the stream id through SplitMix64 twice; the
  // resulting seed selects a far-apart region of the generator's period.
  std::uint64_t sm = s_[0] ^ Rotl(s_[2], 29) ^ (stream_id * 0xd1342543de82ef95ULL);
  std::uint64_t seed = SplitMix64(sm);
  seed ^= SplitMix64(sm);
  return Rng(seed);
}

}  // namespace ss
