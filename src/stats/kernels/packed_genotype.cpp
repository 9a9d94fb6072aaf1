#include "stats/kernels/packed_genotype.hpp"

#include <cstring>

namespace ss::stats {
namespace {

// kDecode.v[byte] = the four dosages packed into `byte`, low crumb first.
struct DecodeTable {
  std::uint8_t v[256][4];
};

constexpr DecodeTable BuildDecodeTable() {
  DecodeTable table{};
  for (int byte = 0; byte < 256; ++byte) {
    for (int k = 0; k < 4; ++k) {
      table.v[byte][k] = static_cast<std::uint8_t>((byte >> (2 * k)) & 0x3);
    }
  }
  return table;
}

constexpr DecodeTable kDecode = BuildDecodeTable();

// kNonZero.v[byte] lists the byte's non-zero crumbs, low crumb first:
// `count` of them, at crumb `offset[k]` with dosage `dosage[k]`. Slots
// past `count` are zero-filled so a decoder can store all four.
struct NonZeroEntry {
  std::uint8_t count;
  std::uint8_t offset[4];
  std::uint8_t dosage[4];
};

struct NonZeroTable {
  NonZeroEntry v[256];
};

constexpr NonZeroTable BuildNonZeroTable() {
  NonZeroTable table{};
  for (int byte = 0; byte < 256; ++byte) {
    NonZeroEntry& entry = table.v[byte];
    for (int k = 0; k < 4; ++k) {
      const auto d = static_cast<std::uint8_t>((byte >> (2 * k)) & 0x3);
      if (d == 0) continue;
      entry.offset[entry.count] = static_cast<std::uint8_t>(k);
      entry.dosage[entry.count] = d;
      ++entry.count;
    }
  }
  return table;
}

constexpr NonZeroTable kNonZero = BuildNonZeroTable();

// Grows the run buffers to hold `slots` entries without shrinking them.
void ReserveRuns(std::size_t slots, std::vector<std::uint32_t>* index,
                 std::vector<std::uint8_t>* dosage) {
  if (index->size() < slots) index->resize(slots);
  if (dosage->size() < slots) dosage->resize(slots);
}

}  // namespace

std::size_t CompactNonZero(const std::vector<std::uint8_t>& dosages,
                           std::vector<std::uint32_t>* index,
                           std::vector<std::uint8_t>* dosage) {
  ReserveRuns(dosages.size(), index, dosage);
  std::uint32_t* idx = index->data();
  std::uint8_t* dos = dosage->data();
  std::size_t nnz = 0;
  // Every patient is written at the next free slot, and the slot is kept
  // only when its dosage is non-zero: no branch on the data.
  for (std::size_t i = 0; i < dosages.size(); ++i) {
    idx[nnz] = static_cast<std::uint32_t>(i);
    dos[nnz] = dosages[i];
    nnz += dosages[i] != 0 ? 1 : 0;
  }
  return nnz;
}

PackedGenotypeBlock PackedGenotypeBlock::Pack(
    const std::vector<std::uint8_t>& dosages) {
  PackedGenotypeBlock block;
  block.size_ = static_cast<std::uint32_t>(dosages.size());
  for (std::uint8_t d : dosages) {
    if (d > 3) {
      block.packed_ = false;
      block.payload_ = dosages;
      return block;
    }
  }
  block.payload_.assign((dosages.size() + 3) / 4, 0);
  for (std::size_t i = 0; i < dosages.size(); ++i) {
    block.payload_[i >> 2] = static_cast<std::uint8_t>(
        block.payload_[i >> 2] | (dosages[i] << (2 * (i & 3))));
  }
  return block;
}

PackedGenotypeBlock PackedGenotypeBlock::FromPayload(
    std::uint32_t size, bool packed, std::vector<std::uint8_t> payload) {
  PackedGenotypeBlock block;
  block.size_ = size;
  block.packed_ = packed;
  block.payload_ = std::move(payload);
  return block;
}

std::vector<std::uint8_t> PackedGenotypeBlock::Unpack() const {
  std::vector<std::uint8_t> out;
  UnpackInto(&out);
  return out;
}

void PackedGenotypeBlock::UnpackInto(std::vector<std::uint8_t>* out) const {
  if (!packed_) {
    *out = payload_;
    return;
  }
  out->resize(size_);
  std::uint8_t* dst = out->data();
  const std::size_t full_bytes = size_ / 4;
  for (std::size_t b = 0; b < full_bytes; ++b) {
    std::memcpy(dst + 4 * b, kDecode.v[payload_[b]], 4);
  }
  for (std::size_t i = 4 * full_bytes; i < size_; ++i) {
    dst[i] = kDecode.v[payload_[i >> 2]][i & 3];
  }
}

std::size_t PackedGenotypeBlock::NonZeroInto(
    std::vector<std::uint32_t>* index,
    std::vector<std::uint8_t>* dosage) const {
  if (!packed_) return CompactNonZero(payload_, index, dosage);
  // Each byte stores all four LUT slots at the next free position and
  // advances by its count, so the buffers need room for a whole last
  // byte: 4 * payload bytes, which is size rounded up to a multiple of 4.
  ReserveRuns(4 * payload_.size(), index, dosage);
  std::uint32_t* idx = index->data();
  std::uint8_t* dos = dosage->data();
  std::size_t nnz = 0;
  const std::size_t full_bytes = size_ / 4;
  const auto emit = [&](std::uint8_t byte, std::uint32_t base) {
    const NonZeroEntry& entry = kNonZero.v[byte];
    for (int k = 0; k < 4; ++k) idx[nnz + k] = base + entry.offset[k];
    std::memcpy(dos + nnz, entry.dosage, 4);
    nnz += entry.count;
  };
  for (std::size_t b = 0; b < full_bytes; ++b) {
    emit(payload_[b], static_cast<std::uint32_t>(4 * b));
  }
  if (full_bytes < payload_.size()) {
    // Crumbs past `size_` are zero by construction; mask them anyway so
    // a last byte can never list a patient that does not exist.
    const unsigned live_bits = 2 * (size_ % 4);
    emit(static_cast<std::uint8_t>(payload_[full_bytes] &
                                   ((1u << live_bits) - 1)),
         static_cast<std::uint32_t>(4 * full_bytes));
  }
  return nnz;
}

std::uint64_t PackedGenotypeBlock::AlleleCount() const {
  if (!packed_) {
    std::uint64_t total = 0;
    for (std::uint8_t d : payload_) total += d;
    return total;
  }
  // Dosage = low crumb bit + 2 * high crumb bit, so the sum over a word
  // is popcount(low bits) + 2 * popcount(high bits). Unused trailing
  // crumbs are zero by construction and contribute nothing.
  constexpr std::uint64_t kLowCrumbBits = 0x5555555555555555ULL;
  std::uint64_t total = 0;
  std::size_t b = 0;
  for (; b + 8 <= payload_.size(); b += 8) {
    std::uint64_t word;
    std::memcpy(&word, payload_.data() + b, sizeof(word));
    total += static_cast<std::uint64_t>(__builtin_popcountll(word & kLowCrumbBits)) +
             2 * static_cast<std::uint64_t>(
                     __builtin_popcountll((word >> 1) & kLowCrumbBits));
  }
  for (; b < payload_.size(); ++b) {
    const std::uint8_t byte = payload_[b];
    total += static_cast<std::uint64_t>(__builtin_popcount(byte & 0x55)) +
             2 * static_cast<std::uint64_t>(
                     __builtin_popcount((byte >> 1) & 0x55));
  }
  return total;
}

}  // namespace ss::stats
