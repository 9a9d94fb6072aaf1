#include "stats/kernels/packed_genotype.hpp"

#include <cstring>

#include "support/status.hpp"

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
// `count` of them, at crumb `offset[k]` with dosage `dosage[k]`. This is
// the order DosageRowOffsets lays its slots out in.
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

}  // namespace

PackedGenotypeBlock PackedGenotypeBlock::Pack(
    const std::vector<std::uint8_t>& dosages) {
  PackedGenotypeBlock block;
  block.size_ = static_cast<std::uint32_t>(dosages.size());
  block.payload_.assign((dosages.size() + 3) / 4, 0);
  std::uint8_t seen = 0;  // OR of every dosage: above 3 iff one is
  for (std::size_t i = 0; i < dosages.size(); ++i) {
    seen = static_cast<std::uint8_t>(seen | dosages[i]);
    block.payload_[i >> 2] = static_cast<std::uint8_t>(
        block.payload_[i >> 2] | (dosages[i] << (2 * (i & 3))));
  }
  SS_CHECK(seen <= 3);  // a dosage that does not fit in 2 bits
  return block;
}

PackedGenotypeBlock PackedGenotypeBlock::FromPayload(
    std::uint32_t size, std::vector<std::uint8_t> payload) {
  PackedGenotypeBlock block;
  block.size_ = size;
  block.payload_ = std::move(payload);
  return block;
}

std::vector<std::uint8_t> PackedGenotypeBlock::Unpack() const {
  std::vector<std::uint8_t> out;
  UnpackInto(&out);
  return out;
}

void PackedGenotypeBlock::UnpackInto(std::vector<std::uint8_t>* out) const {
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

DosageRowOffsets::DosageRowOffsets(std::size_t n, std::size_t count)
    : n_(n), count_(count), offset_{} {
  for (int byte = 0; byte < 256; ++byte) {
    const NonZeroEntry& entry = kNonZero.v[byte];
    for (int k = 0; k < entry.count; ++k) {
      offset_[byte][k] =
          ((std::size_t{entry.dosage[k]} - 1) * n + entry.offset[k]) * count;
    }
  }
}

std::size_t PackedGenotypeBlock::DosageRowsInto(
    const DosageRowOffsets& offsets, const double* table,
    std::vector<const double*>* rows) const {
  SS_CHECK(offsets.n() == size_);
  // Each byte stores all four slots at the next free position and
  // advances by its count, so the list needs room for a whole last byte:
  // 4 slots per payload byte. It grows but never shrinks.
  const std::size_t slots = 4 * payload_.size();
  if (rows->size() < slots) rows->resize(slots);
  const double** const first = rows->data();
  const double** out = first;
  // `at` is the byte's first patient's row, in doubles from `table`.
  const std::size_t stride = 4 * offsets.count();
  std::size_t at = 0;
  const auto emit = [&](std::uint8_t byte) {
    const std::size_t* slot = offsets.slots(byte);
    out[0] = table + (at + slot[0]);
    out[1] = table + (at + slot[1]);
    out[2] = table + (at + slot[2]);
    out[3] = table + (at + slot[3]);
    out += kNonZero.v[byte].count;
    at += stride;
  };
  const std::size_t full_bytes = size_ / 4;
  for (std::size_t b = 0; b < full_bytes; ++b) emit(payload_[b]);
  if (full_bytes < payload_.size()) {
    // Crumbs past `size_` are zero when packed here; mask them anyway so
    // a last byte can never name a patient that does not exist.
    const unsigned live_bits = 2 * (size_ % 4);
    emit(static_cast<std::uint8_t>(payload_[full_bytes] &
                                   ((1u << live_bits) - 1)));
  }
  return static_cast<std::size_t>(out - first);
}

}  // namespace ss::stats
