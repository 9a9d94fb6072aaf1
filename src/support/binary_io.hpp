// Byte-oriented serialization used by the mini-DFS block format, the
// genotype store's header and index, and its genotype frame payloads.
// Little-endian, no alignment requirements.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace ss {

/// Appends primitive values to a growing byte buffer.
class BinaryWriter {
 public:
  void WriteU32(std::uint32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU64(std::uint64_t v) { WriteRaw(&v, sizeof(v)); }

  void WriteString(const std::string& s) {
    WriteU64(s.size());
    WriteRaw(s.data(), s.size());
  }

  template <typename T>
  void WritePodVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteU64(v.size());
    WriteRaw(v.data(), v.size() * sizeof(T));
  }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> TakeBytes() { return std::move(bytes_); }

 private:
  void WriteRaw(const void* data, std::size_t size) {
    if (size == 0) return;  // data() of an empty container may be null
    const auto* p = static_cast<const std::uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + size);
  }

  std::vector<std::uint8_t> bytes_;
};

/// Sequentially reads values written by BinaryWriter. The bytes are
/// untrusted: a read past the end returns false (and the caller stops
/// reading), so a truncated or version-skewed payload fails closed as
/// its caller's Status instead of aborting.
class BinaryReader {
 public:
  explicit BinaryReader(const std::vector<std::uint8_t>& bytes)
      : bytes_(bytes) {}

  [[nodiscard]] bool ReadU32(std::uint32_t* out) {
    return ReadRaw(out, sizeof(*out));
  }
  [[nodiscard]] bool ReadU64(std::uint64_t* out) {
    return ReadRaw(out, sizeof(*out));
  }

  /// A WriteString value: u64 length, then the characters.
  [[nodiscard]] bool ReadString(std::string* out) {
    std::uint64_t size = 0;
    if (!ReadU64(&size) || size > Remaining()) return false;
    out->assign(reinterpret_cast<const char*>(bytes_.data() + pos_), size);
    pos_ += size;
    return true;
  }

  /// The next `count` bytes (a WritePodVector<std::uint8_t> body, after
  /// its u64 count).
  [[nodiscard]] bool ReadBytes(std::uint64_t count,
                               std::vector<std::uint8_t>* out) {
    if (count > Remaining()) return false;
    const auto* first = bytes_.data() + pos_;
    out->assign(first, first + count);
    pos_ += count;
    return true;
  }

  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  std::size_t Remaining() const { return bytes_.size() - pos_; }

  bool ReadRaw(void* out, std::size_t size) {
    if (size > Remaining()) return false;
    std::memcpy(out, bytes_.data() + pos_, size);
    pos_ += size;
    return true;
  }

  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_ = 0;
};

/// FNV-1a checksum over a byte span; the DFS stores one per block so that
/// corruption (or a truncated replica) is detected at read time.
std::uint64_t Checksum(std::span<const std::uint8_t> bytes);

}  // namespace ss
