// Record serialization for the cache's spill tier.
//
// A cached partition evicted under a memory budget is written as one
// frame (EncodePartition) and decoded on reload. `Codec<T>` defines the
// byte format per record type; provide a specialization to make a custom
// record type spillable.
#pragma once

#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/binary_io.hpp"

namespace ss::engine {

template <typename T, typename Enable = void>
struct Codec {
  static void Encode(BinaryWriter& writer, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "provide a Codec specialization for this record type");
    writer.WritePodVector(std::vector<T>{value});
  }
  static T Decode(BinaryReader& reader) {
    return reader.ReadPodVector<T>().at(0);
  }
};

// Compact specialization for trivially copyable types (no length prefix).
template <typename T>
struct Codec<T, std::enable_if_t<std::is_trivially_copyable_v<T>>> {
  static void Encode(BinaryWriter& writer, const T& value) {
    std::uint8_t bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (std::uint8_t b : bytes) writer.WriteU8(b);
  }
  static T Decode(BinaryReader& reader) {
    std::uint8_t bytes[sizeof(T)];
    for (auto& b : bytes) b = reader.ReadU8();
    T value;
    std::memcpy(&value, bytes, sizeof(T));
    return value;
  }
};

template <>
struct Codec<std::string> {
  static void Encode(BinaryWriter& writer, const std::string& value) {
    writer.WriteString(value);
  }
  static std::string Decode(BinaryReader& reader) {
    return reader.ReadString();
  }
};

template <typename A, typename B>
struct Codec<std::pair<A, B>> {
  static void Encode(BinaryWriter& writer, const std::pair<A, B>& value) {
    Codec<A>::Encode(writer, value.first);
    Codec<B>::Encode(writer, value.second);
  }
  static std::pair<A, B> Decode(BinaryReader& reader) {
    A a = Codec<A>::Decode(reader);
    B b = Codec<B>::Decode(reader);
    return {std::move(a), std::move(b)};
  }
};

template <typename T>
struct Codec<std::vector<T>, std::enable_if_t<!std::is_trivially_copyable_v<std::vector<T>>>> {
  static void Encode(BinaryWriter& writer, const std::vector<T>& value) {
    writer.WriteU64(value.size());
    for (const T& item : value) Codec<T>::Encode(writer, item);
  }
  static std::vector<T> Decode(BinaryReader& reader) {
    const std::uint64_t count = reader.ReadU64();
    std::vector<T> out;
    out.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      out.push_back(Codec<T>::Decode(reader));
    }
    return out;
  }
};

/// True when `Codec<T>` round-trips T without a user-provided
/// specialization, i.e. the partition can cross the cache's spill tier.
/// Mirrors the Codec specializations above; extend both together.
template <typename T>
inline constexpr bool kSpillable = std::is_trivially_copyable_v<T>;

template <>
inline constexpr bool kSpillable<std::string> = true;

template <typename A, typename B>
inline constexpr bool kSpillable<std::pair<A, B>> =
    kSpillable<A> && kSpillable<B>;

template <typename T>
inline constexpr bool kSpillable<std::vector<T>> = kSpillable<T>;

/// Serializes a whole partition.
template <typename T>
std::vector<std::uint8_t> EncodePartition(const std::vector<T>& records) {
  BinaryWriter writer;
  writer.WriteU64(records.size());
  for (const T& record : records) Codec<T>::Encode(writer, record);
  return writer.TakeBytes();
}

template <typename T>
std::vector<T> DecodePartition(const std::vector<std::uint8_t>& bytes) {
  BinaryReader reader(bytes);
  const std::uint64_t count = reader.ReadU64();
  std::vector<T> records;
  records.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    records.push_back(Codec<T>::Decode(reader));
  }
  return records;
}

}  // namespace ss::engine
