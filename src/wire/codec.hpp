// Byte-level primitives of the compact binary wire format.
//
// The paper stresses that its protocols run over "small UDP messages"; these
// primitives define the exact datagram layout a deployment would use, and
// message_codec builds every message from them. The simulator's byte
// accounting (Payload::wire_bytes) is kept consistent with it by
// construction (tests assert the equivalence). Integers are encoded
// little-endian, fixed width; descriptor lists carry a u16 count.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "id/descriptor.hpp"

namespace bsvc {

/// Append-only byte buffer with typed writers.
class ByteWriter {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);

  /// Encodes a descriptor as: id u64, IPv4 u32, port u16 (14 bytes). The
  /// simulator maps its dense Address into the IPv4 field; a deployment
  /// would store the real endpoint.
  void descriptor(const NodeDescriptor& d);

  /// Encodes a u16 length prefix followed by each descriptor.
  /// Lists longer than 65535 are a protocol error. Accepts any contiguous
  /// descriptor range (DescriptorList converts implicitly; flat messages
  /// pass their span views directly).
  void descriptor_list(std::span<const NodeDescriptor> list);

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked sequential reader over a received datagram. All reads
/// return std::nullopt past the end (malformed datagrams must not crash a
/// node); higher layers treat nullopt as "drop the message".
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<std::uint8_t>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  std::optional<std::uint8_t> u8();
  std::optional<std::uint16_t> u16();
  std::optional<std::uint32_t> u32();
  std::optional<std::uint64_t> u64();
  std::optional<NodeDescriptor> descriptor();
  std::optional<DescriptorList> descriptor_list();

  /// Bytes not yet consumed.
  std::size_t remaining() const { return size_ - pos_; }
  /// True when the whole datagram was consumed (strict parsers check this).
  bool exhausted() const { return pos_ == size_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace bsvc
