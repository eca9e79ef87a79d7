#include "wire/codec.hpp"

#include "common/assert.hpp"

namespace bsvc {

void ByteWriter::u8(std::uint8_t v) { buf_.push_back(v); }

void ByteWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::descriptor(const NodeDescriptor& d) {
  u64(d.id);
  u32(d.addr);                                   // stands in for IPv4
  u16(static_cast<std::uint16_t>(d.addr % 65536));  // stands in for port
}

void ByteWriter::descriptor_list(std::span<const NodeDescriptor> list) {
  BSVC_CHECK_MSG(list.size() <= 65535, "descriptor list too long for wire format");
  u16(static_cast<std::uint16_t>(list.size()));
  for (const auto& d : list) descriptor(d);
}

std::optional<std::uint8_t> ByteReader::u8() {
  if (remaining() < 1) return std::nullopt;
  return data_[pos_++];
}

std::optional<std::uint16_t> ByteReader::u16() {
  if (remaining() < 2) return std::nullopt;
  std::uint16_t v = 0;
  for (int i = 0; i < 2; ++i) v |= static_cast<std::uint16_t>(data_[pos_++]) << (8 * i);
  return v;
}

std::optional<std::uint32_t> ByteReader::u32() {
  if (remaining() < 4) return std::nullopt;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  return v;
}

std::optional<std::uint64_t> ByteReader::u64() {
  if (remaining() < 8) return std::nullopt;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  return v;
}

std::optional<NodeDescriptor> ByteReader::descriptor() {
  const auto id = u64();
  const auto addr = u32();
  const auto port = u16();
  if (!id || !addr || !port) return std::nullopt;
  return NodeDescriptor{*id, *addr};
}

std::optional<DescriptorList> ByteReader::descriptor_list() {
  const auto count = u16();
  if (!count) return std::nullopt;
  DescriptorList list;
  list.reserve(*count);
  for (std::uint16_t i = 0; i < *count; ++i) {
    const auto d = descriptor();
    if (!d) return std::nullopt;
    list.push_back(*d);
  }
  return list;
}

}  // namespace bsvc
