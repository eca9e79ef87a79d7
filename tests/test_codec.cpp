#include "wire/codec.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/bootstrap.hpp"
#include "sampling/newscast.hpp"
#include "tests/test_util.hpp"

namespace bsvc {
namespace {

TEST(Codec, IntegerRoundtrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, LittleEndianLayout) {
  ByteWriter w;
  w.u32(0x01020304);
  const auto& b = w.bytes();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0], 0x04);
  EXPECT_EQ(b[1], 0x03);
  EXPECT_EQ(b[2], 0x02);
  EXPECT_EQ(b[3], 0x01);
}

TEST(Codec, DescriptorRoundtripAndSize) {
  ByteWriter w;
  const NodeDescriptor d{0xFEEDFACECAFEBEEFull, 1234};
  w.descriptor(d);
  EXPECT_EQ(w.size(), kDescriptorWireBytes);
  ByteReader r(w.bytes());
  const auto back = r.descriptor();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->id, d.id);
  EXPECT_EQ(back->addr, d.addr);
}

TEST(Codec, DescriptorListRoundtrip) {
  const auto list = test::random_descriptors(37, 1);
  ByteWriter w;
  w.descriptor_list(list);
  EXPECT_EQ(w.size(), descriptor_list_wire_bytes(list.size()));
  ByteReader r(w.bytes());
  const auto back = r.descriptor_list();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, list);
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, EmptyListRoundtrip) {
  ByteWriter w;
  w.descriptor_list({});
  ByteReader r(w.bytes());
  const auto back = r.descriptor_list();
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->empty());
}

TEST(Codec, TruncatedReadsReturnNullopt) {
  ByteWriter w;
  w.descriptor_list(test::random_descriptors(3, 2));
  const auto& full = w.bytes();
  // Every proper prefix must fail cleanly, never crash.
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    ByteReader r(full.data(), cut);
    EXPECT_FALSE(r.descriptor_list().has_value()) << "cut=" << cut;
  }
}

TEST(Codec, BitflipsNeverOverread) {
  // Bit flips anywhere in a serialized descriptor list — including the
  // count prefix — must either still parse (the flip landed in a value
  // byte) or fail cleanly; the reader never reads past its buffer.
  const auto list = test::random_descriptors(5, 7);
  ByteWriter w;
  w.descriptor_list(list);
  const auto& full = w.bytes();
  for (std::size_t byte = 0; byte < full.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> mutant(full.begin(), full.end());
      mutant[byte] = static_cast<std::uint8_t>(mutant[byte] ^ (1u << bit));
      ByteReader r(mutant.data(), mutant.size());
      const auto back = r.descriptor_list();
      if (back.has_value()) {
        // A value-byte flip keeps the element count; a count flip that
        // still parses can only have shrunk the list (fewer elements than
        // bytes provide fails the exhausted check in message decoding, but
        // the primitive accepts a short read).
        EXPECT_LE(back->size(), (mutant.size() - 2) / kDescriptorWireBytes + 1);
      }
    }
  }
}

TEST(Codec, ReaderPastEnd) {
  ByteReader r(nullptr, 0);
  EXPECT_FALSE(r.u8().has_value());
  EXPECT_FALSE(r.u16().has_value());
  EXPECT_FALSE(r.u32().has_value());
  EXPECT_FALSE(r.u64().has_value());
  EXPECT_FALSE(r.descriptor().has_value());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Codec, CorruptCountDoesNotOverread) {
  ByteWriter w;
  w.u16(60000);  // claims 60000 descriptors, provides none
  ByteReader r(w.bytes());
  EXPECT_FALSE(r.descriptor_list().has_value());
}

// The simulator's byte accounting must equal the codec's serialized sizes.

TEST(WireSizeEquivalence, BootstrapMessage) {
  const auto ring = test::random_descriptors(20, 3);
  const auto prefix = test::random_descriptors(45, 4);
  const BootstrapMessage msg({1, 0}, ring, prefix, true);

  ByteWriter w;
  w.descriptor(msg.sender);
  w.u8(msg.is_request ? 1 : 0);
  w.descriptor_list(msg.ring_part());
  w.descriptor_list(msg.prefix_part());
  w.u16(static_cast<std::uint16_t>(msg.tombstones.size()));  // certificates (none here)
  EXPECT_EQ(msg.wire_bytes(), w.size());
}

TEST(WireSizeEquivalence, NewscastMessage) {
  std::vector<TimestampedDescriptor> entries;
  for (const auto& d : test::random_descriptors(30, 5)) entries.push_back({d, 12345});
  const NewscastMessage msg(entries, true);

  ByteWriter w;
  w.u16(static_cast<std::uint16_t>(entries.size()));
  for (const auto& e : entries) {
    w.descriptor(e.descriptor);
    w.u32(static_cast<std::uint32_t>(e.timestamp));
  }
  w.u8(1);
  EXPECT_EQ(msg.wire_bytes(), w.size());
}

}  // namespace
}  // namespace bsvc
