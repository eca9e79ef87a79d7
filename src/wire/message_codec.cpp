#include "wire/message_codec.hpp"

#include "core/bootstrap.hpp"
#include "overlay/chord.hpp"
#include "sampling/newscast.hpp"
#include "wire/codec.hpp"

namespace bsvc {

namespace {

void put_timestamped(ByteWriter& w, const std::vector<TimestampedDescriptor>& entries) {
  w.u16(static_cast<std::uint16_t>(entries.size()));
  for (const auto& e : entries) {
    w.descriptor(e.descriptor);
    // Coarse 32-bit timestamp: ample for any simulated horizon (2^32 ticks
    // = 4M cycles) and what the declared wire size budgets for.
    w.u32(static_cast<std::uint32_t>(e.timestamp));
  }
}

std::optional<std::vector<TimestampedDescriptor>> get_timestamped(ByteReader& r) {
  const auto count = r.u16();
  if (!count) return std::nullopt;
  std::vector<TimestampedDescriptor> out;
  out.reserve(*count);
  for (std::uint16_t i = 0; i < *count; ++i) {
    const auto d = r.descriptor();
    const auto ts = r.u32();
    if (!d || !ts) return std::nullopt;
    out.push_back({*d, *ts});
  }
  return out;
}

}  // namespace

std::optional<std::vector<std::uint8_t>> encode_message(const Payload& payload) {
  // Dispatch on the PayloadKind tag set at construction — a single switch
  // instead of the old dynamic_cast chain. PayloadKind::Custom (test
  // doubles) has no wire format.
  ByteWriter w;
  switch (payload.kind()) {
    case PayloadKind::Bootstrap: {
      const auto* m = static_cast<const BootstrapMessage*>(&payload);
      w.u8(static_cast<std::uint8_t>(MessageType::Bootstrap));
      w.descriptor(m->sender);
      w.u8(m->is_request ? 1 : 0);
      w.descriptor_list(m->ring_part());
      w.descriptor_list(m->prefix_part());
      w.u16(static_cast<std::uint16_t>(m->tombstones.size()));
      for (const auto& ts : m->tombstones) {
        w.u64(ts.id);
        w.u32(static_cast<std::uint32_t>(ts.expiry));
      }
      break;
    }
    case PayloadKind::Newscast: {
      const auto* m = static_cast<const NewscastMessage*>(&payload);
      w.u8(static_cast<std::uint8_t>(MessageType::Newscast));
      put_timestamped(w, m->entries);
      w.u8(m->is_request ? 1 : 0);
      break;
    }
    case PayloadKind::Chord: {
      const auto* m = static_cast<const ChordMessage*>(&payload);
      w.u8(static_cast<std::uint8_t>(MessageType::Chord));
      w.descriptor(m->sender);
      w.u8(m->is_request ? 1 : 0);
      w.descriptor_list(m->ring_part);
      w.descriptor_list(m->finger_part);
      break;
    }
    case PayloadKind::Probe: {
      const auto* m = static_cast<const ProbeMessage*>(&payload);
      w.u8(static_cast<std::uint8_t>(MessageType::Probe));
      w.u8(m->is_reply ? 1 : 0);
      w.u64(m->responder_id);
      break;
    }
    case PayloadKind::KvRequest:
    case PayloadKind::KvResponse:
    case PayloadKind::PrefixCast:
    case PayloadKind::Custom:
      // Workload traffic and test doubles are simulation-local: no wire
      // format (the workload layer measures routing over the bootstrapped
      // tables, not codec costs).
      return std::nullopt;
  }
  return w.bytes();
}

std::unique_ptr<Payload> decode_message(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  const auto tag = r.u8();
  if (!tag) return nullptr;
  switch (static_cast<MessageType>(*tag)) {
    case MessageType::Bootstrap: {
      const auto sender = r.descriptor();
      const auto flag = r.u8();
      auto ring = r.descriptor_list();
      auto prefix = r.descriptor_list();
      const auto ts_count = r.u16();
      if (!sender || !flag || !ring || !prefix || !ts_count || *flag > 1) return nullptr;
      std::vector<Tombstone> tombstones;
      tombstones.reserve(*ts_count);
      for (std::uint16_t i = 0; i < *ts_count; ++i) {
        const auto id = r.u64();
        const auto expiry = r.u32();
        if (!id || !expiry) return nullptr;
        tombstones.push_back({*id, *expiry});
      }
      if (!r.exhausted()) return nullptr;
      auto msg = std::make_unique<BootstrapMessage>(*sender, *ring, *prefix, *flag == 1);
      msg->tombstones = std::move(tombstones);
      return msg;
    }
    case MessageType::Newscast: {
      auto entries = get_timestamped(r);
      const auto flag = r.u8();
      if (!entries || !flag || *flag > 1 || !r.exhausted()) return nullptr;
      return std::make_unique<NewscastMessage>(std::move(*entries), *flag == 1);
    }
    case MessageType::Chord: {
      const auto sender = r.descriptor();
      const auto flag = r.u8();
      auto ring = r.descriptor_list();
      auto fingers = r.descriptor_list();
      if (!sender || !flag || !ring || !fingers || *flag > 1 || !r.exhausted()) return nullptr;
      return std::make_unique<ChordMessage>(*sender, std::move(*ring), std::move(*fingers),
                                            *flag == 1);
    }
    case MessageType::Probe: {
      const auto flag = r.u8();
      const auto responder = r.u64();
      if (!flag || !responder || *flag > 1 || !r.exhausted()) return nullptr;
      return std::make_unique<ProbeMessage>(*flag == 1, *responder);
    }
  }
  return nullptr;
}

std::function<PayloadRef(const Payload&)> wire_roundtrip_transcoder() {
  return [](const Payload& payload) -> PayloadRef {
    const auto bytes = encode_message(payload);
    if (!bytes) return {};
    // Build-then-publish: decode constructs a fresh mutable message, the
    // implicit conversion publishes it as an immutable ref.
    return decode_message(*bytes);
  };
}

}  // namespace bsvc
