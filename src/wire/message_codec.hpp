// Binary wire format for every protocol message in the system.
//
// Each datagram is a 1-byte message-type tag followed by the type's body,
// built from the primitives in wire/codec. decode() is strict (the whole
// datagram must be consumed, all length prefixes honoured) and total (any
// byte string returns either a valid message or nullptr — never crashes),
// which the fuzz tests exercise.
//
// The per-class Payload::wire_bytes() used by the simulator's traffic
// accounting equals encode().size() - 1 (the tag byte is accounted as part
// of the UDP payload header overhead); tests pin this equivalence for every
// message type. Installing transcoder() on an Engine round-trips every
// delivered payload through encode→decode, proving the protocols depend
// only on wire-visible state.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "sim/engine.hpp"
#include "sim/payload.hpp"

namespace bsvc {

/// Wire tags. Values are part of the format; do not renumber. Tags 4–6
/// (T-Man, rumor, aggregation) are retired and must never be reused: a
/// frame carrying one decodes to nullptr.
enum class MessageType : std::uint8_t {
  Bootstrap = 1,
  Newscast = 2,
  Chord = 3,
  Probe = 7,
};

/// Serializes any known payload; nullopt for payload classes without a wire
/// format (test doubles).
std::optional<std::vector<std::uint8_t>> encode_message(const Payload& payload);

/// Parses a datagram; nullptr when malformed or of unknown type.
std::unique_ptr<Payload> decode_message(const std::vector<std::uint8_t>& bytes);

/// An Engine transcoder that round-trips every payload through
/// encode_message/decode_message (Engine::set_transcoder).
std::function<PayloadRef(const Payload&)> wire_roundtrip_transcoder();

}  // namespace bsvc
