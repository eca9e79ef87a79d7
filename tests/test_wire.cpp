#include "wire/message_codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/bootstrap.hpp"
#include "core/experiment.hpp"
#include "overlay/chord.hpp"
#include "sampling/newscast.hpp"
#include "tests/test_util.hpp"
#include "wire/codec.hpp"

namespace bsvc {
namespace {

template <typename T>
std::unique_ptr<T> roundtrip(const T& msg) {
  const auto bytes = encode_message(msg);
  EXPECT_TRUE(bytes.has_value());
  auto decoded = decode_message(*bytes);
  EXPECT_NE(decoded, nullptr);
  auto* typed = dynamic_cast<T*>(decoded.get());  // test-only checked cast
  EXPECT_NE(typed, nullptr);
  decoded.release();
  return std::unique_ptr<T>(typed);
}

TEST(Wire, BootstrapRoundtrip) {
  const BootstrapMessage msg({42, 7}, test::random_descriptors(20, 1),
                             test::random_descriptors(33, 2), true);
  const auto back = roundtrip(msg);
  EXPECT_EQ(back->sender, msg.sender);
  EXPECT_TRUE(std::ranges::equal(back->ring_part(), msg.ring_part()));
  EXPECT_TRUE(std::ranges::equal(back->prefix_part(), msg.prefix_part()));
  EXPECT_EQ(back->is_request, msg.is_request);
}

TEST(Wire, NewscastRoundtrip) {
  std::vector<TimestampedDescriptor> entries;
  for (const auto& d : test::random_descriptors(30, 3)) entries.push_back({d, 123456});
  const NewscastMessage msg(entries, false);
  const auto back = roundtrip(msg);
  ASSERT_EQ(back->entries.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(back->entries[i].descriptor, entries[i].descriptor);
    EXPECT_EQ(back->entries[i].timestamp, entries[i].timestamp);
  }
  EXPECT_FALSE(back->is_request);
}

TEST(Wire, ChordRoundtrip) {
  const ChordMessage msg({9, 3}, test::random_descriptors(20, 4),
                         test::random_descriptors(12, 5), true);
  const auto back = roundtrip(msg);
  EXPECT_EQ(back->sender, msg.sender);
  EXPECT_EQ(back->ring_part, msg.ring_part);
  EXPECT_EQ(back->finger_part, msg.finger_part);
}

TEST(Wire, ProbeRoundtrip) {
  const ProbeMessage request(/*is_reply=*/false);
  EXPECT_FALSE(roundtrip(request)->is_reply);
  EXPECT_EQ(roundtrip(request)->responder_id, 0u);

  const ProbeMessage reply(/*is_reply=*/true, 0xFEEDFACECAFEBEEFull);
  const auto back = roundtrip(reply);
  EXPECT_TRUE(back->is_reply);
  EXPECT_EQ(back->responder_id, reply.responder_id);
}

// One exemplar of every message type with a wire format (the four live tags,
// in tag order).
std::vector<std::unique_ptr<Payload>> wire_exemplars() {
  std::vector<std::unique_ptr<Payload>> out;
  {
    auto b = std::make_unique<BootstrapMessage>(NodeDescriptor{1, 1},
                                                test::random_descriptors(6, 21),
                                                test::random_descriptors(4, 22), true);
    b->tombstones.push_back({0x123456789ABCDEFull, 42});
    b->tombstones.push_back({7, 99});
    out.push_back(std::move(b));
  }
  {
    std::vector<TimestampedDescriptor> entries;
    for (const auto& d : test::random_descriptors(5, 23)) entries.push_back({d, 777});
    out.push_back(std::make_unique<NewscastMessage>(entries, false));
  }
  out.push_back(std::make_unique<ChordMessage>(NodeDescriptor{2, 2},
                                               test::random_descriptors(5, 24),
                                               test::random_descriptors(3, 25), false));
  out.push_back(std::make_unique<ProbeMessage>(true, 0xABCDull));
  return out;
}

TEST(Wire, EncodedSizeMatchesDeclaredWireBytes) {
  // The engine's byte accounting must equal the real encoding (minus the
  // 1-byte type tag, which the accounting folds into header overhead).
  for (const auto& msg : wire_exemplars()) {
    const auto bytes = encode_message(*msg);
    ASSERT_TRUE(bytes.has_value()) << msg->type_name();
    EXPECT_EQ(bytes->size() - 1, msg->wire_bytes()) << msg->type_name();
  }
}

TEST(Wire, RetiredTagsAreRejected) {
  // The live tags are part of the format: renumbering one fails here.
  const std::vector<std::uint8_t> live_tags = {1, 2, 3, 7};
  const auto exemplars = wire_exemplars();
  ASSERT_EQ(exemplars.size(), live_tags.size());
  for (std::size_t i = 0; i < exemplars.size(); ++i) {
    EXPECT_EQ(encode_message(*exemplars[i])->front(), live_tags[i])
        << exemplars[i]->type_name();
  }

  // Tags 4-6 (T-Man, rumor, aggregation) are retired: a well-formed frame
  // carrying the former body must not decode.
  ByteWriter tman;
  tman.u8(4);
  tman.descriptor({5, 1});
  tman.u8(1);
  tman.descriptor_list(test::random_descriptors(7, 26));
  ByteWriter rumor;
  rumor.u8(5);
  rumor.u64(0xCAFEF00Dull);
  ByteWriter aggregation;
  aggregation.u8(6);
  aggregation.u64(0x400A000000000000ull);  // 3.25 as IEEE-754 bits
  aggregation.u8(1);
  EXPECT_EQ(decode_message(tman.bytes()), nullptr);
  EXPECT_EQ(decode_message(rumor.bytes()), nullptr);
  EXPECT_EQ(decode_message(aggregation.bytes()), nullptr);
}

TEST(Wire, UnknownPayloadIsRejected) {
  class Alien final : public Payload {
   public:
    std::size_t wire_bytes() const override { return 0; }
    const char* type_name() const override { return "alien"; }
  };
  EXPECT_FALSE(encode_message(Alien{}).has_value());
}

TEST(Wire, MalformedDatagramsNeverCrash) {
  // Truncations of a valid message must all decode to nullptr.
  const BootstrapMessage msg({1, 1}, test::random_descriptors(5, 13),
                             test::random_descriptors(3, 14), true);
  const auto bytes = *encode_message(msg);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(bytes.begin(),
                                           bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_EQ(decode_message(prefix), nullptr) << "cut=" << cut;
  }
  // Trailing garbage is rejected by the strict exhausted() check.
  auto padded = bytes;
  padded.push_back(0);
  EXPECT_EQ(decode_message(padded), nullptr);
}

TEST(Wire, TruncationAtEveryOffsetAllTypes) {
  // For every message type: cutting the datagram at every byte offset must
  // yield a clean nullptr — the strict decoder never accepts a partial
  // frame, never crashes, never overreads (ASan/UBSan-clean via check.sh).
  for (const auto& msg : wire_exemplars()) {
    const auto bytes = encode_message(*msg);
    ASSERT_TRUE(bytes.has_value()) << msg->type_name();
    for (std::size_t cut = 0; cut < bytes->size(); ++cut) {
      const std::vector<std::uint8_t> prefix(
          bytes->begin(), bytes->begin() + static_cast<std::ptrdiff_t>(cut));
      EXPECT_EQ(decode_message(prefix), nullptr)
          << msg->type_name() << " cut=" << cut;
    }
    // The full frame still parses; one trailing byte breaks exhaustion.
    EXPECT_NE(decode_message(*bytes), nullptr) << msg->type_name();
    auto padded = *bytes;
    padded.push_back(0);
    EXPECT_EQ(decode_message(padded), nullptr) << msg->type_name();
  }
}

TEST(Wire, BitflipFuzzAllTypes) {
  // Random 1–3 bit flips on valid frames of every type: decode must either
  // reject cleanly or produce a message that itself re-encodes under the
  // same type tag (no half-parsed state, no crash).
  Rng rng(4242);
  for (const auto& msg : wire_exemplars()) {
    const auto bytes = encode_message(*msg);
    ASSERT_TRUE(bytes.has_value()) << msg->type_name();
    for (int trial = 0; trial < 2000; ++trial) {
      auto mutant = *bytes;
      const auto flips = 1 + rng.below(3);
      for (std::uint64_t i = 0; i < flips; ++i) {
        auto& b = mutant[rng.below(mutant.size())];
        b = static_cast<std::uint8_t>(b ^ (1u << rng.below(8)));
      }
      const auto decoded = decode_message(mutant);
      if (decoded == nullptr) continue;  // clean rejection
      const auto reencoded = encode_message(*decoded);
      ASSERT_TRUE(reencoded.has_value()) << msg->type_name() << " trial=" << trial;
      EXPECT_NE(decode_message(*reencoded), nullptr)
          << msg->type_name() << " trial=" << trial;
    }
  }
}

TEST(Wire, RandomBytesFuzz) {
  // The decoder must be total: arbitrary byte strings either parse into a
  // message or return nullptr — never crash or overread.
  Rng rng(99);
  for (int trial = 0; trial < 20000; ++trial) {
    const auto len = static_cast<std::size_t>(rng.below(300));
    std::vector<std::uint8_t> bytes(len);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.below(256));
    // Bias half of the trials toward valid type tags to reach deeper paths.
    if (!bytes.empty() && trial % 2 == 0) {
      bytes[0] = static_cast<std::uint8_t>(1 + rng.below(7));
    }
    (void)decode_message(bytes);  // must simply not crash
  }
  SUCCEED();
}

TEST(Wire, RoundtripTranscoderPreservesConvergence) {
  // A full experiment with every delivered message forced through the
  // binary wire format converges identically to the in-memory run.
  ExperimentConfig cfg;
  cfg.n = 256;
  cfg.seed = 11;
  cfg.sampler = SamplerKind::Oracle;
  cfg.warmup_cycles = 0;
  cfg.max_cycles = 60;

  BootstrapExperiment plain(cfg);
  const auto plain_result = plain.run();

  BootstrapExperiment wired(cfg);
  wired.engine().set_transcoder(wire_roundtrip_transcoder());
  const auto wired_result = wired.run();

  ASSERT_GE(plain_result.converged_cycle, 0);
  EXPECT_EQ(wired_result.converged_cycle, plain_result.converged_cycle);
  EXPECT_EQ(wired_result.bootstrap_stats.requests_sent,
            plain_result.bootstrap_stats.requests_sent);
}

TEST(Wire, TranscoderLeavesLivenessTrajectoryUnchanged) {
  // Under loss and churn the liveness policies put probes and death
  // certificates on the wire; round-tripping every delivered payload
  // through the codec must not move a single number of the run.
  struct Variant {
    const char* name;
    LivenessPolicy liveness;
    bool harden;
  };
  for (const Variant& v : {Variant{"evict", LivenessPolicy::Evict, false},
                           Variant{"adaptive", LivenessPolicy::Adaptive, false},
                           Variant{"adaptive+harden", LivenessPolicy::Adaptive, true}}) {
    SCOPED_TRACE(v.name);
    ExperimentConfig cfg;
    cfg.n = 128;
    cfg.seed = 21;
    cfg.max_cycles = 30;
    cfg.stop_at_convergence = false;
    cfg.drop_probability = 0.2;
    cfg.churn_fail_rate = 0.01;
    cfg.churn_join_rate = 0.01;
    cfg.bootstrap.liveness = v.liveness;
    cfg.bootstrap.harden = v.harden;

    BootstrapExperiment plain(cfg);
    const auto a = plain.run();
    BootstrapExperiment wired(cfg);
    wired.engine().set_transcoder(wire_roundtrip_transcoder());
    test::expect_same_result(a, wired.run(), "transcoded");

    const auto count = [](BootstrapExperiment& exp, const char* name) {
      return exp.engine().metrics().counter(name).value();
    };
    for (const char* name :
         {"bootstrap.condemned", "bootstrap.exchange_timeout", "msg.delivered.probe.reply"}) {
      EXPECT_EQ(count(plain, name), count(wired, name)) << name;
    }
    // The run must put liveness traffic on the wire: answered probes, and
    // condemnations, whose death certificates ride on bootstrap messages.
    EXPECT_GT(count(plain, "bootstrap.condemned"), 0u);
    EXPECT_GT(count(plain, "msg.delivered.probe.reply"), 0u);
  }
}

TEST(Wire, RoundtripTranscoderWorksWithNewscastStack) {
  ExperimentConfig cfg;
  cfg.n = 256;
  cfg.seed = 12;
  cfg.max_cycles = 60;
  BootstrapExperiment exp(cfg);
  exp.engine().set_transcoder(wire_roundtrip_transcoder());
  const auto result = exp.run();
  EXPECT_GE(result.converged_cycle, 0);
}

}  // namespace
}  // namespace bsvc
