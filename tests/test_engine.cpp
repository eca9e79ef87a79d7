#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace bsvc {
namespace {

/// Simple payload carrying one integer.
class IntPayload final : public Payload {
 public:
  explicit IntPayload(int v) : value(v) {}
  std::size_t wire_bytes() const override { return 4; }
  const char* type_name() const override { return "int"; }
  int value;
};

/// Records everything that happens to it.
class Recorder final : public Protocol {
 public:
  struct Event {
    enum Kind { Start, Timer, Message } kind;
    SimTime time;
    std::uint64_t detail;  // timer id or message value
    Address from = kNullAddress;
  };

  void on_start(Context& ctx) override { events.push_back({Event::Start, ctx.now(), 0, 0}); }
  void on_timer(Context& ctx, std::uint64_t id) override {
    events.push_back({Event::Timer, ctx.now(), id, 0});
  }
  void on_message(Context& ctx, Address from, const Payload& p) override {
    const auto& ip = dynamic_cast<const IntPayload&>(p);  // test-only checked cast
    events.push_back({Event::Message, ctx.now(), static_cast<std::uint64_t>(ip.value), from});
  }

  std::vector<Event> events;
};

Recorder& recorder_at(Engine& e, Address a) {
  return dynamic_cast<Recorder&>(e.protocol(a, 0));  // test-only checked cast
}

TEST(Engine, StartDispatchesOnStart) {
  Engine e(1);
  const Address a = e.add_node(100);
  e.attach(a, std::make_unique<Recorder>());
  e.start_node(a, 5);
  e.run_until(10);
  const auto& ev = recorder_at(e, a).events;
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0].kind, Recorder::Event::Start);
  EXPECT_EQ(ev[0].time, 5u);
}

TEST(Engine, TimersFireInOrderWithFifoTieBreak) {
  Engine e(1);
  const Address a = e.add_node(100);
  e.attach(a, std::make_unique<Recorder>());
  e.start_node(a);
  e.schedule_timer(a, 0, 30, 3);
  e.schedule_timer(a, 0, 10, 1);
  e.schedule_timer(a, 0, 10, 2);  // same time as id 1, scheduled later
  e.run_until(100);
  const auto& ev = recorder_at(e, a).events;
  ASSERT_EQ(ev.size(), 4u);  // start + 3 timers
  EXPECT_EQ(ev[1].detail, 1u);
  EXPECT_EQ(ev[2].detail, 2u);
  EXPECT_EQ(ev[3].detail, 3u);
  EXPECT_EQ(ev[1].time, 10u);
  EXPECT_EQ(ev[3].time, 30u);
}

TEST(Engine, MessageDeliveredWithinLatencyBounds) {
  TransportConfig t;
  t.min_latency = 5;
  t.max_latency = 20;
  Engine e(1, t);
  const Address a = e.add_node(1);
  const Address b = e.add_node(2);
  e.attach(a, std::make_unique<Recorder>());
  e.attach(b, std::make_unique<Recorder>());
  e.start_node(a);
  e.start_node(b);
  for (int i = 0; i < 100; ++i) e.send_message(a, b, 0, std::make_unique<IntPayload>(i));
  e.run_until(1000);
  const auto& ev = recorder_at(e, b).events;
  ASSERT_EQ(ev.size(), 101u);  // start + 100 messages
  for (std::size_t i = 1; i < ev.size(); ++i) {
    EXPECT_GE(ev[i].time, 5u);
    EXPECT_LE(ev[i].time, 20u);
    EXPECT_EQ(ev[i].from, a);
  }
}

TEST(Engine, DropProbabilityIsRespected) {
  TransportConfig t;
  t.drop_probability = 0.3;
  Engine e(7, t);
  const Address a = e.add_node(1);
  const Address b = e.add_node(2);
  e.attach(a, std::make_unique<Recorder>());
  e.attach(b, std::make_unique<Recorder>());
  e.start_node(a);
  e.start_node(b);
  constexpr int kSent = 20000;
  for (int i = 0; i < kSent; ++i) e.send_message(a, b, 0, std::make_unique<IntPayload>(i));
  e.run_all();
  const auto delivered = recorder_at(e, b).events.size() - 1;
  EXPECT_NEAR(static_cast<double>(delivered) / kSent, 0.7, 0.02);
  EXPECT_EQ(e.traffic().messages_sent, static_cast<std::uint64_t>(kSent));
  EXPECT_EQ(e.traffic().messages_delivered, delivered);
  EXPECT_EQ(e.traffic().messages_dropped, kSent - delivered);
}

TEST(Engine, BytesAccountedWithHeaders) {
  Engine e(1);
  const Address a = e.add_node(1);
  const Address b = e.add_node(2);
  e.attach(b, std::make_unique<Recorder>());
  e.start_node(b);
  e.send_message(a, b, 0, std::make_unique<IntPayload>(0));
  EXPECT_EQ(e.traffic().bytes_sent, 4 + kUdpIpHeaderBytes);
}

TEST(Engine, DeadNodesDoNotReceiveOrAct) {
  Engine e(1);
  const Address a = e.add_node(1);
  const Address b = e.add_node(2);
  e.attach(a, std::make_unique<Recorder>());
  e.attach(b, std::make_unique<Recorder>());
  e.start_node(a);
  e.start_node(b);
  e.schedule_timer(b, 0, 50, 9);
  e.run_until(10);
  e.kill_node(b);
  e.send_message(a, b, 0, std::make_unique<IntPayload>(1));
  e.run_until(1000);
  EXPECT_EQ(recorder_at(e, b).events.size(), 1u);  // only the start event
  EXPECT_EQ(e.traffic().messages_to_dead, 1u);
  EXPECT_EQ(e.alive_count(), 1u);
  EXPECT_FALSE(e.is_alive(b));
}

TEST(Engine, KillIsIdempotent) {
  Engine e(1);
  const Address a = e.add_node(1);
  e.attach(a, std::make_unique<Recorder>());
  e.start_node(a);
  e.kill_node(a);
  e.kill_node(a);
  EXPECT_EQ(e.alive_count(), 0u);
}

TEST(Engine, ScheduleCallRunsAtRequestedTime) {
  Engine e(1);
  SimTime fired_at = 0;
  e.schedule_call(42, [&fired_at](Engine& eng) { fired_at = eng.now(); });
  e.run_until(100);
  EXPECT_EQ(fired_at, 42u);
  EXPECT_EQ(e.now(), 100u);
}

TEST(Engine, RunUntilAdvancesClockEvenWithoutEvents) {
  Engine e(1);
  e.run_until(77);
  EXPECT_EQ(e.now(), 77u);
}

TEST(Engine, DeterministicAcrossRuns) {
  const auto trace = [](std::uint64_t seed) {
    TransportConfig t;
    t.drop_probability = 0.1;
    Engine e(seed, t);
    const Address a = e.add_node(1);
    const Address b = e.add_node(2);
    e.attach(a, std::make_unique<Recorder>());
    e.attach(b, std::make_unique<Recorder>());
    e.start_node(a);
    e.start_node(b);
    for (int i = 0; i < 500; ++i) e.send_message(a, b, 0, std::make_unique<IntPayload>(i));
    e.run_all();
    std::vector<std::pair<SimTime, std::uint64_t>> out;
    for (const auto& ev : recorder_at(e, b).events) out.emplace_back(ev.time, ev.detail);
    return out;
  };
  EXPECT_EQ(trace(99), trace(99));
  EXPECT_NE(trace(99), trace(100));
}

TEST(Engine, PerNodeRngsDiffer) {
  Engine e(1);
  const Address a = e.add_node(1);
  const Address b = e.add_node(2);
  EXPECT_NE(e.node_rng(a).next_u64(), e.node_rng(b).next_u64());
}

TEST(Engine, AliveAddressesMatchesLiveness) {
  Engine e(1);
  for (int i = 0; i < 10; ++i) e.add_node(static_cast<NodeId>(i + 1));
  for (Address a = 0; a < 10; ++a) e.start_node(a);
  e.kill_node(3);
  e.kill_node(7);
  const auto alive = e.alive_addresses();
  EXPECT_EQ(alive.size(), 8u);
  for (const auto a : alive) {
    EXPECT_NE(a, 3u);
    EXPECT_NE(a, 7u);
  }
}

/// Request/answer pair with distinct metric tags; answers every request.
class PingPayload final : public Payload {
 public:
  explicit PingPayload(bool request) : request_(request) {}
  std::size_t wire_bytes() const override { return 12; }
  const char* type_name() const override { return "ping"; }
  const char* metric_tag() const override { return request_ ? "ping.request" : "ping.answer"; }
  bool is_request() const { return request_; }

 private:
  bool request_;
};

class PingProtocol final : public Protocol {
 public:
  void on_message(Context& ctx, Address from, const Payload& p) override {
    if (dynamic_cast<const PingPayload&>(p).is_request()) {  // test-only checked cast
      ctx.send(from, std::make_unique<PingPayload>(false));
    }
  }
};

TEST(Engine, PerTypeCountersBalanceRequestsAndAnswers) {
  Engine e(3);
  const Address a = e.add_node(1);
  const Address b = e.add_node(2);
  e.attach(a, std::make_unique<PingProtocol>());
  e.attach(b, std::make_unique<PingProtocol>());
  e.start_node(a);
  e.start_node(b);
  constexpr std::uint64_t kRequests = 250;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    e.send_message(a, b, 0, std::make_unique<PingPayload>(true));
  }
  e.run_all();
  auto& m = e.metrics();
  // Lossless transport: every request is delivered and answered, and the
  // per-type registry counters reconcile exactly with the aggregate stats.
  EXPECT_EQ(m.counter("msg.sent.ping.request").value(), kRequests);
  EXPECT_EQ(m.counter("msg.delivered.ping.request").value(), kRequests);
  EXPECT_EQ(m.counter("msg.sent.ping.answer").value(), kRequests);
  EXPECT_EQ(m.counter("msg.delivered.ping.answer").value(), kRequests);
  EXPECT_EQ(m.counter("msg.sent.ping.request").value() +
                m.counter("msg.sent.ping.answer").value(),
            e.traffic().messages_sent);
  EXPECT_EQ(m.counter("msg.delivered.ping.request").value() +
                m.counter("msg.delivered.ping.answer").value(),
            e.traffic().messages_delivered);
}

TEST(EngineDeathTest, BadAddressAborts) {
  Engine e(1);
  EXPECT_DEATH(e.id_of(5), "address out of range");
}

}  // namespace
}  // namespace bsvc
