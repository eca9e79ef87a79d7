// Data-structure level microbenchmarks (google-benchmark): the per-message
// costs that dominate a simulated cycle — UPDATELEAFSET, UPDATEPREFIXTABLE,
// CREATEMESSAGE — plus the convergence oracle build that the experiment
// harness amortizes across cycles, and the engine event-queue hot path
// (legacy fat-event binary heap vs the slim two-tier queue).
#include <benchmark/benchmark.h>

#include <functional>
#include <memory>
#include <queue>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/leaf_set.hpp"
#include "core/perfect_tables.hpp"
#include "core/prefix_table.hpp"
#include "id/id_generator.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/payload.hpp"
#include "tests/test_util.hpp"

namespace bsvc {
namespace {

std::vector<NodeDescriptor> members(std::size_t n) { return test::random_descriptors(n, 42); }

void BM_UpdateLeafSet(benchmark::State& state) {
  const auto batch_size = static_cast<std::size_t>(state.range(0));
  const auto pool = members(4096);
  Rng rng(7);
  LeafSet ls(pool[0].id, 20);
  // Pre-warm with one batch so updates exercise the merge path.
  ls.update(std::span(pool.data() + 1, 20));
  std::vector<NodeDescriptor> batch(batch_size);
  for (auto _ : state) {
    for (auto& d : batch) d = pool[1 + rng.below(pool.size() - 1)];
    ls.update(batch);
    benchmark::DoNotOptimize(ls.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch_size));
}
BENCHMARK(BM_UpdateLeafSet)->Arg(20)->Arg(60)->Arg(120);

void BM_LeafScanSoA(benchmark::State& state) {
  // The hot ring-distance scan over a table's contiguous NodeId lane (the
  // SoA layout LeafSet and PrefixTable use): 8 bytes per element, no
  // interleaved addresses.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pool = members(n + 1);
  const NodeId pivot = pool[0].id;
  std::vector<NodeId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = pool[i + 1].id;
  for (auto _ : state) {
    NodeId best = ~NodeId{0};
    for (const NodeId id : ids) best = std::min(best, successor_distance(pivot, id));
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_LeafScanSoA)->Arg(20)->Arg(256)->Arg(4096);

void BM_LeafScanAoS(benchmark::State& state) {
  // The same scan over the seed layout: an array of 16-byte padded
  // NodeDescriptor structs, so half of every cache line is address bytes the
  // scan never reads. The delta against BM_LeafScanSoA is the layout's win.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pool = members(n + 1);
  const NodeId pivot = pool[0].id;
  const std::vector<NodeDescriptor> entries(pool.begin() + 1, pool.end());
  for (auto _ : state) {
    NodeId best = ~NodeId{0};
    for (const auto& d : entries) {
      best = std::min(best, successor_distance(pivot, d.id));
    }
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_LeafScanAoS)->Arg(20)->Arg(256)->Arg(4096);

void BM_UpdatePrefixTable(benchmark::State& state) {
  const auto batch_size = static_cast<std::size_t>(state.range(0));
  const auto pool = members(4096);
  Rng rng(8);
  PrefixTable table(pool[0].id, DigitConfig{4}, 3);
  std::vector<NodeDescriptor> batch(batch_size);
  for (auto _ : state) {
    state.PauseTiming();
    PrefixTable fresh(pool[0].id, DigitConfig{4}, 3);
    for (auto& d : batch) d = pool[1 + rng.below(pool.size() - 1)];
    state.ResumeTiming();
    DescriptorList list(batch.begin(), batch.end());
    benchmark::DoNotOptimize(fresh.insert_all(list));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch_size));
}
BENCHMARK(BM_UpdatePrefixTable)->Arg(60)->Arg(200);

void BM_PrefixTableInsertSaturated(benchmark::State& state) {
  // Inserts into a saturated table: the common steady-state case where most
  // inserts are rejected after one binary search and a count of the cell's
  // (at most k) neighbours.
  const auto pool = members(8192);
  PrefixTable table(pool[0].id, DigitConfig{4}, 3);
  DescriptorList all(pool.begin() + 1, pool.end());
  table.insert_all(all);
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.insert(pool[1 + rng.below(pool.size() - 1)]));
  }
}
BENCHMARK(BM_PrefixTableInsertSaturated);

void BM_PerfectTablesBuild(benchmark::State& state) {
  // The oracle's trie walk over the sorted ID set (built once per membership
  // epoch in experiments).
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pool = members(n);
  BootstrapConfig cfg;
  for (auto _ : state) {
    PerfectTables truth(pool, cfg);
    benchmark::DoNotOptimize(truth.perfect_prefix_sum());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PerfectTablesBuild)->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16);

void BM_CommonPrefixDigits(benchmark::State& state) {
  Rng rng(10);
  const DigitConfig cfg{4};
  NodeId x = rng.next_u64();
  for (auto _ : state) {
    const NodeId y = rng.next_u64();
    benchmark::DoNotOptimize(common_prefix_digits(x, y, cfg));
    x ^= y;
  }
}
BENCHMARK(BM_CommonPrefixDigits);

void BM_IdGeneration(benchmark::State& state) {
  IdGenerator gen{Rng(11)};
  for (auto _ : state) benchmark::DoNotOptimize(gen.next());
}
BENCHMARK(BM_IdGeneration);

// ---------------------------------------------------------------------------
// Engine event-queue hot path. The workload models a simulated cycle: a live
// set of `range(0)` pending events, each pop schedules a successor a random
// in-cycle delay ahead (so the queue stays at its steady-state size, as it
// does mid-simulation).

/// The engine's pre-overhaul event record: 80-byte node with an owning
/// payload pointer and a std::function, ordered through a binary heap.
/// Reimplemented here as the microbenchmark baseline.
struct FatEvent {
  SimTime time = 0;
  std::uint64_t seq = 0;
  int kind = 0;
  Address addr = kNullAddress;
  Address from = kNullAddress;
  ProtocolSlot slot = 0;
  std::unique_ptr<Payload> payload;
  std::function<void(Engine&)> fn;
  std::uint64_t aux = 0;
};

struct FatEventOrder {
  bool operator()(const FatEvent& a, const FatEvent& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

void BM_EventQueueFatHeap(benchmark::State& state) {
  const auto live = static_cast<std::size_t>(state.range(0));
  Rng rng(12);
  std::priority_queue<FatEvent, std::vector<FatEvent>, FatEventOrder> heap;
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < live; ++i) {
    FatEvent ev;
    ev.time = rng.below(kDelta);
    ev.seq = seq++;
    heap.push(std::move(ev));
  }
  for (auto _ : state) {
    // priority_queue::top() is const&; the const_cast move-out mirrors what
    // the old engine did to extract the owning members.
    FatEvent ev = std::move(const_cast<FatEvent&>(heap.top()));
    heap.pop();
    FatEvent next;
    next.time = ev.time + 1 + rng.below(kDelta);
    next.seq = seq++;
    heap.push(std::move(next));
    benchmark::DoNotOptimize(ev.time);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueFatHeap)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_EventQueueTwoTier(benchmark::State& state) {
  const auto live = static_cast<std::size_t>(state.range(0));
  Rng rng(12);
  TwoTierQueue queue;
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < live; ++i) {
    SlimEvent ev{};
    ev.time = rng.below(kDelta);
    ev.seq = seq++;
    queue.push(ev);
  }
  for (auto _ : state) {
    SlimEvent ev{};
    queue.pop_if_at_most(~SimTime{0}, ev);
    SlimEvent next{};
    next.time = ev.time + 1 + rng.below(kDelta);
    next.seq = seq++;
    queue.push(next);
    benchmark::DoNotOptimize(ev.time);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueTwoTier)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

struct BenchPayload final : Payload {
  std::size_t wire_bytes() const override { return 64; }
  const char* type_name() const override { return "BenchPayload"; }
};

void BM_PayloadPoolStoreTake(benchmark::State& state) {
  // The send path: the payload's shared ref parks in the slot pool while its
  // slim event is queued, then is taken back at dispatch.
  SlotPool<PayloadRef> pool;
  for (auto _ : state) {
    const std::uint32_t slot = pool.store(make_payload<BenchPayload>());
    auto payload = pool.take(slot);
    benchmark::DoNotOptimize(payload.get());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PayloadPoolStoreTake);

void BM_PayloadRefShare(benchmark::State& state) {
  // What fault-layer duplication and multi-delivery now cost: a refcount
  // bump, no heap traffic. Compare BM_PayloadDeepCopyBaseline — the price
  // the old clone()-based duplication paid per copy.
  const PayloadRef original = make_payload<BenchPayload>();
  for (auto _ : state) {
    PayloadRef copy = original;  // NOLINT(performance-unnecessary-copy-initialization)
    benchmark::DoNotOptimize(copy.get());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PayloadRefShare);

void BM_PayloadDeepCopyBaseline(benchmark::State& state) {
  const BenchPayload original;
  for (auto _ : state) {
    auto copy = std::make_unique<BenchPayload>(original);
    benchmark::DoNotOptimize(copy.get());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PayloadDeepCopyBaseline);

void BM_CreateMessageSteadyState(benchmark::State& state) {
  // CREATEMESSAGE on a converged node: sort the leaf set, samples and self
  // by ID, merge them with the prefix table and cut both message parts off
  // the merged run. Warm, the call allocates nothing (tests/test_alloc.cpp).
  ExperimentConfig cfg;
  cfg.n = 1 << 10;
  cfg.seed = 99;
  cfg.max_cycles = 60;
  BootstrapExperiment exp(cfg);
  exp.run();
  auto& proto = exp.bootstrap_slot().of(exp.engine(), 0);
  const NodeId peer = exp.engine().id_of(1);
  for (auto _ : state) {
    auto msg = proto.create_message(peer, true);
    benchmark::DoNotOptimize(msg.get());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CreateMessageSteadyState);

// ---------------------------------------------------------------------------
// Engine primitives (docs/architecture.md#sharded-execution): the per-window
// costs the conservative time window must amortize, and the full
// send→dispatch round trip with and without a trace sink (the observability
// hook overhead docs/observability.md quotes).

/// A minimal counting sink: pays the virtual record() call per hook.
struct CountingTraceSink final : obs::TraceSink {
  std::uint64_t records = 0;
  void record(const obs::TraceRecord&) override { ++records; }
};

struct SinkProtocol final : Protocol {};

void BM_WindowCrewRound(benchmark::State& state) {
  // One empty window round: wake the K-1 workers, run a no-op lane each,
  // barrier back to the coordinator. Arg(1) is the inline (no-thread) case.
  // A window is profitable when the events it batches outweigh this floor.
  WindowCrew crew(static_cast<std::size_t>(state.range(0)));
  const std::function<void(std::size_t)> nop = [](std::size_t) {};
  for (auto _ : state) crew.run(nop);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WindowCrewRound)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_CrossShardMailbox(benchmark::State& state) {
  // The cross-shard message hand-off, isolated: a source shard buffers
  // `range(0)` sends into its mailbox vector, then the barrier drain moves
  // each into the destination shard's queue with the payload parked in the
  // destination pool — exactly the engine's window phase 2.
  struct MailboxEntry {
    SlimEvent ev;
    PayloadRef payload;
  };
  const auto batch = static_cast<std::size_t>(state.range(0));
  TwoTierQueue queue;
  SlotPool<PayloadRef> pool;
  std::vector<MailboxEntry> mailbox;
  mailbox.reserve(batch);
  const PayloadRef shared = make_payload<BenchPayload>();
  SimTime now = 0;
  std::uint64_t counter = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) {
      SlimEvent ev{};
      ev.time = now + 10;
      ev.seq = counter++;  // content-addressed key, as in the engine
      ev.kind = EventKind::Message;
      mailbox.push_back(MailboxEntry{ev, shared});
    }
    for (auto& entry : mailbox) {
      entry.ev.aux = pool.store(std::move(entry.payload));
      queue.push(entry.ev);
    }
    mailbox.clear();
    SlimEvent ev{};
    while (queue.pop_if_at_most(~SimTime{0}, ev)) {
      benchmark::DoNotOptimize(pool.take(static_cast<std::uint32_t>(ev.aux)).get());
    }
    now += 10;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_CrossShardMailbox)->Arg(16)->Arg(256)->Arg(4096);

void BM_ShardedSendDispatch(benchmark::State& state) {
  // Full send→window→dispatch round trip with no trace sink (the production
  // default, where every hook is one pointer test). Arg(1): both nodes live
  // in the single shard (no mailbox, inline crew). Arg(2): sender and
  // receiver on different shards, so every message crosses a mailbox and
  // each window pays a real crew round.
  Engine engine(13, TransportConfig{}, static_cast<std::size_t>(state.range(0)));
  const Address a = engine.add_node(1);
  const Address b = engine.add_node(2);
  engine.attach(a, std::make_unique<SinkProtocol>());
  engine.attach(b, std::make_unique<SinkProtocol>());
  engine.start_node(a);
  engine.start_node(b);
  engine.run_all();
  for (auto _ : state) {
    engine.send_message(a, b, 0, std::make_unique<BenchPayload>());
    engine.run_all();
    benchmark::DoNotOptimize(engine.events_dispatched());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ShardedSendDispatch)->Arg(1)->Arg(2);

void BM_ShardedSendDispatchTraced(benchmark::State& state) {
  // BM_ShardedSendDispatch with a counting trace sink installed — the cost
  // of a recorded hook per message. At K=1 the crew runs inline and only one
  // lane ever records, so record_trace takes the lock-free branch
  // (shards_ > 1 gates the mutex); the delta against BM_ShardedSendDispatch/1
  // is the pure record() cost. At K=2 the same hook pays the trace mutex, so
  // /2 minus /1 overhead is the lock's price per record.
  Engine engine(13, TransportConfig{}, static_cast<std::size_t>(state.range(0)));
  const Address a = engine.add_node(1);
  const Address b = engine.add_node(2);
  engine.attach(a, std::make_unique<SinkProtocol>());
  engine.attach(b, std::make_unique<SinkProtocol>());
  engine.start_node(a);
  engine.start_node(b);
  engine.run_all();
  CountingTraceSink sink;
  engine.set_trace_sink(&sink);
  for (auto _ : state) {
    engine.send_message(a, b, 0, std::make_unique<BenchPayload>());
    engine.run_all();
    benchmark::DoNotOptimize(engine.events_dispatched());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ShardedSendDispatchTraced)->Arg(1)->Arg(2);

void BM_PayloadMakeUniqueBaseline(benchmark::State& state) {
  // Baseline for BM_PayloadPoolStoreTake: the allocation alone, without the
  // pool bookkeeping (the pre-overhaul engine carried the pointer inside the
  // heap node, so its per-event cost was this plus the fat-heap churn).
  for (auto _ : state) {
    auto payload = std::make_unique<BenchPayload>();
    benchmark::DoNotOptimize(payload.get());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PayloadMakeUniqueBaseline);

}  // namespace
}  // namespace bsvc
