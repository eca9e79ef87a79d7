// Deterministic workload driver: attaches the per-node WorkloadService to a
// BootstrapExperiment (via ExperimentConfig::node_extension) and issues KV
// batches and prefix broadcasts from barrier context.
//
// Determinism: the driver owns a private RNG (derived from the run seed),
// never touches engine or per-node protocol streams, and acts only through
// schedule_call — which runs single-threaded at window barriers, at
// identical virtual times for every shard count K (window width is
// the transport lookahead, independent of K). Combined with the engine's
// K-independent transport streams, every workload outcome is a pure
// function of the seed and byte-identical across --shards K >= 1.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "workload/service.hpp"

namespace bsvc {

/// Shared state for one workload deployment: the aggregator log, the service
/// parameters, and the node-extension hook that stacks a WorkloadService on
/// every node (initial network and churn joiners alike). Must outlive the
/// experiment it is wired into.
class WorkloadStack {
 public:
  explicit WorkloadStack(WorkloadParams params = {});

  WorkloadStack(const WorkloadStack&) = delete;
  WorkloadStack& operator=(const WorkloadStack&) = delete;

  /// The hook for ExperimentConfig::node_extension. `bootstrap` is the slot
  /// the harness wires the BootstrapProtocol into (BootstrapExperiment:
  /// slot 1, the default).
  std::function<void(Engine&, Address)> node_extension(
      SlotRef<BootstrapProtocol> bootstrap = SlotRef<BootstrapProtocol>::assume(1));

  /// Mirrors the log's counters into `registry` (WorkloadLog::bind_registry),
  /// plus the retry-layer counters (bind_retry_registry) when the params
  /// turn on retries, hedging or cast acks. Call before the run.
  void bind_registry(obs::MetricsRegistry& registry);

  WorkloadLog& log() { return log_; }
  /// Typed handle to the workload slot (valid once a node was attached;
  /// slot 2 under BootstrapExperiment).
  SlotRef<WorkloadService> slot() const { return slot_; }
  WorkloadService& service(Engine& engine, Address addr) const {
    return slot_.of(engine, addr);
  }

 private:
  WorkloadParams params_;
  WorkloadLog log_;
  SlotRef<WorkloadService> slot_ = SlotRef<WorkloadService>::assume(2);
};

/// Shape of the KV request stream.
struct DriverConfig {
  /// Issue window in absolute virtual time: batches fire at `from`,
  /// `from + period`, ... while strictly before `to`.
  SimTime from = 0;
  SimTime to = 0;
  SimTime period = kDelta / 4;
  /// Requests per batch, spread over uniformly random alive origins.
  std::size_t batch = 4;
  /// Probability a request is a put; gets target a uniformly random
  /// previously put key (the first request is always a put).
  double put_fraction = 0.5;
  /// Value size carried by puts.
  std::uint32_t value_bytes = 64;
  /// Seed of the driver's private RNG.
  std::uint64_t seed = 1;
};

class WorkloadDriver {
 public:
  WorkloadDriver(WorkloadStack& stack, DriverConfig config);

  /// Schedules the KV issue chain (call before Engine::run_until /
  /// BootstrapExperiment::run).
  void start(Engine& engine);

  /// Schedules one prefix broadcast from a random alive origin at absolute
  /// time `at`, snapshotting the alive membership at launch for coverage
  /// verification.
  void schedule_cast(Engine& engine, SimTime at, std::uint32_t payload_bytes = 256);

  /// Coverage of all launched casts, measured against each cast's launch
  /// snapshot restricted to nodes still alive at verification time. Call
  /// after the network has quiesced (a couple of cycles past the last
  /// launch).
  struct CastCoverage {
    std::size_t casts = 0;
    std::size_t expected = 0;  // snapshot members still alive
    std::size_t reached = 0;   // of those, received >= 1 copy
    std::uint64_t duplicates = 0;

    double coverage() const {
      return expected == 0
                 ? 1.0
                 : static_cast<double>(reached) / static_cast<double>(expected);
    }
  };
  CastCoverage verify_casts(Engine& engine) const;

  std::size_t keys_issued() const { return keys_.size(); }

 private:
  void step(Engine& engine);
  /// Uniformly random alive address (bounded retries); kNullAddress when the
  /// draw keeps hitting dead nodes.
  Address pick_alive(Engine& engine);

  WorkloadStack& stack_;
  DriverConfig config_;
  Rng rng_;
  std::vector<NodeId> keys_;  // every key ever put (issue order)
  struct CastRecord {
    std::uint64_t id = 0;
    std::vector<Address> members;  // alive at launch
  };
  std::vector<CastRecord> casts_;
  std::uint64_t cast_seq_ = 0;
};

}  // namespace bsvc
