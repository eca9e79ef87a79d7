// Engine trace layer: a sink interface the simulation engine feeds with
// compact records at its hook points (message send/drop/dead-destination/
// delivery, timer fires, node starts and kills), each stamped with virtual
// time.
//
// The engine holds a raw `TraceSink*` that defaults to nullptr; every hook
// is a single pointer test on the hot path, no allocation, no virtual call
// unless a sink is installed. Sinks only *observe* — installing one must
// never perturb the simulation (golden-replay witnesses are replayed with
// tracing on to pin this down). Record layout and the JSONL wire format are
// documented in docs/observability.md.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "id/node_id.hpp"

namespace bsvc::obs {

enum class TraceKind : std::uint8_t {
  Send,       // payload handed to the transport
  Drop,       // lost: fault verdict, random drop, or transcoder rejection
  DeadDest,   // arrived at a dead/removed node
  Deliver,    // reached a live protocol
  TimerFire,  // on_timer about to run
  NodeStart,  // node marked alive
  NodeKill,   // node killed
};

/// Short stable name of a kind ("send", "drop", "dead", "deliver", "timer",
/// "start", "kill").
const char* trace_kind_name(TraceKind kind);

/// One trace record. Field meaning by kind:
///  - message kinds (Send/Drop/DeadDest/Deliver): `node` is the sender for
///    Send/Drop and the destination for DeadDest/Deliver, `peer` the other
///    endpoint; `tag` is the payload's metric_tag(), `aux` its wire bytes
///    including UDP/IP headers;
///  - TimerFire: `node` + `slot`, `aux` is the timer id;
///  - NodeStart: `node`, `aux` is the start delay in ticks;
///  - NodeKill: `node`.
/// `tag` is a string literal owned by the payload's class; sinks that
/// outlive the engine must copy it.
struct TraceRecord {
  std::uint64_t time = 0;
  std::uint64_t aux = 0;
  const char* tag = nullptr;
  Address node = kNullAddress;
  Address peer = kNullAddress;
  TraceKind kind = TraceKind::Send;
  std::uint8_t slot = 0;
};

/// The engine-facing interface. Implementations must not touch the engine.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void record(const TraceRecord& r) = 0;
  virtual void flush() {}
};

/// Buffers records in memory; for tests and in-process analysis.
class MemoryTraceSink final : public TraceSink {
 public:
  void record(const TraceRecord& r) override { records_.push_back(r); }
  const std::vector<TraceRecord>& records() const { return records_; }
  /// Number of records of one kind.
  std::size_t count(TraceKind kind) const;
  void clear() { records_.clear(); }

 private:
  std::vector<TraceRecord> records_;
};

/// Streams records as one compact JSON object per line. Output is a pure
/// function of the record stream, so fixed-seed runs produce byte-identical
/// files whatever the bench thread count. Open failures are reported through
/// bsvc::log_message and turn the sink into a no-op (ok() == false).
class JsonlTraceSink final : public TraceSink {
 public:
  explicit JsonlTraceSink(const std::string& path);
  ~JsonlTraceSink() override;

  JsonlTraceSink(const JsonlTraceSink&) = delete;
  JsonlTraceSink& operator=(const JsonlTraceSink&) = delete;

  bool ok() const { return file_ != nullptr; }
  void record(const TraceRecord& r) override;
  void flush() override;

 private:
  std::FILE* file_ = nullptr;
  std::vector<char> io_buffer_;
};

}  // namespace bsvc::obs
