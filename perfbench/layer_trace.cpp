#include "layer_trace.hpp"

#include <cstring>

namespace perfbench {

namespace {

// Protocol slots as BootstrapExperiment wires them: Newscast, the bootstrap
// service, then the workload service added by WorkloadStack.
constexpr std::uint8_t kSamplingSlot = 0;
constexpr std::uint8_t kBootstrapSlot = 1;

bool tag_is(const char* tag, const char* want) {
  return tag != nullptr && std::strcmp(tag, want) == 0;
}

Segment on_deliver(std::uint8_t slot, const char* tag) {
  if (slot == kSamplingSlot) {
    return tag_is(tag, "newscast.request") ? Segment::NewscastRequest
                                           : Segment::NewscastAnswer;
  }
  if (slot == kBootstrapSlot) {
    if (tag_is(tag, "bootstrap.request")) return Segment::CreatePassive;
    if (tag_is(tag, "bootstrap.answer")) return Segment::Update;
    return Segment::CoreOther;
  }
  if (tag_is(tag, "kv.response")) return Segment::KvResponse;
  if (tag_is(tag, "cast")) return Segment::Cast;
  return Segment::KvRequest;
}

Segment on_timer(std::uint8_t slot) {
  if (slot == kSamplingSlot) return Segment::NewscastActive;
  if (slot == kBootstrapSlot) return Segment::CreateActive;
  return Segment::WorkloadTimer;
}

}  // namespace

const char* segment_name(Segment s) {
  switch (s) {
    case Segment::SimDispatch: return "sim.dispatch";
    case Segment::SimOther: return "sim.other";
    case Segment::NewscastActive: return "sampling.newscast.active";
    case Segment::NewscastRequest: return "sampling.newscast.request";
    case Segment::NewscastAnswer: return "sampling.newscast.answer";
    case Segment::CreateActive: return "core.createmessage.active";
    case Segment::CreatePassive: return "core.createmessage.passive";
    case Segment::Update: return "core.update";
    case Segment::CoreOther: return "core.other";
    case Segment::KvRequest: return "workload.kv_request";
    case Segment::KvResponse: return "workload.kv_response";
    case Segment::Cast: return "workload.cast";
    case Segment::WorkloadTimer: return "workload.timer";
    case Segment::Issue: return "workload.issue";
    case Segment::Count: break;
  }
  return "?";
}

const char* segment_layer(Segment s) {
  switch (s) {
    case Segment::SimDispatch:
    case Segment::SimOther: return "sim";
    case Segment::NewscastActive:
    case Segment::NewscastRequest:
    case Segment::NewscastAnswer: return "sampling";
    case Segment::CreateActive:
    case Segment::CreatePassive:
    case Segment::Update:
    case Segment::CoreOther: return "core";
    default: return "workload";
  }
}

void LayerTrace::switch_to(Segment s, Clock::time_point now) {
  if (booking_) {
    ns_[static_cast<std::size_t>(open_)] += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - last_).count());
    ++calls_[static_cast<std::size_t>(s)];
  }
  last_ = now;
  open_ = s;
}

void LayerTrace::count_delivery(std::uint8_t slot, const char* tag) {
  // Tags are class-owned literals: a pointer compare finds the entry almost
  // always; strcmp catches a literal duplicated across translation units.
  for (Delivered& d : delivered_) {
    if (d.slot == slot && (d.tag == tag || std::strcmp(d.tag, tag) == 0)) {
      ++d.count;
      return;
    }
  }
  delivered_.push_back(Delivered{slot, tag, 1});
}

void LayerTrace::record(const bsvc::obs::TraceRecord& r) {
  using bsvc::obs::TraceKind;
  if (r.kind == TraceKind::Deliver) count_delivery(r.slot, r.tag);
  if (!booking_ || in_issue_) return;
  const Clock::time_point now = Clock::now();
  switch (r.kind) {
    case TraceKind::Deliver:
      open_node_ = r.node;
      switch_to(on_deliver(r.slot, r.tag), now);
      break;
    case TraceKind::TimerFire:
      open_node_ = r.node;
      switch_to(on_timer(r.slot), now);
      break;
    case TraceKind::Send:
      if (r.node != open_node_) {
        // A send with no open event on its node comes from a coordinator
        // call (the workload driver launching a broadcast).
        open_node_ = r.node;
        switch_to(Segment::Issue, now);
      } else if (open_ == Segment::CreateActive && tag_is(r.tag, "bootstrap.request")) {
        switch_to(Segment::SimDispatch, now);
      } else if (open_ == Segment::CreatePassive && tag_is(r.tag, "bootstrap.answer")) {
        switch_to(Segment::Update, now);
      }
      break;
    default:
      break;
  }
}

void LayerTrace::resume() {
  booking_ = true;
  open_node_ = bsvc::kNullAddress;
  last_ = Clock::now();
  open_ = Segment::SimOther;
}

void LayerTrace::pause() {
  switch_to(Segment::SimOther, Clock::now());
  booking_ = false;
}

void LayerTrace::enter_issue() {
  if (!booking_) return;
  switch_to(Segment::Issue, Clock::now());
  in_issue_ = true;
}

void LayerTrace::leave_issue() {
  if (!booking_) return;
  in_issue_ = false;
  open_node_ = bsvc::kNullAddress;
  switch_to(Segment::SimOther, Clock::now());
}

}  // namespace perfbench
