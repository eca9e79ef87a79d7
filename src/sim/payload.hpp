// Type-erased message payloads for the simulated transport, and the shared
// immutable reference (`PayloadRef`) through which the engine owns them.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

namespace bsvc {

/// UDP/IPv4 header overhead added to every message's byte accounting.
inline constexpr std::size_t kUdpIpHeaderBytes = 28;

/// Closed set of payload families on the simulated wire. One tag per
/// concrete message class (the first four have a wire format, see
/// wire/message_codec.hpp); `Custom` covers test doubles and
/// experiment-local payloads.
/// payload_cast<T> dispatches on this tag — a load and a compare — instead
/// of a dynamic_cast, which keeps RTTI off the per-delivery hot path.
enum class PayloadKind : std::uint8_t {
  Bootstrap,
  Probe,
  Newscast,
  Chord,
  KvRequest,
  KvResponse,
  PrefixCast,
  Custom,
};

/// Base class of everything a protocol can put on the wire.
///
/// Ownership model: a payload is built mutably (behind a unique_ptr), then
/// *published* into a PayloadRef when handed to the engine — from that point
/// it is logically immutable and shared by reference counting. Fault-layer
/// duplication and multicast are refcount bumps; anything that needs to
/// alter a published payload (the adversary's tamper hook, the wire
/// transcoder) builds a fresh payload and publishes that instead
/// (copy-on-write). The count is atomic: under the sharded engine a
/// multicast or fault-duplicated payload can cross shard mailboxes, and its
/// references are then released on different worker threads. The payload
/// *content* stays immutable after publication, so the count is the only
/// shared word (docs/architecture.md#payload-ownership).
class Payload {
 public:
  explicit Payload(PayloadKind kind = PayloadKind::Custom) : kind_(kind) {}
  virtual ~Payload() = default;

  /// Copies start a fresh life: the new object is uniquely owned by its
  /// creator (refcount 0 until published), whatever the source's count was.
  Payload(const Payload& other) : kind_(other.kind_) {}
  Payload& operator=(const Payload&) { return *this; }

  /// The dispatch tag set at construction; payload_cast<T> compares it
  /// against T::kKind.
  PayloadKind kind() const { return kind_; }

  /// Serialized size of the payload body in bytes, excluding UDP/IP headers.
  /// Drives the engine's traffic accounting; implementations must agree with
  /// the binary codec in src/wire for message types that have one.
  virtual std::size_t wire_bytes() const = 0;

  /// Static type tag for logging and debugging.
  virtual const char* type_name() const = 0;

  /// Metric tag under which the engine counts this payload ("msg.sent.<tag>"
  /// and "msg.delivered.<tag>"; also the `m` field of trace records).
  /// Override to split one C++ type into semantic sub-streams (e.g. a gossip
  /// message reporting "newscast.request" vs "newscast.answer"). Must return
  /// a string literal (or other storage outliving the engine).
  virtual const char* metric_tag() const { return type_name(); }

  /// Simulation-side causal span id (obs::SpanId; 0 = none). Set by the
  /// protocol before publication; the engine attributes transport events on
  /// this payload to the span when a SpanLog is installed. Not part of the
  /// wire format: copies (copy-on-write tamper/transcoder rebuilds) and
  /// codec round trips deliberately do not carry it.
  std::uint64_t span = 0;

 private:
  friend class PayloadRef;
  PayloadKind kind_;
  /// Intrusive count, touched only through PayloadRef. 0 while the object
  /// is still uniquely owned by its builder.
  mutable std::atomic<std::uint32_t> refs_{0};
};

/// Shared, immutable reference to a published payload.
///
/// Constructible implicitly from a `std::unique_ptr` to any Payload
/// subclass, so `ctx.send(addr, std::make_unique<Msg>(...))` publishes in
/// place. Copying bumps the intrusive count; the last reference deletes.
/// The count is atomic, so refs to one payload may be copied and released
/// on different threads; one PayloadRef object may not be shared between
/// threads (like std::shared_ptr) — see the Payload ownership note above.
class PayloadRef {
 public:
  PayloadRef() = default;

  /// Publishes a uniquely owned payload (refcount must be 0, i.e. the
  /// object has never been published before).
  template <typename T, std::enable_if_t<std::is_base_of_v<Payload, T>, int> = 0>
  PayloadRef(std::unique_ptr<T> payload) noexcept  // NOLINT(google-explicit-constructor)
      : ptr_(payload.release()) {
    if (ptr_ != nullptr) ptr_->refs_.store(1, std::memory_order_relaxed);
  }

  PayloadRef(const PayloadRef& other) noexcept : ptr_(other.ptr_) {
    // Relaxed suffices for the bump: the copier already holds a reference,
    // so the count cannot concurrently reach zero.
    if (ptr_ != nullptr) ptr_->refs_.fetch_add(1, std::memory_order_relaxed);
  }
  PayloadRef(PayloadRef&& other) noexcept : ptr_(std::exchange(other.ptr_, nullptr)) {}
  PayloadRef& operator=(PayloadRef other) noexcept {
    std::swap(ptr_, other.ptr_);
    return *this;
  }
  ~PayloadRef() { reset(); }

  void reset() noexcept {
    // The one sanctioned manual delete: PayloadRef IS the owner abstraction.
    // acq_rel on the drop orders every earlier read of the payload before
    // the delete performed by whichever thread releases last.
    if (ptr_ != nullptr && ptr_->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete ptr_;  // NOLINT(cppcoreguidelines-owning-memory)
    }
    ptr_ = nullptr;
  }

  const Payload* get() const { return ptr_; }
  const Payload& operator*() const { return *ptr_; }
  const Payload* operator->() const { return ptr_; }
  explicit operator bool() const { return ptr_ != nullptr; }

  /// True when this is the only reference — the copy-on-write fast path.
  bool unique() const {
    return ptr_ != nullptr && ptr_->refs_.load(std::memory_order_acquire) == 1;
  }

  /// Current reference count (0 for an empty ref); exposed for tests.
  std::uint32_t use_count() const {
    return ptr_ == nullptr ? 0 : ptr_->refs_.load(std::memory_order_relaxed);
  }

 private:
  const Payload* ptr_ = nullptr;
};

/// Builds and publishes a payload in one step.
template <typename T, typename... Args>
PayloadRef make_payload(Args&&... args) {
  return PayloadRef(std::make_unique<T>(std::forward<Args>(args)...));
}

/// Checked downcast on the PayloadKind tag: nullptr unless the payload was
/// constructed as a T (T must declare `static constexpr PayloadKind kKind`).
/// Replaces dynamic_cast on every delivery path.
template <typename T>
const T* payload_cast(const Payload* payload) {
  static_assert(std::is_base_of_v<Payload, T>);
  return (payload != nullptr && payload->kind() == T::kKind) ? static_cast<const T*>(payload)
                                                             : nullptr;
}

template <typename T>
const T* payload_cast(const Payload& payload) {
  return payload_cast<T>(&payload);
}

}  // namespace bsvc
