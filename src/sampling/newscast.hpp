// NEWSCAST: the gossip-based peer sampling protocol (paper §3, [6]).
//
// Each node keeps a small view of timestamped descriptors. Periodically it
// picks a random peer from the view and sends it the view plus a fresh
// self-descriptor; the peer answers with the same. Both sides then keep the
// `view_size` freshest entries (deduplicated by address, freshest wins).
// This cheap push–pull exchange keeps the view a continually reshuffled
// random sample of the membership, self-heals after massive failures, and
// re-randomizes quickly even from fully degenerate initial views.
#pragma once

#include <cstdint>
#include <span>

#include "common/pool.hpp"
#include "sampling/peer_sampler.hpp"
#include "sim/engine.hpp"
#include "sim/protocol.hpp"

namespace bsvc {

/// A descriptor plus the virtual time at which its node vouched for itself.
struct TimestampedDescriptor {
  NodeDescriptor descriptor;
  SimTime timestamp = 0;
};

/// View exchange message (request or answer). Object and entry buffer both
/// recycle through thread-local pools (common/pool.hpp): a steady-state
/// exchange reuses the storage of an already-retired message.
class NewscastMessage final : public Payload, public PooledAlloc<NewscastMessage> {
 public:
  static constexpr PayloadKind kKind = PayloadKind::Newscast;

  NewscastMessage(std::vector<TimestampedDescriptor> entries, bool is_request)
      : Payload(kKind), entries(std::move(entries)), is_request(is_request) {}

  /// Builder form: the sender reserves and fills `entries` in place before
  /// publishing (the warmed pool buffer makes that reserve a no-op).
  explicit NewscastMessage(bool is_request) : Payload(kKind), is_request(is_request) {
    BufferPool<TimestampedDescriptor>::acquire(entries);
  }

  /// The adversary's poison path clones messages; route the clone's buffer
  /// through the pool like the builder's.
  NewscastMessage(const NewscastMessage& other)
      : Payload(other), is_request(other.is_request) {
    BufferPool<TimestampedDescriptor>::acquire(entries);
    entries.assign(other.entries.begin(), other.entries.end());
  }
  NewscastMessage& operator=(const NewscastMessage&) = delete;

  ~NewscastMessage() override {
    BufferPool<TimestampedDescriptor>::release(std::move(entries));
  }

  std::size_t wire_bytes() const override {
    // count u16 + per entry: descriptor (14) + coarse timestamp u32 + 1 flag.
    return 2 + entries.size() * (kDescriptorWireBytes + 4) + 1;
  }
  const char* type_name() const override { return "newscast"; }
  const char* metric_tag() const override {
    return is_request ? "newscast.request" : "newscast.answer";
  }

  std::vector<TimestampedDescriptor> entries;
  bool is_request;
};

/// Protocol parameters.
struct NewscastConfig {
  /// View size (the paper's implementations carry ~30 addresses).
  std::size_t view_size = 30;
  /// Gossip period in ticks (the paper's "typically long" interval; one
  /// exchange per node per period).
  SimTime period = kDelta;
  /// Byzantine hardening: reject descriptors timestamped in the future
  /// (freshness forgery would otherwise make a poisoned entry win every
  /// dedupe for the rest of the run) and cap the entries accepted from one
  /// message at view_size + 1, the sender's view plus its self entry (flood
  /// cap). Off by default; with harden = false the merge is byte-identical
  /// to the unhardened build.
  bool harden = false;
};

/// The Newscast merge: folds `incoming` into `view` and leaves `view` in
/// view order (timestamp descending, address ascending), cut to
/// `config.view_size`. Entries at `self` or kNullAddress are dropped. An
/// incoming entry replaces the first `view` entry with its address, or an
/// earlier incoming one, only if strictly fresher. With `config.harden`,
/// future-stamped entries and entries past the flood cap are rejected;
/// returns how many were.
std::size_t newscast_merge(std::vector<TimestampedDescriptor>& view,
                           std::span<const TimestampedDescriptor> incoming, Address self,
                           SimTime now, const NewscastConfig& config);

/// The Newscast protocol instance of one node. Also implements PeerSampler
/// for co-located higher layers.
class NewscastProtocol final : public Protocol, public PeerSampler {
 public:
  explicit NewscastProtocol(NewscastConfig config);

  /// Seeds the initial view (descriptors get timestamp = now at start).
  /// Intentionally accepts degenerate seeds (e.g. every node given the same
  /// single contact): the protocol randomizes them quickly.
  void init_view(DescriptorList seeds);

  /// Administrator-supplied contact on a running node (e.g. a member of
  /// another organization's pool at merge time). Merged like a freshly
  /// received entry and then spread epidemically by the normal exchanges.
  void add_contact(const NodeDescriptor& contact, SimTime now);

  // Protocol interface.
  void on_start(Context& ctx) override;
  void on_timer(Context& ctx, std::uint64_t timer_id) override;
  void on_message(Context& ctx, Address from, const Payload& payload) override;

  // PeerSampler interface: uniform picks from the current view.
  DescriptorList sample(std::size_t n) override;
  void sample_into(std::size_t n, DescriptorList& out) override;

  /// Read access for metrics and tests.
  const std::vector<TimestampedDescriptor>& view() const { return view_; }

 private:
  /// newscast_merge into the view; with config_.harden, rejections are
  /// counted in "newscast.rejected".
  void merge(std::span<const TimestampedDescriptor> incoming, SimTime now);

  /// Builds an exchange message carrying the view plus a fresh
  /// self-descriptor (one reserve for the whole body).
  std::unique_ptr<NewscastMessage> outgoing(Context& ctx, bool is_request) const;

  NewscastConfig config_;
  // At most view_size entries, in view order after the first merge. Merge
  // and sample scratch is thread-local in newscast.cpp, not per node.
  std::vector<TimestampedDescriptor> view_;
  // Seeds until on_start, which frees them.
  DescriptorList pending_seeds_;
  NodeDescriptor self_{};
  bool started_ = false;
  // Cached context bits for sample(); set on first callback.
  Rng* rng_ = nullptr;
  // Engine-registry counter ("newscast.exchanges"), cached at on_start.
  obs::Counter* ctr_exchanges_ = nullptr;
  // Hardening rejections ("newscast.rejected"; registered only with harden).
  obs::Counter* ctr_rejected_ = nullptr;
};

}  // namespace bsvc
