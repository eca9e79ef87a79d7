#include "sampling/newscast.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "common/stamped_map.hpp"

namespace bsvc {

namespace {
constexpr std::uint64_t kGossipTimer = 1;

// View order: freshest first, ties by ascending address.
bool fresher(const TimestampedDescriptor& a, const TimestampedDescriptor& b) {
  if (a.timestamp != b.timestamp) return a.timestamp > b.timestamp;
  return a.descriptor.addr < b.descriptor.addr;
}

// Puts a run into view order with an insertion sort: stable,
// allocation-free and linear on the runs a merge sees. A view is in view
// order after its first merge, and a compliant message is the sender's view
// with its fresh self entry last, so about one entry moves (to the front).
// An unsorted run of n entries costs O(n^2); a compliant message carries at
// most view_size + 1, and `harden` caps a merge's accepted entries there.
void sort_run(std::vector<TimestampedDescriptor>& run) {
  for (std::size_t i = 1; i < run.size(); ++i) {
    if (!fresher(run[i], run[i - 1])) continue;
    const TimestampedDescriptor e = run[i];
    std::size_t j = i;
    do {
      run[j] = run[j - 1];
      --j;
    } while (j > 0 && fresher(e, run[j - 1]));
    run[j] = e;
  }
}

// Merge and sample scratch shared by every NewscastProtocol on a worker
// lane, so a node's Newscast state is its view alone. Safe because the
// sharded engine's lanes are persistent threads and neither call re-enters
// the other.
struct NewscastScratch {
  StampedMap first_at;  // address -> view index of its first occurrence,
                        // or view size + index of its incoming winner
  std::vector<std::uint8_t> replaced;  // per view index
  std::vector<TimestampedDescriptor> survivors;
  std::vector<TimestampedDescriptor> winners;
  std::vector<std::uint32_t> idx;  // sample_into's draw
};

NewscastScratch& scratch() {
  thread_local NewscastScratch s;
  return s;
}
}  // namespace

std::size_t newscast_merge(std::vector<TimestampedDescriptor>& view,
                           std::span<const TimestampedDescriptor> incoming, Address self,
                           SimTime now, const NewscastConfig& config) {
  NewscastScratch& s = scratch();
  const auto view_n = static_cast<std::uint32_t>(view.size());
  // Only the first occurrence of an address is mapped: an incoming entry
  // then replaces the entry a front-to-back search would find, and the
  // second copy of a duplicate seed survives beside it.
  s.first_at.reset(view.size() + incoming.size());
  for (std::uint32_t i = 0; i < view_n; ++i) s.first_at.find_or_insert(view[i].descriptor.addr, i);
  s.replaced.assign(view_n, 0);
  s.winners.clear();
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const auto& entry : incoming) {
    if (entry.descriptor.addr == self || entry.descriptor.addr == kNullAddress) continue;
    if (config.harden) {
      // Future timestamps are freshness forgery — a poisoned entry stamped
      // ahead of the clock would win every dedupe until the horizon. The
      // flood cap bounds what a single message may change; a compliant
      // exchange carries at most the peer's view plus its self entry.
      if (entry.timestamp > now || accepted >= config.view_size + 1) {
        ++rejected;
        continue;
      }
      ++accepted;
    }
    // Per address the strictly fresher entry wins; on a tie the earlier
    // one stays.
    const auto next = static_cast<std::uint32_t>(view_n + s.winners.size());
    auto [at, inserted] = s.first_at.find_or_insert(entry.descriptor.addr, next);
    if (inserted) {
      s.winners.push_back(entry);
    } else if (at < view_n) {
      if (entry.timestamp > view[at].timestamp) {
        s.replaced[at] = 1;
        at = next;
        s.winners.push_back(entry);
      }
    } else if (entry.timestamp > s.winners[at - view_n].timestamp) {
      s.winners[at - view_n] = entry;
    }
  }
  s.survivors.clear();
  for (std::uint32_t i = 0; i < view_n; ++i) {
    if (s.replaced[i] == 0) s.survivors.push_back(view[i]);
  }
  sort_run(s.survivors);
  sort_run(s.winners);
  // Two sorted runs: merge them and keep the view_size freshest.
  const auto& run_a = s.survivors;
  const auto& run_b = s.winners;
  std::size_t a = 0;
  std::size_t b = 0;
  view.clear();
  while (view.size() < config.view_size && (a < run_a.size() || b < run_b.size())) {
    const bool take_b = a == run_a.size() || (b < run_b.size() && fresher(run_b[b], run_a[a]));
    view.push_back(take_b ? run_b[b++] : run_a[a++]);
  }
  return rejected;
}

NewscastProtocol::NewscastProtocol(NewscastConfig config) : config_(config) {
  BSVC_CHECK(config_.view_size > 0);
  BSVC_CHECK(config_.period > 0);
}

void NewscastProtocol::init_view(DescriptorList seeds) { pending_seeds_ = std::move(seeds); }

void NewscastProtocol::add_contact(const NodeDescriptor& contact, SimTime now) {
  if (!started_) {
    pending_seeds_.push_back(contact);
    return;
  }
  const TimestampedDescriptor entry{contact, now};
  merge({&entry, 1}, now);
}

void NewscastProtocol::on_start(Context& ctx) {
  self_ = {ctx.self_id(), ctx.self()};
  rng_ = &ctx.rng();
  ctr_exchanges_ = &ctx.engine().metrics().counter("newscast.exchanges");
  if (config_.harden) {
    ctr_rejected_ = &ctx.engine().metrics().counter("newscast.rejected");
  }
  started_ = true;
  // The seed view is not deduplicated: a contact drawn twice stays twice
  // until merges push its second copy out. The spent seed list is freed.
  const DescriptorList seeds = std::move(pending_seeds_);
  view_.clear();
  view_.reserve(config_.view_size);
  for (const auto& seed : seeds) {
    if (view_.size() == config_.view_size) break;
    if (seed.addr == self_.addr) continue;
    view_.push_back({seed, ctx.now()});
  }
  // First exchange at a random offset within one period: the loosely
  // synchronized start the paper assumes.
  ctx.schedule_timer(ctx.rng().below(config_.period), kGossipTimer);
}

void NewscastProtocol::on_timer(Context& ctx, std::uint64_t timer_id) {
  BSVC_CHECK(timer_id == kGossipTimer);
  if (!view_.empty()) {
    const auto& peer = view_[ctx.rng().below(view_.size())].descriptor;
    ctx.send(peer.addr, outgoing(ctx, /*is_request=*/true));
    ctr_exchanges_->inc();
  }
  ctx.schedule_timer(config_.period, kGossipTimer);
}

void NewscastProtocol::on_message(Context& ctx, Address from, const Payload& payload) {
  const auto* msg = payload_cast<NewscastMessage>(payload);
  if (msg == nullptr) {
    BSVC_WARN("newscast: unexpected payload type %s", payload.type_name());
    return;
  }
  if (!started_) return;  // not yet initialized (staggered start): sender retries
  if (msg->is_request) {
    ctx.send(from, outgoing(ctx, /*is_request=*/false));
  }
  merge(msg->entries, ctx.now());
}

DescriptorList NewscastProtocol::sample(std::size_t n) {
  DescriptorList out;
  sample_into(n, out);
  return out;
}

void NewscastProtocol::sample_into(std::size_t n, DescriptorList& out) {
  if (view_.empty() || n == 0) return;
  BSVC_CHECK_MSG(rng_ != nullptr, "sample() before protocol start");
  const auto take = std::min(n, view_.size());
  std::vector<std::uint32_t>& idx = scratch().idx;
  rng_->distinct_indices_into(static_cast<std::uint32_t>(take),
                              static_cast<std::uint32_t>(view_.size()), idx);
  out.reserve(out.size() + take);
  for (auto i : idx) out.push_back(view_[i].descriptor);
}

void NewscastProtocol::merge(std::span<const TimestampedDescriptor> incoming, SimTime now) {
  const std::size_t rejected = newscast_merge(view_, incoming, self_.addr, now, config_);
  if (rejected != 0 && ctr_rejected_ != nullptr) ctr_rejected_->add(rejected);
}

std::unique_ptr<NewscastMessage> NewscastProtocol::outgoing(Context& ctx,
                                                            bool is_request) const {
  auto msg = std::make_unique<NewscastMessage>(is_request);
  msg->entries.reserve(view_.size() + 1);
  msg->entries.assign(view_.begin(), view_.end());
  msg->entries.push_back({self_, ctx.now()});
  return msg;
}

}  // namespace bsvc
