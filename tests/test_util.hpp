// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "id/descriptor.hpp"
#include "id/id_generator.hpp"

namespace bsvc::test {

/// `n` descriptors with unique random IDs and addresses 0..n-1.
inline std::vector<NodeDescriptor> random_descriptors(std::size_t n, std::uint64_t seed) {
  IdGenerator ids{Rng(seed)};
  std::vector<NodeDescriptor> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back({ids.next(), static_cast<Address>(i)});
  return out;
}

/// Bit-exact equality of everything an experiment reports. Doubles are
/// compared with EXPECT_EQ on purpose: determinism means identical
/// computations in identical order, not "close".
inline void expect_same_result(const ExperimentResult& a, const ExperimentResult& b,
                               const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.converged_cycle, b.converged_cycle);
  EXPECT_EQ(a.leaf_converged_cycle, b.leaf_converged_cycle);
  EXPECT_EQ(a.prefix_converged_cycle, b.prefix_converged_cycle);
  ASSERT_EQ(a.series.rows(), b.series.rows());
  for (std::size_t r = 0; r < a.series.rows(); ++r) {
    for (std::size_t c = 0; c < 6; ++c) {
      EXPECT_EQ(a.series.at(r, c), b.series.at(r, c)) << "row " << r << " col " << c;
    }
  }
  EXPECT_EQ(a.bootstrap_stats.requests_sent, b.bootstrap_stats.requests_sent);
  EXPECT_EQ(a.bootstrap_stats.replies_sent, b.bootstrap_stats.replies_sent);
  EXPECT_EQ(a.bootstrap_stats.messages_received, b.bootstrap_stats.messages_received);
  EXPECT_EQ(a.bootstrap_stats.entries_sent, b.bootstrap_stats.entries_sent);
  EXPECT_EQ(a.bootstrap_stats.payload_bytes_sent, b.bootstrap_stats.payload_bytes_sent);
  EXPECT_EQ(a.bootstrap_stats.max_message_bytes, b.bootstrap_stats.max_message_bytes);
  EXPECT_EQ(a.bootstrap_stats.select_peer_empty, b.bootstrap_stats.select_peer_empty);
  EXPECT_EQ(a.traffic_during_bootstrap.messages_sent, b.traffic_during_bootstrap.messages_sent);
  EXPECT_EQ(a.traffic_during_bootstrap.messages_dropped,
            b.traffic_during_bootstrap.messages_dropped);
  EXPECT_EQ(a.traffic_during_bootstrap.messages_to_dead,
            b.traffic_during_bootstrap.messages_to_dead);
  EXPECT_EQ(a.traffic_during_bootstrap.messages_delivered,
            b.traffic_during_bootstrap.messages_delivered);
  EXPECT_EQ(a.traffic_during_bootstrap.messages_duplicated,
            b.traffic_during_bootstrap.messages_duplicated);
  EXPECT_EQ(a.traffic_during_bootstrap.bytes_sent, b.traffic_during_bootstrap.bytes_sent);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.avg_message_bytes, b.avg_message_bytes);
  EXPECT_EQ(a.max_message_bytes, b.max_message_bytes);
  EXPECT_EQ(a.final_metrics.missing_leaf_fraction(), b.final_metrics.missing_leaf_fraction());
  EXPECT_EQ(a.final_metrics.missing_prefix_fraction(),
            b.final_metrics.missing_prefix_fraction());
}

}  // namespace bsvc::test
