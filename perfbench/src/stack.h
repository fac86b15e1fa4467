// The served configuration, built identically by the server process and by
// the traced replay: a fixed 1000-node dual-peer partition, a
// ShardedDirectory with delta tracking, and QueryEngine, SubscriptionIndex
// and NotificationEngine with library defaults (0 = one worker per
// hardware thread).  ServeOptions stay at their defaults.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/engine.h"
#include "core/options.h"
#include "mobility/query_engine.h"
#include "mobility/sharded_directory.h"
#include "pubsub/notification_engine.h"
#include "pubsub/subscription_index.h"

namespace pb {

/// The partition is part of the served configuration, not of the traffic:
/// it is the same for every seed.
inline constexpr std::uint64_t kPartitionSeed = 7;
inline constexpr std::size_t kPartitionNodes = 1000;

inline geogrid::core::SimulationOptions partition_options() {
  geogrid::core::SimulationOptions o;
  o.mode = geogrid::core::GridMode::kDualPeer;
  o.node_count = kPartitionNodes;
  o.seed = kPartitionSeed;
  return o;
}

struct Stack {
  explicit Stack(std::size_t shards = 0)
      : sim(partition_options()),
        directory(sim.partition(),
                  geogrid::mobility::ShardedDirectory::Options{
                      .shards = shards, .track_deltas = true}),
        queries(directory),
        subscriptions(sim.partition().plane()),
        notifications(directory, subscriptions) {}

  geogrid::core::GridSimulation sim;
  geogrid::mobility::ShardedDirectory directory;
  geogrid::mobility::QueryEngine queries;
  geogrid::pubsub::SubscriptionIndex subscriptions;
  geogrid::pubsub::NotificationEngine notifications;
};

}  // namespace pb
