#include "engine/graph_sharder.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "core/candidate_space.h"

namespace mlp {
namespace engine {

namespace {

/// Shared deterministic greedy LPT over per-user costs. Unit costs are
/// small integers, and double sums of small integers are exact, so routing
/// the legacy overload through here reproduces its historical partitions
/// bit for bit. A non-empty `group` restricts group members to shards
/// [0, group_begin_end.first) — i.e. [0, group_shards) — and the rest to
/// [group_shards, k); see GraphSharder::PartitionGrouped.
std::vector<Shard> LptPartition(const graph::SocialGraph& graph, int num_shards,
                                const std::vector<double>& cost,
                                const std::vector<uint8_t>& group = {},
                                int group_shards = 0) {
  const int k = std::max(1, num_shards);
  const int num_users = graph.num_users();

  // Greedy LPT: costliest user first, into the lightest shard.
  std::vector<graph::UserId> order(num_users);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&cost](graph::UserId a, graph::UserId b) {
                     return cost[a] > cost[b];
                   });

  std::vector<Shard> shards(k);
  std::vector<double> load(k, 0.0);
  std::vector<int> shard_of_user(num_users, 0);
  for (graph::UserId u : order) {
    int begin = 0;
    int end = k;
    if (!group.empty()) {
      if (group[u]) {
        end = group_shards;
      } else {
        begin = group_shards < k ? group_shards : 0;
      }
    }
    int lightest = begin;
    for (int i = begin + 1; i < end; ++i) {
      if (load[i] < load[lightest]) lightest = i;
    }
    shard_of_user[u] = lightest;
    shards[lightest].users.push_back(u);
    load[lightest] += cost[u];
  }
  for (Shard& shard : shards) {
    std::sort(shard.users.begin(), shard.users.end());
  }

  // Edge lists follow their owner; iterating edges in id order keeps each
  // shard's list ascending, which fixes the within-shard sweep order.
  for (graph::EdgeId s = 0; s < graph.num_following(); ++s) {
    shards[shard_of_user[graph.following(s).follower]].following.push_back(s);
  }
  for (graph::EdgeId t = 0; t < graph.num_tweeting(); ++t) {
    shards[shard_of_user[graph.tweeting(t).user]].tweeting.push_back(t);
  }
  return shards;
}

}  // namespace

std::vector<Shard> GraphSharder::Partition(const graph::SocialGraph& graph,
                                           int num_shards) {
  // Owned-edge count per user, straight off the edge lists (no adjacency
  // index needed, so unfinalized graphs shard too).
  std::vector<double> owned(graph.num_users(), 0.0);
  for (graph::EdgeId s = 0; s < graph.num_following(); ++s) {
    owned[graph.following(s).follower] += 1.0;
  }
  for (graph::EdgeId t = 0; t < graph.num_tweeting(); ++t) {
    owned[graph.tweeting(t).user] += 1.0;
  }
  return LptPartition(graph, num_shards, owned);
}

std::vector<Shard> GraphSharder::Partition(
    const graph::SocialGraph& graph, int num_shards,
    const std::vector<double>& user_cost) {
  MLP_CHECK(static_cast<int>(user_cost.size()) == graph.num_users());
  return LptPartition(graph, num_shards, user_cost);
}

std::vector<double> GraphSharder::CandidateProductCost(
    const graph::SocialGraph& graph, const core::CandidateSpace& space,
    bool use_following, bool use_tweeting) {
  std::vector<double> cost(graph.num_users(), 0.0);
  for (graph::EdgeId s = 0; use_following && s < graph.num_following(); ++s) {
    const graph::FollowingEdge& edge = graph.following(s);
    cost[edge.follower] +=
        static_cast<double>(space.view(edge.follower).size()) *
        static_cast<double>(space.view(edge.friend_user).size());
  }
  for (graph::EdgeId t = 0; use_tweeting && t < graph.num_tweeting(); ++t) {
    const graph::TweetingEdge& edge = graph.tweeting(t);
    cost[edge.user] += static_cast<double>(space.view(edge.user).size());
  }
  return cost;
}

std::vector<Shard> GraphSharder::PartitionGrouped(
    const graph::SocialGraph& graph, int num_shards, int group_shards,
    const std::vector<double>& user_cost, const std::vector<uint8_t>& group) {
  MLP_CHECK(static_cast<int>(user_cost.size()) == graph.num_users());
  MLP_CHECK(static_cast<int>(group.size()) == graph.num_users());
  const int k = std::max(1, num_shards);
  return LptPartition(graph, k, user_cost, group,
                      std::clamp(group_shards, 1, k));
}

}  // namespace engine
}  // namespace mlp
