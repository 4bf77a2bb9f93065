#ifndef MLP_ENGINE_GRAPH_SHARDER_H_
#define MLP_ENGINE_GRAPH_SHARDER_H_

#include <cstddef>
#include <vector>

#include "graph/social_graph.h"

namespace mlp {
namespace core {
class CandidateSpace;
}  // namespace core

namespace engine {

/// One partition of the observation graph: a set of users plus the
/// relationships they *own*. A following relationship is owned by its
/// follower; a tweeting relationship by its tweeter. Ownership decides
/// which worker resamples an edge — the resampled assignments touch the
/// counts of BOTH endpoints, but those updates land in the worker's
/// thread-local statistics replica and merge at the sweep barrier, so
/// cross-shard endpoints need no locking.
struct Shard {
  std::vector<graph::UserId> users;       // ascending
  std::vector<graph::EdgeId> following;   // owned following edges, ascending
  std::vector<graph::EdgeId> tweeting;    // owned tweeting edges, ascending
  /// Sampling work this shard carries per sweep (edge count; see the
  /// cost-weighted Partition overload for the candidate-product measure).
  std::size_t Weight() const { return following.size() + tweeting.size(); }
};

/// Partitions users (and thereby their owned relationships) into
/// `num_shards` shards with near-equal per-sweep work.
///
/// Deterministic greedy LPT: users sorted by per-user cost descending
/// (ties by id ascending) are assigned one at a time to the currently
/// lightest shard (ties by shard index). LPT guarantees the heaviest shard
/// carries at most 4/3 of the optimal makespan, so shard weights stay well
/// within 2x of perfectly balanced whenever any balanced split exists.
class GraphSharder {
 public:
  /// Every user appears in exactly one shard and every relationship in
  /// exactly one shard's edge list. `num_shards` is clamped to >= 1; with
  /// fewer users than shards the tail shards are empty. Cost measure:
  /// owned-edge count per user (every edge weighs 1).
  static std::vector<Shard> Partition(const graph::SocialGraph& graph,
                                      int num_shards);

  /// Cost-weighted variant: `user_cost[u]` is user u's total per-sweep
  /// sampling cost (e.g. Σ over owned following edges of
  /// |cand_follower|·|cand_friend| plus Σ over owned tweets of |cand| —
  /// the blocked update's real inner-loop work). Used by
  /// ParallelGibbsEngine to re-estimate the LPT balance after candidate
  /// pruning shrinks some users' inner loops much more than others'.
  /// Same determinism guarantees as the unit-cost overload.
  static std::vector<Shard> Partition(const graph::SocialGraph& graph,
                                      int num_shards,
                                      const std::vector<double>& user_cost);

  /// That candidate-product cost per user, over `space`'s ACTIVE rows:
  /// |cand_follower|·|cand_friend| per owned following edge (when
  /// `use_following`) plus |cand| per owned tweet (when `use_tweeting`).
  static std::vector<double> CandidateProductCost(
      const graph::SocialGraph& graph, const core::CandidateSpace& space,
      bool use_following, bool use_tweeting);

  /// Two-group variant for streaming ingest: users with `group[u] != 0`
  /// are LPT-packed into shards [0, group_shards) and everyone else into
  /// [group_shards, num_shards), each side balanced by `user_cost` with
  /// the same determinism guarantees. Concentrating the delta-touched set
  /// into the fewest shards its cost warrants is what lets streaming
  /// ingest's warm resample (core::MlpModel::ApplyDelta) skip the rest of
  /// the world. `group_shards` is clamped to [1, num_shards]; with
  /// group_shards == num_shards the group constraint disappears.
  static std::vector<Shard> PartitionGrouped(
      const graph::SocialGraph& graph, int num_shards, int group_shards,
      const std::vector<double>& user_cost,
      const std::vector<uint8_t>& group);
};

}  // namespace engine
}  // namespace mlp

#endif  // MLP_ENGINE_GRAPH_SHARDER_H_
