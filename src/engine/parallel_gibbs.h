#ifndef MLP_ENGINE_PARALLEL_GIBBS_H_
#define MLP_ENGINE_PARALLEL_GIBBS_H_

#include <memory>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/candidate_space.h"
#include "core/input.h"
#include "core/model_config.h"
#include "core/sampler.h"
#include "engine/graph_sharder.h"
#include "engine/thread_pool.h"

namespace mlp {
namespace engine {

/// Parallel sharded driver for the collapsed Gibbs sampler (AD-LDA-style
/// approximate collapsed Gibbs; see src/engine/README.md).
///
/// Users and the relationships they own are partitioned into
/// `kSubShardsPerThread × num_threads` SUB-SHARDS that form a dynamic work
/// queue: each sweep, the sub-shards are submitted to the pool in
/// measured-cost order (heaviest first, by an EWMA of each sub-shard's
/// kernel nanoseconds from previous sweeps — online LPT) and idle workers
/// pull the next one, so a mis-predicted shard cost degrades the balance by
/// at most one sub-shard instead of one thread's whole sweep.
///
/// A worker runs a sub-shard's following edges through the sampler's
/// alias-MH kernel (GibbsSampler::SampleFollowingEdgeFast) and its
/// tweeting edges through the exact blocked kernel
/// (GibbsSampler::SampleTweetingEdge), both against the worker's
/// thread-local statistics replica, then immediately FOLDS the sub-shard's
/// delta out of the replica into the worker's delta accumulator and reverts
/// the replica to the global values. The fold touches only the sub-shard's
/// user rows plus the venue cells the tweeting kernel logged, and it
/// re-establishes the invariant `replica == global counts` before the next
/// sub-shard runs — which makes the chain a pure function of (global state,
/// per-sub-shard RNG streams): WHICH worker runs a sub-shard, and in WHAT
/// order, is semantically neutral. Counts are integer-valued doubles, so the merge
/// arithmetic is exact and the engine stays run-to-run deterministic for a
/// fixed (seed, num_threads) even under dynamic scheduling.
///
/// Every sweep ends at the sync barrier: one parallel pass merges every
/// accumulator into the global counts AND refreshes every replica, region
/// by region: thread r owns slice r of each flat buffer, sums the
/// accumulators' slices into the global slice, zeroes them, and copies the
/// merged slice back into all replicas — merge and refresh overlap in a
/// single barrier instead of a serial merge followed by a serial (or
/// separate) refresh. The per-user alias proposal tables
/// (core::ProposalTables) are then rebuilt in parallel from the merged
/// counts; they stay frozen for the next sweep and the following kernel's
/// MH acceptance ratio corrects their staleness.
///
/// With `config->num_threads <= 1` every call delegates to the sequential
/// `GibbsSampler`, using the caller's RNG and the exact blocked kernels for
/// both edge kinds —
/// results are bit-for-bit identical to not using the engine at all. With N
/// threads each sub-shard draws from its own Pcg32 stream derived from
/// `config->seed`, so the chain is independent of thread scheduling but
/// differs (as any approximate parallel chain must) from the sequential
/// one. Because every sweep merges, the global counts reflect every sweep
/// run so far whenever RunSweep returns: checkpoints may be cut and counts
/// read between any two sweeps.
class ParallelGibbsEngine {
 public:
  /// Sub-shards per worker thread. Enough queue depth that dynamic
  /// scheduling can absorb a ~kSubShardsPerThread-to-1 cost misprediction;
  /// small enough that the per-sub-shard fold and submit overheads stay
  /// negligible against the kernel time.
  static constexpr int kSubShardsPerThread = 4;

  /// All pointers must outlive the engine. The sampler must belong to the
  /// same input/config. `space` is the candidate space the sampler reads
  /// through — required for sweep-time pruning (MaybePrune) and shard-cost
  /// re-estimation; pass nullptr only for drivers that never prune.
  ParallelGibbsEngine(core::GibbsSampler* sampler,
                      const core::ModelInput* input,
                      const core::MlpConfig* config,
                      core::CandidateSpace* space = nullptr);

  /// Sequential initialization (identical for every thread count).
  void Initialize(Pcg32* rng);

  /// One full Gibbs sweep over all relationships, ending merged. `rng`
  /// drives the chain only in the sequential (num_threads <= 1) path.
  void RunSweep(Pcg32* rng);

  // ---- adaptive candidate pruning (used by core::MlpModel::Fit) ----

  /// One sweep-time pruning barrier: no-op unless pruning is configured
  /// (config->prune_floor > 0 and a space was given). Otherwise runs
  /// CandidateSpace::PruneStep against the global counts; if anything was
  /// deactivated, drives the sampler's arena/chain compaction, then (timed
  /// separately, fit_rebalance_ns) re-estimates per-user costs and
  /// re-partitions the sub-shards so the scheduler's balance tracks the
  /// shrinking inner loops. Returns true iff
  /// a compaction happened. Deterministic: pure function of the merged
  /// counts, so fixed (seed, num_threads) still replays the exact same
  /// chain.
  bool MaybePrune(int32_t sweep_index);

  /// After a warm start restored the space's activation state: re-derives
  /// the cost-based sub-shards a pruned fit was running with at the
  /// checkpoint cut (no-op when nothing was ever pruned, keeping the
  /// unit-cost partition — and its bit-exact-resume guarantee — untouched).
  void OnActivationRestored();

  // ---- checkpoint / warm-start API (used by core::MlpModel) ----

  /// Exact positions of the per-sub-shard RNG streams (empty when
  /// sequential). There are kSubShardsPerThread × num_threads streams; the
  /// snapshot format stores the count explicitly, so the engine owns the
  /// number, not the file format.
  std::vector<Pcg32State> ShardRngStates() const;

  /// Resumes after the sampler's state was restored from a snapshot:
  /// sub-shard streams continue where they left off and replicas are
  /// marked stale so the next sweep re-snapshots the restored global
  /// counts. `states` must have one entry per sub-shard stream (empty for
  /// the sequential path).
  Status RestoreShardRngStates(const std::vector<Pcg32State>& states);

  /// Exact allocated bytes of the engine's own buffers: per-worker replica
  /// + accumulator arenas and the proposal tables (zero for the sequential
  /// path, which owns none).
  int64_t AccountedBytes() const {
    int64_t total = proposals_.AccountedBytes();
    for (const auto& r : replicas_) total += r.AccountedBytes();
    for (const auto& a : delta_accs_) total += a.AccountedBytes();
    return total;
  }

  /// Per-worker busy nanoseconds (kernel + fold) of the most recent
  /// parallel sweep — the scheduler-quality signal behind the bench's
  /// shard_kernel max/mean metric. Empty until the first parallel sweep;
  /// always empty in the sequential path.
  const std::vector<int64_t>& LastSweepThreadBusyNs() const {
    return thread_busy_ns_;
  }

 private:
  /// Cold refresh: every replica copies the full global counts and every
  /// accumulator resets to zero over the current layout. Needed after
  /// anything that invalidates replica values wholesale (initialize,
  /// compaction, restore, repartition).
  void RefreshReplicas();
  /// The sync barrier: one parallel region-sliced pass that merges all
  /// accumulators into the global counts and refreshes all replicas, then
  /// marks the proposal tables stale and records the sweep trace.
  void MergeAndRefresh();
  /// Rebuilds the alias proposal tables from the merged global counts
  /// (parallel over user ranges).
  void RebuildProposals();
  /// Moves sub-shard `k`'s delta out of worker `slot`'s replica into its
  /// accumulator and reverts the replica to the global values — only the
  /// sub-shard's touched user rows plus the tweeting kernel's logged venue
  /// cells.
  void FoldShardDelta(int sub_shard, int slot);
  /// Re-partitions sub-shards with per-user costs = Σ active-candidate
  /// products of owned relationships, then rebuilds touch sets and resets
  /// the measured-cost schedule. Parallel path only.
  void ReshardByCost();
  /// Derives each sub-shard's touched-user set (both endpoints of owned
  /// following edges, owners of owned tweets) — the rows FoldShardDelta
  /// walks.
  void RebuildTouchSets();
  /// Clears the EWMA measurements and seeds the submit order from the
  /// static shard weights (edge counts) until real timings arrive.
  void ResetSchedule();

  core::GibbsSampler* sampler_;
  const core::ModelInput* input_;
  const core::MlpConfig* config_;
  core::CandidateSpace* space_;
  int num_threads_;

  std::unique_ptr<ThreadPool> pool_;    // null in the sequential path
  std::vector<Shard> shards_;           // sub-shards (work-queue granularity)
  /// One persistent stream per sub-shard (kSubShardsPerThread ×
  /// num_threads, fixed for the engine's lifetime; a cost reshard moves
  /// users between sub-shards, never streams): the chain consumes stream k
  /// exactly for sub-shard k, so determinism is independent of scheduling.
  std::vector<Pcg32> shard_rngs_;
  std::vector<std::vector<graph::UserId>> touch_users_;  // per sub-shard

  // Per-WORKER state, addressed via ThreadPool::CurrentWorkerIndex().
  std::vector<core::SuffStatsArena> replicas_;
  std::vector<core::SuffStatsArena> delta_accs_;
  std::vector<core::GibbsScratch> scratches_;
  std::vector<core::ProposalBuildScratch> proposal_scratches_;

  core::ProposalTables proposals_;
  bool replicas_fresh_ = false;
  bool proposals_stale_ = true;

  // Measured-cost scheduling state (main thread only between barriers).
  std::vector<double> ewma_ns_;         // per sub-shard; < 0 = no sample yet
  std::vector<int> order_;              // submit order, heaviest first
  /// Per-sub-shard kernel nanoseconds of the current sweep, written by the
  /// executing worker and read by the main thread after the pool barrier
  /// (the pool's Wait() synchronizes the accesses). Feeds the EWMA.
  std::vector<int64_t> sub_kernel_ns_;
  /// Per-worker busy (kernel + fold) nanoseconds of the current sweep;
  /// each slot is written only by the worker occupying it. Barrier wait is
  /// derived from it: threads × parallel-section wall − Σ busy.
  std::vector<int64_t> thread_busy_ns_;
};

}  // namespace engine
}  // namespace mlp

#endif  // MLP_ENGINE_PARALLEL_GIBBS_H_
