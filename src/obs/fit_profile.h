#ifndef MLP_OBS_FIT_PROFILE_H_
#define MLP_OBS_FIT_PROFILE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mlp {
namespace obs {

// Canonical fit phase counter names (all accumulate nanoseconds unless
// suffixed _total). Instrumented in engine::ParallelGibbsEngine and
// core::GibbsSampler; consumed by `mlpctl fit --profile`,
// bench_parallel_scaling's BENCH_parallel.json phase breakdown, and
// GET /metricsz.
inline constexpr char kFitSweepNs[] = "fit_sweep_ns";
inline constexpr char kFitSweepsTotal[] = "fit_sweeps_total";
inline constexpr char kFitReplicaRefreshNs[] = "fit_replica_refresh_ns";
inline constexpr char kFitAliasRebuildNs[] = "fit_alias_rebuild_ns";
inline constexpr char kFitShardKernelNs[] = "fit_shard_kernel_ns";
inline constexpr char kFitDeltaFoldNs[] = "fit_delta_fold_ns";
inline constexpr char kFitBarrierWaitNs[] = "fit_barrier_wait_ns";
inline constexpr char kFitDeltaMergeNs[] = "fit_delta_merge_ns";
inline constexpr char kFitTraceRecordNs[] = "fit_trace_record_ns";
inline constexpr char kFitPruneNs[] = "fit_prune_ns";
inline constexpr char kFitRebalanceNs[] = "fit_rebalance_ns";
inline constexpr char kFitAccumulateNs[] = "fit_accumulate_ns";
inline constexpr char kFitSeqFollowingNs[] = "fit_seq_following_ns";
inline constexpr char kFitSeqTweetingNs[] = "fit_seq_tweeting_ns";

// Per-sweep fit health gauges/counters (ISSUE 9): sampler mixing and
// candidate-space occupancy, refreshed each sweep and scraped from
// /metricsz. Rates are parts-per-million so they stay integers.
inline constexpr char kFitHomeFlipPpm[] = "fit_home_flip_ppm";
inline constexpr char kFitMhProposedTotal[] = "fit_mh_proposed_total";
inline constexpr char kFitMhAcceptedTotal[] = "fit_mh_accepted_total";
inline constexpr char kFitMhAcceptPpm[] = "fit_mh_accept_ppm";
inline constexpr char kFitActiveCandidateSlots[] =
    "fit_active_candidate_slots";

// Streaming ingest phases (core::MlpModel::ApplyDelta /
// stream::ApplyDeltaBatch).
inline constexpr char kIngestMergeNs[] = "ingest_merge_ns";
inline constexpr char kIngestMigrateNs[] = "ingest_migrate_ns";
inline constexpr char kIngestResampleNs[] = "ingest_resample_ns";

// Streaming ingest volume counters (stream::ApplyDeltaBatch).
inline constexpr char kIngestBatchesTotal[] = "ingest_batches_total";
inline constexpr char kIngestUsersAddedTotal[] = "ingest_users_added_total";
inline constexpr char kIngestFollowingAddedTotal[] =
    "ingest_following_added_total";
inline constexpr char kIngestTweetingAddedTotal[] =
    "ingest_tweeting_added_total";

// Live ingest+serve daemon (stream::LiveIngestor, ISSUE 10): the spool
// watcher's health surface. Depth is the pending batch-* count per scan;
// apply/swap are per-batch histograms; staleness is now − the swapped
// batch's spool mtime, set at the instant the swap publishes (the
// freshness an operator actually observes). Surfaced on /statusz,
// /statsz and /metricsz.
inline constexpr char kIngestSpoolDepth[] = "ingest_spool_depth";
inline constexpr char kIngestApplyNs[] = "ingest_apply_ns";
inline constexpr char kIngestSwapNs[] = "ingest_swap_ns";
inline constexpr char kIngestLiveBatchesTotal[] = "ingest_live_batches_total";
inline constexpr char kIngestFailedBatchesTotal[] =
    "ingest_failed_batches_total";
inline constexpr char kIngestSwapStalenessMs[] = "ingest_swap_staleness_ms";

/// Canonical bucket bounds for the two live-ingest histograms. The
/// registry is first-caller-wins on bounds, and both stream::LiveIngestor
/// (recording) and serve::ModelServer (/statusz rendering) resolve these
/// names — sharing the bounds here keeps whichever side registers first
/// from truncating the other's buckets. Apply spans ~ms..minutes, swaps
/// ~µs..ms; both record nanoseconds.
inline const std::vector<int64_t>& IngestApplyNsBounds() {
  static const std::vector<int64_t> kBounds = {
      1000000,    5000000,    10000000,   50000000,    100000000,
      500000000,  1000000000, 5000000000, 10000000000, 60000000000};
  return kBounds;
}
inline const std::vector<int64_t>& IngestSwapNsBounds() {
  static const std::vector<int64_t> kBounds = {
      10000,   50000,    100000,   500000,    1000000,
      5000000, 10000000, 100000000, 1000000000};
  return kBounds;
}

/// One row of the per-phase fit report.
struct PhaseRow {
  std::string phase;      // display name, e.g. "shard kernel"
  std::string counter;    // registry counter behind it
  uint64_t raw_ns = 0;    // accumulated ns (worker phases: summed across
                          // threads)
  double wall_ms = 0.0;   // wall-clock-equivalent ms: raw_ns, normalized by
                          // the thread count for worker-side phases, so the
                          // in-sweep rows sum to the sweep wall-clock
  double pct_of_sweep = 0.0;
};

/// The `mlpctl fit --profile` / BENCH_parallel payload: where the sweeps'
/// wall-clock went. In-sweep phases (refresh, kernel, barrier, merge,
/// trace) are constructed to sum to ~100% of sweep wall-clock; prune and
/// the unaccounted remainder are reported alongside.
struct FitProfile {
  uint64_t sweeps = 0;
  double sweep_wall_ms = 0.0;           // total RunSweep wall-clock
  double accounted_pct = 0.0;           // Σ in-sweep phase wall / sweep wall
  std::vector<PhaseRow> rows;           // in-sweep phases, then prune/other
};

/// Diffs two Registry::CounterValues() snapshots taken around a fit and
/// folds the fit_* counters into a per-phase breakdown. `num_threads` is
/// the engine thread count the fit ran with (worker-side phases divide by
/// it to become wall-clock-equivalent). Phases with zero time are kept —
/// a zero is information (e.g. no pruning configured).
FitProfile ComputeFitProfile(const std::map<std::string, uint64_t>& before,
                             const std::map<std::string, uint64_t>& after,
                             int num_threads);

}  // namespace obs
}  // namespace mlp

#endif  // MLP_OBS_FIT_PROFILE_H_
