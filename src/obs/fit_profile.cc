#include "obs/fit_profile.h"

namespace mlp {
namespace obs {

namespace {

uint64_t Delta(const std::map<std::string, uint64_t>& before,
               const std::map<std::string, uint64_t>& after,
               const std::string& name) {
  uint64_t b = 0;
  uint64_t a = 0;
  auto it = before.find(name);
  if (it != before.end()) b = it->second;
  it = after.find(name);
  if (it != after.end()) a = it->second;
  return a > b ? a - b : 0;
}

double ToMs(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

FitProfile ComputeFitProfile(const std::map<std::string, uint64_t>& before,
                             const std::map<std::string, uint64_t>& after,
                             int num_threads) {
  if (num_threads < 1) num_threads = 1;
  FitProfile profile;
  profile.sweeps = Delta(before, after, kFitSweepsTotal);
  const uint64_t sweep_ns = Delta(before, after, kFitSweepNs);
  profile.sweep_wall_ms = ToMs(sweep_ns);

  // In-sweep phases. Worker-side counters (refresh, alias rebuild, kernel,
  // fold, barrier wait, merge — everything the engine runs inside a
  // parallel section) accumulate across all threads, so their
  // wall-clock-equivalent divides by the thread count; main-thread phases
  // pass through unchanged. The sequential-engine kernels (seq
  // following/tweeting) are main-thread by construction. With this
  // normalization the rows below sum to the sweep wall-clock minus loop
  // overhead (~100%).
  struct Spec {
    const char* display;
    const char* counter;
    bool per_thread;
  };
  static const Spec kInSweep[] = {
      {"replica refresh", kFitReplicaRefreshNs, true},
      {"alias rebuild", kFitAliasRebuildNs, true},
      {"shard kernel", kFitShardKernelNs, true},
      {"delta fold", kFitDeltaFoldNs, true},
      {"barrier wait", kFitBarrierWaitNs, true},
      {"delta merge", kFitDeltaMergeNs, true},
      {"sweep trace record", kFitTraceRecordNs, false},
      {"seq following kernel", kFitSeqFollowingNs, false},
      {"seq tweeting kernel", kFitSeqTweetingNs, false},
  };

  double accounted_ms = 0.0;
  for (const Spec& spec : kInSweep) {
    PhaseRow row;
    row.phase = spec.display;
    row.counter = spec.counter;
    row.raw_ns = Delta(before, after, spec.counter);
    row.wall_ms =
        ToMs(row.raw_ns) / (spec.per_thread ? num_threads : 1);
    row.pct_of_sweep = profile.sweep_wall_ms > 0.0
                           ? 100.0 * row.wall_ms / profile.sweep_wall_ms
                           : 0.0;
    accounted_ms += row.wall_ms;
    profile.rows.push_back(std::move(row));
  }
  profile.accounted_pct = profile.sweep_wall_ms > 0.0
                              ? 100.0 * accounted_ms / profile.sweep_wall_ms
                              : 0.0;

  // Unaccounted remainder of the sweep loop (scheduling, bookkeeping).
  PhaseRow other;
  other.phase = "other (unattributed)";
  other.counter = "-";
  other.wall_ms = profile.sweep_wall_ms > accounted_ms
                      ? profile.sweep_wall_ms - accounted_ms
                      : 0.0;
  other.pct_of_sweep = profile.sweep_wall_ms > 0.0
                           ? 100.0 * other.wall_ms / profile.sweep_wall_ms
                           : 0.0;
  profile.rows.push_back(std::move(other));

  // Prune, rebalance and the posterior accumulate run between sweeps,
  // outside fit_sweep_ns; report them with percentages relative to sweep
  // time for scale, not as part of the 100%. Keeping them in separate
  // counters (ISSUE 7) means the prune row measures PruneStep + the sampler
  // compaction only, and the scheduler's reshard + touch-set rebuild shows
  // up as its own phase. The accumulate folds each sampling sweep's chain
  // state into the posterior accumulators, single-threaded.
  static const Spec kBetweenSweeps[] = {
      {"candidate prune (between sweeps)", kFitPruneNs, false},
      {"shard rebalance (between sweeps)", kFitRebalanceNs, false},
      {"posterior accumulate (between sweeps)", kFitAccumulateNs, false},
  };
  for (const Spec& spec : kBetweenSweeps) {
    PhaseRow row;
    row.phase = spec.display;
    row.counter = spec.counter;
    row.raw_ns = Delta(before, after, spec.counter);
    row.wall_ms = ToMs(row.raw_ns);
    row.pct_of_sweep = profile.sweep_wall_ms > 0.0
                           ? 100.0 * row.wall_ms / profile.sweep_wall_ms
                           : 0.0;
    profile.rows.push_back(std::move(row));
  }

  return profile;
}

}  // namespace obs
}  // namespace mlp
