#ifndef MLP_CORE_MODEL_H_
#define MLP_CORE_MODEL_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "core/candidate_space.h"
#include "core/input.h"
#include "core/model_config.h"
#include "core/sampler.h"

namespace mlp {
namespace core {

/// Position inside Fit's sweep program (rounds × (burn-in + sampling))
/// plus the evolved (α, β). A checkpoint cut at progress P resumed on the
/// same (input, config) replays the exact chain an uninterrupted fit runs.
struct FitProgress {
  int32_t round = 0;          // Gibbs-EM round currently in (0-based)
  int32_t burn_in_done = 0;   // burn-in sweeps finished in this round
  int32_t sampling_done = 0;  // sampling sweeps finished in this round
  double alpha = 0.0;         // evolved power-law slope at the cut
  double beta = 0.0;
};

/// Everything needed to resume a fit exactly where it stopped: the sampler
/// state, the program position, and every RNG stream's exact position.
/// `fingerprint` binds the checkpoint to its (input, config, priors) — Fit
/// refuses to warm-start from a checkpoint taken over different data, a
/// different config (including num_threads) or a different seed.
/// io/model_snapshot.{h,cc} serializes this as the on-disk format.
struct FitCheckpoint {
  MlpConfig config;           // the config the fit was started with
  uint64_t fingerprint = 0;
  bool complete = false;      // the whole sweep program finished
  FitProgress progress;
  SamplerState sampler;
  Pcg32State master_rng;
  std::vector<Pcg32State> shard_rngs;  // one per thread; empty sequential
  /// Candidate-space activation at the cut (sweep-time pruning state). An
  /// empty mask means fully active — the state of every fit that never
  /// pruned, and of every snapshot-v1 checkpoint.
  CandidateActivation activation;
};

/// Optional controls for Fit.
struct FitOptions {
  /// Global sweep budget over the whole program (burn-in + sampling,
  /// summed across Gibbs-EM rounds and across warm-started continuations).
  /// Negative means run to completion. Fit stops after exactly that many
  /// sweeps (every sweep ends merged), fills `checkpoint_out` (if given)
  /// with `complete == false`, and still returns a best-effort result.
  int max_total_sweeps = -1;
  /// Resume from this checkpoint instead of initializing from the priors.
  /// Must match the model's (input, config); validated by fingerprint.
  const FitCheckpoint* warm_start = nullptr;
  /// When non-null, filled with the end-of-run state — complete or not —
  /// so the caller can persist it (io::SaveModelSnapshot) or resume later.
  FitCheckpoint* checkpoint_out = nullptr;
  /// Memory budget for the fit in MB; 0 (default) disables enforcement.
  /// After every burn-in sweep Fit publishes the exact accounted
  /// footprint (candidate space + sampler + engine arenas; the mem_*
  /// gauges in obs), and while it exceeds the budget the pruning schedule
  /// is tightened — the floor ratchets up and patience drops to 1 — so
  /// the next pruning barriers deactivate more candidate slots. Pruning
  /// is the only lever (the model never spills mid-fit), so a budget far
  /// below the working set is settled by pruning's own immunity rules:
  /// the footprint converges to whatever the argmax/support-holding slots
  /// cost. Runtime policy, like max_total_sweeps: not fingerprinted, and
  /// a resumed fit applies whatever budget ITS options carry.
  int mem_budget_mb = 0;
};

/// What one ApplyDelta call did — sizes of the delta, the touched set, and
/// exactly which users/edges were resampled (everything else is carried
/// bit-identically from the base fit). The masks drive the result merge
/// and the untouched-shard identity assertions in tests/stream_test.cpp.
struct DeltaReport {
  int32_t new_users = 0;
  int32_t new_following = 0;
  int32_t new_tweeting = 0;
  /// Existing users whose FULL candidate row changed under the merged
  /// graph (new neighbor evidence → new candidates / reweighted γ).
  int32_t migrated_rows = 0;
  /// Carried assignments whose slot vanished from the merged active row
  /// (redirected to the user's best prior slot before resampling).
  int32_t redirected_assignments = 0;
  int32_t touched_users = 0;    // delta-adjacent users before shard closure
  int32_t shards_touched = 0;
  int32_t shards_total = 0;
  std::vector<uint8_t> user_resampled;       // per merged user
  std::vector<uint8_t> following_resampled;  // per merged following edge
  std::vector<uint8_t> tweeting_resampled;   // per merged tweeting edge
};

/// Identity hash binding a fit to its inputs: every pre-pruning MlpConfig
/// field, the graph's users/edges, the observed-home mask and the derived
/// FULL candidate universe (candidates + γ). Two calls agree iff a
/// checkpoint from one fit can be resumed by the other. The sweep-time
/// pruning knobs are deliberately excluded (see MlpConfig) — the byte
/// stream is unchanged from the pre-CandidateSpace implementation, so v1
/// snapshots keep verifying.
uint64_t FitFingerprint(const ModelInput& input, const MlpConfig& config,
                        const CandidateSpace& space);

/// The multiple location profiling model — the paper's contribution.
///
/// Usage:
///   core::MlpConfig config;                  // MLP (both sources)
///   core::MlpModel model(config);
///   core::ModelInput input = ...;            // graph + observed homes
///   Result<core::MlpResult> result = model.Fit(input);
///
/// Fit() performs the full Sec. 4.5 procedure: learn (α, β) from labeled
/// pairs, build candidacy vectors and priors γ_i, learn the random models
/// F_R/T_R, run collapsed Gibbs (burn-in + averaged sampling sweeps), and
/// optionally alternate with Gibbs-EM rounds that refit (α, β) from the
/// expected assignment distances.
///
/// The FitOptions overload adds checkpoint/warm-start: a fit stopped by
/// `max_total_sweeps` hands back a FitCheckpoint, and a later Fit with
/// `warm_start` pointing at it resumes the chain exactly — the
/// concatenation reproduces the uninterrupted fit bit for bit (same seed,
/// same thread count; see src/io/README.md).
class MlpModel {
 public:
  explicit MlpModel(MlpConfig config) : config_(config) {}

  const MlpConfig& config() const { return config_; }

  Result<MlpResult> Fit(const ModelInput& input);
  Result<MlpResult> Fit(const ModelInput& input, const FitOptions& options);

  /// Streaming delta ingest (ROADMAP "streaming updates"; driven by
  /// src/stream/): absorbs a batch of appended users/relationships into a
  /// fitted model WITHOUT rerunning full inference.
  ///
  /// `base_input` is the world the checkpoint was fitted on;
  /// `merged_input` extends it — same users/edges as a strict prefix, the
  /// delta appended (stream::MergeDelta builds exactly this). The call
  ///   1. validates `options.warm_start` (required) against `base_input`
  ///      by fingerprint,
  ///   2. rebuilds the candidate space over the merged world and migrates
  ///      the base activation onto it — unchanged rows keep their slots
  ///      (and pruned slots stay pruned), stale rows are remapped by city,
  ///      and `layout_version` is bumped so downstream consumers see one
  ///      ingest generation,
  ///   3. adopts the migrated chain (GibbsSampler::AdoptMigratedChain) and
  ///      resamples ONLY the shards touched by the delta — one shard per
  ///      thread (GraphSharder::PartitionGrouped), the touched users packed
  ///      into the fewest — for a fixed 3 burn-in + 5 sampling
  ///      sequential sweeps of the exact kernels from the warm state (a
  ///      short burn absorbs the new evidence, the sampling sweeps average
  ///      the refreshed posteriors; the gap to a full sweep program, times
  ///      the touched-shard fraction, is the streaming-ingest speedup), on
  ///      the checkpoint's master RNG stream (the
  ///      sub-shard streams pass through unchanged; their count must fit
  ///      the thread count),
  ///   4. merges: untouched users/edges keep `base_result`'s rows verbatim
  ///      and their counts bit-identical; touched ones get the refreshed
  ///      posterior.
  /// `options.checkpoint_out` receives a checkpoint bound to the MERGED
  /// input — it round-trips through io::SaveModelSnapshot as an ordinary
  /// v2 snapshot and can be resumed, re-ingested, or served.
  /// An empty delta (merged == base, no row changes) is a strict no-op:
  /// `base_result` and the warm-start checkpoint come back unchanged.
  Result<MlpResult> ApplyDelta(const ModelInput& base_input,
                               const ModelInput& merged_input,
                               const MlpResult& base_result,
                               const FitOptions& options,
                               DeltaReport* report = nullptr);

 private:
  Status ValidateInput(const ModelInput& input) const;

  MlpConfig config_;
};

}  // namespace core
}  // namespace mlp

#endif  // MLP_CORE_MODEL_H_
