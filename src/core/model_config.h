#ifndef MLP_CORE_MODEL_CONFIG_H_
#define MLP_CORE_MODEL_CONFIG_H_

#include <cstdint>

namespace mlp {
namespace core {

/// Which observations the model consumes. The paper's MLP_U uses following
/// relationships only, MLP_C tweeting relationships only, MLP both.
enum class ObservationSource {
  kFollowingOnly,
  kTweetingOnly,
  kBoth,
};

/// All model parameters Ω plus inference knobs. Defaults follow the paper:
/// α=-0.55, β=0.0045 learned in Sec. 4.1; τ=0.1 ("previous studies show
/// hyper parameters below 1 prefer sparse distributions"); Gibbs converges
/// in ~14 iterations (Fig. 5).
///
/// Snapshot contract: every field below is (a) serialized verbatim by
/// io/model_snapshot.{h,cc} and (b) mixed into core::FitFingerprint, which
/// gates warm-starting a checkpoint. Adding a field means bumping
/// io::kModelSnapshotVersion and extending both functions — a field left
/// out of the fingerprint would let a checkpoint silently resume under a
/// different sweep program. Deliberate exception: the sweep-time pruning
/// knobs (prune_floor, prune_patience) are serialized but NOT
/// fingerprinted — they are a runtime policy over the same candidate
/// universe, and excluding them is what lets v1 (pre-pruning) snapshots
/// resume and lets a resume turn pruning on/off mid-program
/// (mlpctl resume --prune_floor / --no_prune).
struct MlpConfig {
  ObservationSource source = ObservationSource::kBoth;

  // ---- location-based following model F_L (Eq. 1) ----
  double alpha = -0.55;
  double beta = 0.0045;
  /// Re-learn (α, β) from the observed labeled pairs before inference,
  /// exactly as Sec. 4.1 learns them from the crawl. The hardcoded defaults
  /// above are the paper's values and only apply when this is off.
  bool fit_power_law_from_data = true;

  // ---- noise mixture (Sec. 4.2) ----
  /// P(model selector = random) for following / tweeting relationships.
  double rho_f = 0.10;
  double rho_t = 0.10;
  /// Ablation: disable the random-model mixture entirely (every
  /// relationship is forced location-based, as in the baselines).
  bool model_noise = true;

  // ---- priors (Sec. 4.3) ----
  /// τ: prior mass for each candidate location in the candidacy vector.
  double tau = 0.1;
  /// Λ's diagonal: how much an observed home location boosts its prior
  /// (γ_i = η_i × Λ × γ + τ·λ_i). Expressed directly as added pseudocounts.
  double supervision_boost = 50.0;
  /// δ: symmetric Dirichlet prior on the per-location tweeting models ψ_l.
  double delta = 0.05;
  /// Ablation: when false, every user's candidate set is all of L.
  bool use_candidacy = true;
  /// Ablation: when false, observed home locations do not boost priors
  /// (the model runs "unsupervised" like LDA/MMSB; Sec. 4.3 predicts the
  /// clusters then float).
  bool use_supervision = true;
  /// Candidate-set fallback for users with no observed neighbor locations:
  /// the top-k most populous cities (statistical prior, not supervision).
  int fallback_top_cities = 10;
  /// Cap on a user's candidate set. High-degree accounts (celebrities) can
  /// observe hundreds of distinct neighbor locations; keeping the most
  /// frequently observed ones bounds the blocked Gibbs update's cost. The
  /// user's own observed home always survives the cap.
  int max_candidates = 60;

  // ---- Gibbs / Gibbs-EM (Sec. 4.5) ----
  int burn_in_iterations = 10;
  /// Post-burn-in sweeps whose samples are averaged into θ and the
  /// per-relationship explanations.
  int sampling_iterations = 20;
  /// Outer Gibbs-EM rounds that refit (α, β) from expected assignment
  /// distances; 0 keeps the initial fit.
  int gibbs_em_rounds = 0;
  /// M-step damping in (0, 1]: the refit moves (α, log β) this fraction of
  /// the way toward the new fit. Undamped refits are self-reinforcing —
  /// a steeper α concentrates the very assignments the next fit is made
  /// from — so 1.0 diverges within a few rounds.
  double em_damping = 0.3;
  uint64_t seed = 1234;

  /// Distance floor in miles for the power law (the paper buckets at
  /// 1-mile granularity; β·d^α diverges at 0).
  double distance_floor_miles = 1.0;

  // ---- parallel inference (src/engine/) ----
  /// Gibbs worker threads. 1 runs the exact sequential sampler; N > 1
  /// shards users across N workers with AD-LDA-style delta merging
  /// (approximate but deterministic for fixed N; see src/engine/README.md).
  /// Every parallel sweep ends in a merge. The snapshot and the
  /// fingerprint keep a retired int32 slot after this field that always
  /// holds 1 (it held the merge cadence, now fixed at every sweep).
  int num_threads = 1;

  // ---- adaptive candidate pruning (core/candidate_space.h) ----
  /// Posterior-mass floor for sweep-time candidate pruning: at every
  /// burn-in sweep's merge barrier, an active candidate whose posterior mass
  /// (ϕ+γ)/(ϕ_total+Σγ) has stayed below this floor for `prune_patience`
  /// consecutive barriers is deactivated and the arena compacted, shrinking
  /// the blocked update's O(|cand_i|·|cand_j|) inner loop. 0 (the default)
  /// disables pruning entirely — the fit is then bit-identical to the
  /// pre-pruning code path.
  double prune_floor = 0.0;
  /// Consecutive below-floor barriers before a candidate is deactivated.
  int prune_patience = 3;
};

}  // namespace core
}  // namespace mlp

#endif  // MLP_CORE_MODEL_CONFIG_H_
