#ifndef MLP_CORE_SAMPLER_H_
#define MLP_CORE_SAMPLER_H_

#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/candidate_space.h"
#include "core/input.h"
#include "core/location_profile.h"
#include "core/model_config.h"
#include "core/pow_table.h"
#include "core/random_models.h"
#include "core/suff_stats.h"

namespace mlp {
namespace core {

/// Estimated explanation of one following relationship: the posterior-mode
/// location assignments (x̂, ŷ) and the posterior probability that the
/// relationship is noise (μ=1).
struct FollowingExplanation {
  geo::CityId x = geo::kInvalidCity;
  geo::CityId y = geo::kInvalidCity;
  double noise_prob = 0.0;
};

/// Estimated explanation of one tweeting relationship.
struct TweetExplanation {
  geo::CityId z = geo::kInvalidCity;
  double noise_prob = 0.0;
};

/// Full inference output.
struct MlpResult {
  std::vector<LocationProfile> profiles;         // θ̂_i per user (Eq. 10)
  std::vector<geo::CityId> home;                 // argmax of θ̂_i
  std::vector<FollowingExplanation> following;   // per following edge
  std::vector<TweetExplanation> tweeting;        // per tweeting edge
  double alpha = 0.0;                            // final power-law exponent
  double beta = 0.0;
  /// Per-sweep fraction of users whose home estimate changed (the
  /// convergence trace behind Fig. 5), one entry per sweep at every
  /// thread count (the parallel engine merges after every sweep).
  std::vector<double> home_change_per_sweep;
};

/// Reusable buffers for the per-edge sampling kernels. Each caller (the
/// sequential sweep, or one engine worker per shard) owns one, which makes
/// the kernels re-entrant without per-edge allocation — every categorical
/// draw samples straight out of these buffers (SampleCandidate takes a raw
/// span), so the hot path never constructs a weights vector.
struct GibbsScratch {
  std::vector<double> w;    // categorical weights under construction
  std::vector<double> a;    // θ̃ weights of the follower / tweeter
  std::vector<double> b;    // θ̃ weights of the friend
  std::vector<double> row;  // distance-marginalized row sums
  /// Flat venue_counts cells written by SampleTweetingEdge since the
  /// caller last cleared it. The engine's sub-shard delta fold walks
  /// exactly this dirty set (plus the owned users' ϕ rows) instead of the
  /// whole location×venue rectangle; single-stream sweeps clear it once
  /// per sweep.
  std::vector<int64_t> venue_cells;
  /// Alias-MH mixing tallies of the following kernel for this worker since
  /// the engine last folded them: proposals that differed from the current
  /// assignment, and how many of those were accepted. Plain ints — the
  /// owner is single-threaded; the engine folds them into fit_mh_*_total
  /// at the merge barrier.
  int64_t mh_proposed = 0;
  int64_t mh_accepted = 0;
};

/// The sampler's complete restorable state: chain assignments, arena
/// values, post-burn-in accumulators and the convergence trace. Everything
/// here plus (input, config, candidate space incl. its activation state)
/// reproduces the chain exactly — io/model_snapshot.{h,cc} serializes it
/// for checkpoint / warm-start. Buffers derivable from the input
/// (edge_both_labeled_, scratch, the layout prefix itself) are rebuilt by
/// RestoreState instead of stored.
struct SamplerState {
  // Chain state.
  std::vector<uint8_t> mu;
  std::vector<int32_t> x_idx;
  std::vector<int32_t> y_idx;
  std::vector<uint8_t> nu;
  std::vector<int32_t> z_idx;
  // Arena values (flat, in layout order).
  std::vector<double> phi;
  std::vector<double> phi_total;
  std::vector<double> venue_counts;
  std::vector<double> venue_counts_total;
  // Post-burn-in accumulators.
  int32_t accumulated_samples = 0;
  std::vector<double> acc_phi;  // flat, layout order
  std::vector<std::vector<float>> acc_x;
  std::vector<std::vector<float>> acc_y;
  std::vector<double> acc_mu;
  std::vector<std::vector<float>> acc_z;
  std::vector<double> acc_nu;
  std::vector<double> acc_edge_distance;
  // Convergence trace.
  std::vector<geo::CityId> last_homes;
  std::vector<double> home_change_per_sweep;
};

/// Chain state of a BASE fit remapped onto a merged (delta-ingested)
/// candidate space: per-edge vectors sized to the OLD graph's edge counts
/// (the merged graph's edge prefix), with every assignment index already a
/// local slot of the merged space's ACTIVE row for that user. Consumed by
/// GibbsSampler::AdoptMigratedChain during streaming ingest (src/stream/).
struct MigratedChain {
  std::vector<uint8_t> mu;
  std::vector<int32_t> x_idx;
  std::vector<int32_t> y_idx;
  std::vector<uint8_t> nu;
  std::vector<int32_t> z_idx;
  /// Convergence trace carried over from the base fit, so an ingested
  /// snapshot keeps the full Fig-5 history.
  std::vector<double> home_change_per_sweep;
};

/// Collapsed Gibbs sampler for MLP (Sec. 4.5). θ and ψ are integrated out;
/// the chain state is the model selectors (μ, ν) and location assignments
/// (x, y, z) of every relationship, with sufficient statistics
/// ϕ_{i,l} (per-user assignment counts over candidates, location-based
/// relationships only) and φ_{l,v} (per-location venue counts), both held
/// in a flat SuffStatsArena.
///
/// The candidate universe (which locations a user can be assigned to, and
/// their γ priors) is owned by core::CandidateSpace; the sampler holds
/// views into its ACTIVE layout and follows compactions via
/// ApplyCompaction. Assignment indices (x/y/z) are always local slots of
/// the active row of their user.
///
/// One sweep resamples, for each following relationship, μ_s (Eq. 5) then
/// x_{s,i} (Eq. 7) then y_{s,j} (Eq. 8), and for each tweeting relationship
/// ν_k (Eq. 6) then z_{k,i} (Eq. 9). Assignments of noise-flagged
/// relationships stay latent but are excluded from ϕ/φ, per the joint
/// (Eq. 4) where their generation terms carry exponent (1-μ).
class GibbsSampler {
 public:
  /// All pointers must outlive the sampler. `space` must be built over the
  /// same (input, config).
  GibbsSampler(const ModelInput* input, const MlpConfig* config,
               const CandidateSpace* space, const RandomModels* random_models,
               const PowTable* pow_table);

  /// Draws initial assignments from the priors and builds the counts.
  void Initialize(Pcg32* rng);

  /// One full Gibbs sweep. Appends to the convergence trace.
  void RunSweep(Pcg32* rng);

  /// Clears the post-burn-in accumulators (call between Gibbs-EM rounds).
  void ResetAccumulators();

  /// Adds the current state into the θ/explanation/EM accumulators.
  void AccumulateSample();

  /// Home estimate per user from the *current* counts (used for the
  /// convergence trace and by callers that probe mid-run state).
  std::vector<geo::CityId> CurrentHomes() const;

  /// Averaged 1-mile histogram of assignment distances d(x̂_s, ŷ_s) of
  /// location-based following relationships — the Gibbs-EM E-step quantity.
  /// Only edges between two LABELED users accumulate, so the ratio against
  /// the labeled pair histogram compares consistent populations.
  std::vector<double> AssignmentDistanceHistogram(int num_buckets) const;

  /// Builds the final result from the accumulators (falls back to the
  /// current state when nothing was accumulated).
  MlpResult BuildResult() const;

  int accumulated_samples() const { return accumulated_samples_; }

  // ---- checkpoint / warm-start API (used by core::MlpModel and io/) ----

  /// Copies the complete restorable state out of the sampler.
  void SaveState(SamplerState* state) const;

  /// Restores a state captured by SaveState on a sampler built over the
  /// same (input, config, candidate space) — the space's activation state
  /// must already be restored, since every size below is validated against
  /// its active layout. Replaces Initialize — no RNG draws. Fails (without
  /// touching *this) when any piece of the state disagrees with the current
  /// layout or graph shape.
  Status RestoreState(const SamplerState& state);

  // ---- streaming delta ingest (used by core::MlpModel::ApplyDelta) ----

  /// Adopts a migrated chain over a merged graph: `chain` covers the old
  /// graph's edge prefix (indices already remapped onto this sampler's
  /// space), the appended edges draw initial assignments from the priors
  /// using `rng` exactly as Initialize does, and ϕ/φ are rebuilt from the
  /// full chain. Counts are integer-valued, so edges the delta never
  /// touches reproduce their users' arena rows bit for bit. Accumulators
  /// reset; the convergence trace continues from the carried history.
  /// Replaces Initialize/RestoreState for the ingest path.
  Status AdoptMigratedChain(const MigratedChain& chain, Pcg32* rng);

  // ---- candidate-space compaction (used by engine::ParallelGibbsEngine) --

  /// Follows a CandidateSpace::PruneStep compaction: moves the arena's ϕ
  /// values into the compacted layout (pruned slots are guaranteed to hold
  /// zero counts), remaps every assignment index, redirects latent
  /// (noise-flagged) assignments whose slot was pruned to the user's best
  /// surviving slot, and resets the post-burn-in accumulators to the new
  /// layout. Only call at a merged sync barrier.
  void ApplyCompaction(const CompactionPlan& plan);

  // ---- engine API (used by engine::ParallelGibbsEngine) ----
  //
  // The per-edge kernels resample one relationship against the given
  // statistics replica. They write the edge's chain state (μ/ν and the
  // assignment indices) directly — edges are partitioned across shards, so
  // concurrent callers never touch the same slot — while all count updates
  // go to `stats`, which may be a thread-local replica. Passing
  // `&this->stats()`'s owner (via mutable_stats()) and one scratch
  // reproduces the sequential sweep exactly.

  /// Resamples (μ_s, x_s, y_s) for one following relationship.
  void SampleFollowingEdge(graph::EdgeId s, SuffStatsArena* stats,
                           GibbsScratch* scratch, Pcg32* rng);

  /// Resamples (ν_k, z_k) for one tweeting relationship, blocked over z
  /// like the following update. Appends the venue cells it decrements and
  /// increments to scratch->venue_cells (callers clear it).
  void SampleTweetingEdge(graph::EdgeId k, SuffStatsArena* stats,
                          GibbsScratch* scratch, Pcg32* rng);

  // ---- alias-MH following kernel (parallel engine hot path) ----
  //
  // The same (μ_s, x_s, y_s) conditionals, restructured so the work per
  // edge is O(1) plus a constant number of Metropolis–Hastings rounds,
  // instead of the blocked update's O(n_i · n_j) grid marginalization:
  //
  //   1. μ is resampled CONDITIONED on the current assignments. Treating
  //     the latent assignments of noise-flagged edges as auxiliary
  //     variables drawn from θ̃ (exactly what the blocked kernel does), the
  //     θ̃ factors cancel between the branches and the odds collapse to
  //     p(μ=1)/p(μ=0) = ρ_f·R_f / ((1−ρ_f)·β·d^α(c_x, c_y)) — one PowTable
  //     read, no marginalization. Integrating the auxiliary draws back out
  //     recovers the blocked kernel's stationary distribution.
  //   2. x | μ, y then y | μ, x are resampled by a few independence-MH
  //     rounds: proposals come from the epoch-stale per-user alias tables
  //     (O(1) each), and the acceptance ratio
  //     α = min(1, t(l')·ŵ(l) / (t(l)·ŵ(l'))) corrects the staleness
  //     against the live target t(l) = (ϕ+γ)(l) · d^α.
  //
  // The unblocked draws mix more slowly than the blocked kernel and keep
  // more posterior mass on users' home locations. Only the parallel engine
  // runs this kernel; sequential sweeps run the exact kernels for both
  // edge kinds, and tweeting edges run SampleTweetingEdge at every thread
  // count.

  /// Fast (μ_s, x_s, y_s) resample. `proposals` must be built over this
  /// sampler's space at the current layout.
  void SampleFollowingEdgeFast(graph::EdgeId s, SuffStatsArena* stats,
                               GibbsScratch* scratch, Pcg32* rng,
                               const ProposalTables& proposals);

  /// Independence-MH rounds for one assignment slot over a user's `n`
  /// proposal records (ProposalTables::row) and live counts `phi_u`.
  /// Target t(l) = max(0, ϕ_u[l]+γ[l]) · d^α(c_l, anchor) — pass
  /// geo::kInvalidCity to drop the distance factor (latent / noise-branch
  /// draws). Every read of the accept test except ϕ and d^α comes from the
  /// records. `scratch` (may be null) tallies proposed/accepted moves for
  /// the mixing gauges; the RNG stream is untouched by the tallies. Public
  /// so tests can replay it draw-for-draw against a reference.
  int MhResampleSlot(const ProposalRecord* row, int n, const double* phi_u,
                     int cur, geo::CityId anchor, Pcg32* rng,
                     GibbsScratch* scratch) const;

  /// The shared arena shape — a reference into the candidate space, which
  /// owns it (stable address across compactions).
  const SuffStatsLayout& layout() const { return space_->layout(); }

  /// The candidate space this sampler reads through.
  const CandidateSpace& space() const { return *space_; }

  /// The global sufficient statistics.
  const SuffStatsArena& stats() const { return stats_; }
  SuffStatsArena* mutable_stats() { return &stats_; }

  /// Appends one entry to the convergence trace from the current global
  /// counts. RunSweep calls this itself; the parallel engine calls it after
  /// each delta merge.
  void RecordSweepTrace();

  /// Exact allocated bytes of the sampler: chain state, the global arena,
  /// and the post-burn-in accumulators (including the ragged per-edge
  /// rows — an O(edges) walk, so call at barriers, not per edge).
  int64_t AccountedBytes() const;

  bool UseFollowing() const {
    return config_->source != ObservationSource::kTweetingOnly;
  }
  bool UseTweeting() const {
    return config_->source != ObservationSource::kFollowingOnly;
  }

 private:
  /// Builds the arena binding and the input-derived per-edge buffers —
  /// everything Initialize sets up that does not consume randomness.
  void PrepareBuffers();

  double VenueProb(geo::CityId location, graph::VenueId venue,
                   const SuffStatsArena& stats) const;

  /// Categorical draw over `weights[0..count)`. Raw span so the hot path
  /// (and prior rows living inside CandidateSpace) sample without building
  /// a vector per draw; callers reuse GibbsScratch buffers.
  int SampleCandidate(const double* weights, int count, Pcg32* rng) const;

  const ModelInput* input_;
  const MlpConfig* config_;
  const CandidateSpace* space_;
  const RandomModels* random_models_;
  const PowTable* pow_table_;

  // Chain state.
  std::vector<uint8_t> mu_;      // per following edge
  std::vector<int32_t> x_idx_;   // active slot in follower's candidate row
  std::vector<int32_t> y_idx_;   // active slot in friend's candidate row
  std::vector<uint8_t> nu_;      // per tweeting edge
  std::vector<int32_t> z_idx_;   // active slot in tweeter's candidate row

  // Global sufficient statistics (bound to space_->layout()).
  SuffStatsArena stats_;

  // Post-burn-in accumulators. acc_phi_ shares the arena layout.
  int accumulated_samples_ = 0;
  std::vector<double> acc_phi_;
  std::vector<std::vector<float>> acc_x_;   // [edge][candidate of follower]
  std::vector<std::vector<float>> acc_y_;
  std::vector<double> acc_mu_;
  std::vector<std::vector<float>> acc_z_;
  std::vector<double> acc_nu_;
  std::vector<double> acc_edge_distance_;   // 1-mile histogram
  std::vector<uint8_t> edge_both_labeled_;  // per following edge

  // Convergence trace.
  std::vector<geo::CityId> last_homes_;
  std::vector<double> home_change_per_sweep_;

  GibbsScratch scratch_;
};

}  // namespace core
}  // namespace mlp

#endif  // MLP_CORE_SAMPLER_H_
