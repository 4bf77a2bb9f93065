#ifndef MLP_CORE_CANDIDATE_SPACE_H_
#define MLP_CORE_CANDIDATE_SPACE_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/input.h"
#include "core/model_config.h"
#include "core/priors.h"
#include "core/suff_stats.h"
#include "stats/alias_table.h"

namespace mlp {
namespace core {

/// Read-only view of one user's ACTIVE candidate row inside a
/// CandidateSpace: sorted candidate cities, their (renormalized) γ prior
/// and its sum. The pointers alias the space's flat buffers and are
/// refreshed by every compaction — hold the space, not the view, across
/// sync barriers.
struct CandidateView {
  const geo::CityId* candidates = nullptr;
  const double* gamma = nullptr;
  int count = 0;
  double gamma_sum = 0.0;

  int size() const { return count; }
  /// Active slot of `city`, or -1. Same binary search as every other
  /// candidate→slot lookup (FindCandidateSlot).
  int IndexOf(geo::CityId city) const {
    return FindCandidateSlot(candidates, count, city);
  }
};

/// One sweep-time pruning compaction, kept for observability and persisted
/// in snapshot v2 so a resumed fit knows the full deactivation lineage.
struct PruneEvent {
  int32_t sweep = 0;        // global sweep index the barrier fired at
  int32_t deactivated = 0;  // slots deactivated at that barrier
};

/// The persistable activation state of a CandidateSpace, relative to the
/// FULL universe (which is a pure function of (input, config) and is never
/// stored). An empty `active` mask means "fully active" — exactly how
/// snapshot v1 files, which predate pruning, are interpreted.
struct CandidateActivation {
  std::vector<uint8_t> active;       // per full slot; empty = all active
  std::vector<int32_t> cold_streak;  // per full slot; empty = all zero
  uint64_t layout_version = 0;
  std::vector<PruneEvent> history;
};

/// Slot remapping produced by one PruneStep compaction, expressed over the
/// PREVIOUS active layout so the sampler can move its arena values and
/// chain indices into the new one.
struct CompactionPlan {
  std::vector<int64_t> old_offset;  // active CSR prefix before compaction
  std::vector<int32_t> remap;       // old active slot -> new local index, -1
};

/// Single owner of the candidate universe (ISSUE 3 / ROADMAP "candidate-set
/// pruning"). Holds, for every user:
///   - the FULL candidate row built once from the Sec-4.3 candidacy rules
///     (BuildPriors) — immutable, rebuildable from (input, config), and the
///     thing FitFingerprint binds a checkpoint to;
///   - a per-slot ACTIVE mask plus the derived compacted CSR (sorted
///     cities, renormalized γ, per-user γ sums) that the sampler, the
///     SuffStatsArena layout, the engine's shard costs and the snapshot's
///     candidate section are all views of;
///   - a monotonically increasing `layout_version` bumped by every
///     compaction, so downstream consumers (engine replicas today,
///     streaming updates and the serving layer per ROADMAP) can detect a
///     stale layout instead of desynchronizing.
///
/// Ownership rule: nothing else copies the candidate lists. UserPrior is
/// the construction-time artifact consumed by Build; GibbsSampler,
/// SuffStatsArena (through layout()), ParallelGibbsEngine and
/// io::MakeModelSnapshot all read through this class.
class CandidateSpace {
 public:
  /// Builds the full universe via BuildPriors(input, config) and starts
  /// fully active (layout_version 0). The active view is then bit-identical
  /// to the priors BuildPriors returned.
  static CandidateSpace Build(const ModelInput& input, const MlpConfig& config);

  CandidateSpace() = default;
  /// Move-only: views_ holds raw pointers into the flat buffers, which
  /// vector moves preserve but copies would leave aliasing the source.
  CandidateSpace(CandidateSpace&&) = default;
  CandidateSpace& operator=(CandidateSpace&&) = default;
  CandidateSpace(const CandidateSpace&) = delete;
  CandidateSpace& operator=(const CandidateSpace&) = delete;

  // ---- full (immutable) universe ----
  int num_users() const { return static_cast<int>(full_offset_.size()) - 1; }
  int64_t full_size() const { return full_offset_.back(); }
  int full_count(graph::UserId u) const {
    return static_cast<int>(full_offset_[u + 1] - full_offset_[u]);
  }
  const geo::CityId* full_row(graph::UserId u) const {
    return full_candidates_.data() + full_offset_[u];
  }
  const double* full_gamma_row(graph::UserId u) const {
    return full_gamma_.data() + full_offset_[u];
  }
  double full_gamma_sum(graph::UserId u) const { return full_gamma_sum_[u]; }

  // ---- active view ----
  /// Arena shape over the active slots. The object lives inside the space,
  /// so arenas bound to &layout() stay bound across compactions (the
  /// offsets mutate in place; value buffers are rebuilt by the sampler).
  const SuffStatsLayout& layout() const { return layout_; }
  const CandidateView& view(graph::UserId u) const { return views_[u]; }
  uint64_t layout_version() const { return version_; }
  int64_t active_size() const { return layout_.phi_size(); }
  /// Fraction of the full universe still active (1.0 before any prune).
  double ActiveFraction() const;
  const std::vector<PruneEvent>& history() const { return history_; }

  /// Active slot of `city` for user `u`, or -1. THE candidate→slot lookup:
  /// all callers route through here (or the view's IndexOf) so there is a
  /// single binary-search implementation in the codebase.
  int SlotOf(graph::UserId u, geo::CityId city) const {
    return views_[u].IndexOf(city);
  }

  // ---- adaptive pruning ----
  /// One sync-barrier pruning pass against the merged global counts:
  /// updates every active slot's below-floor streak ((ϕ+γ)/(ϕ_tot+Σγ)
  /// against config.prune_floor) and deactivates slots cold for
  /// config.prune_patience consecutive barriers. A slot survives
  /// unconditionally while it holds live assignments (ϕ > 0), is the
  /// user's current posterior argmax, or carries a supervision-boosted γ.
  /// Returns true iff anything was deactivated, in which case the active
  /// view has been compacted, γ renormalized over the survivors (per-user
  /// Σγ preserved), `layout_version` bumped, and `plan` filled so the
  /// sampler can follow (GibbsSampler::ApplyCompaction).
  bool PruneStep(const SuffStatsArena& stats, const MlpConfig& config,
                 int32_t sweep, CompactionPlan* plan);

  /// Exact allocated bytes of the space: full universe, activation state
  /// and the derived active view (offsets, candidates, γ, per-user views).
  int64_t AccountedBytes() const {
    return VectorBytes(full_offset_) + VectorBytes(full_candidates_) +
           VectorBytes(full_gamma_) + VectorBytes(full_gamma_sum_) +
           VectorBytes(active_) + VectorBytes(cold_streak_) +
           VectorBytes(history_) + VectorBytes(layout_.phi_offset) +
           VectorBytes(candidates_) + VectorBytes(gamma_) +
           VectorBytes(gamma_sum_) + VectorBytes(active_full_idx_) +
           VectorBytes(views_);
  }

  // ---- persistence (snapshot v2) ----
  CandidateActivation SaveActivation() const;
  /// Restores a persisted activation state onto a freshly built space:
  /// validates the mask against the full universe, then rebuilds the
  /// compacted view. An empty mask (v1 snapshots) restores fully active.
  Status RestoreActivation(const CandidateActivation& activation);

 private:
  /// Rebuilds the active CSR, γ (renormalized when a row lost slots) and
  /// the per-user views from the mask.
  void RebuildActiveView();

  // Full universe (set once by Build).
  std::vector<int64_t> full_offset_;
  std::vector<geo::CityId> full_candidates_;
  std::vector<double> full_gamma_;
  std::vector<double> full_gamma_sum_;
  int32_t num_locations_ = 0;
  int32_t num_venues_ = 0;

  // Activation state.
  std::vector<uint8_t> active_;       // per full slot
  std::vector<int32_t> cold_streak_;  // per full slot
  uint64_t version_ = 0;
  std::vector<PruneEvent> history_;

  // Derived active view.
  SuffStatsLayout layout_;
  std::vector<geo::CityId> candidates_;    // flat, active slots
  std::vector<double> gamma_;              // flat, active slots
  std::vector<double> gamma_sum_;          // per user
  std::vector<int64_t> active_full_idx_;   // active slot -> full slot
  std::vector<CandidateView> views_;
};

/// One candidate slot's read-only alias-MH data, packed so a proposal
/// touches one record instead of five parallel arrays: the alias bucket
/// (`prob`, `alias`) the draw lands in, and the accept test's stale weight
/// `w`, prior `gamma` and candidate `city` for the slot it proposes.
/// 32 bytes — two records per 64-byte cache line.
struct ProposalRecord {
  double prob;     // alias acceptance probability of this bucket
  double w;        // stale weight max(0, ϕ+γ) the row was built from
  double gamma;    // active-view γ of this slot (CandidateView::gamma)
  int32_t alias;   // alias slot of this bucket
  geo::CityId city;  // candidate city of this slot (CandidateView::candidates)
};
static_assert(sizeof(ProposalRecord) == 32,
              "two proposal records per 64-byte cache line");

/// Row buffers for ProposalTables::FillRow: the stale weights and alias
/// buckets are built contiguously here, then scattered into the records.
/// One per rebuilding thread, so rows allocate once per epoch, not per user.
struct ProposalBuildScratch {
  std::vector<double> w;
  std::vector<double> prob;
  std::vector<int32_t> alias;
  stats::AliasBuildScratch alias_work;
};

/// Per-user O(1) proposal draws for the parallel engine's alias-MH
/// following kernel (GibbsSampler::SampleFollowingEdgeFast): one Walker
/// alias table per ACTIVE candidate row, built from epoch-stale θ̃ weights
/// (ϕ + γ at the last merged sync barrier) and stored as one flat
/// ProposalRecord array laid out like the arena (`layout.phi_offset`), so
/// a user's row is `row(u)[0..count)`.
///
/// Each record carries the stale weight next to its alias bucket so the
/// Metropolis–Hastings acceptance ratio can correct the staleness exactly:
/// proposals are drawn from the stale distribution, the target uses live
/// replica counts, and α = min(1, t(l')·ŵ(l) / (t(l)·ŵ(l'))) keeps the
/// chain's stationary distribution exact for the current counts. γ > 0 on
/// every active slot (BuildPriors floors it at config.tau), so the stale
/// proposal's support always covers the target's. The record's `gamma` and
/// `city` are copies of the active view, valid for the layout the row was
/// built against.
///
/// Epoch-rebuild invariants (see src/engine/README.md): the engine rebuilds
/// every row at each merged sync barrier, after every compaction (the
/// layout changed — Bind first), and after a warm-start restore. Rebuilds
/// of disjoint user ranges are thread-safe; draws are safe concurrently
/// with no writer.
class ProposalTables {
 public:
  /// (Re)binds to the space's current active layout and sizes the record
  /// array. Rows hold garbage until RebuildRange covers them.
  void Bind(const CandidateSpace* space);

  bool bound() const { return space_ != nullptr; }
  uint64_t layout_version() const { return layout_version_; }

  /// Rebuilds users [u_begin, u_end) from the merged counts in `arena`.
  void RebuildRange(const SuffStatsArena& arena, graph::UserId u_begin,
                    graph::UserId u_end, ProposalBuildScratch* scratch);

  /// Fills one row of `n` records from live counts `phi_u` and the active
  /// view's `gamma`/`candidates`. Weights are ϕ + γ clamped at zero (a
  /// fit's counts never go negative, but a restored snapshot's are not
  /// sign-checked, and alias buckets need non-negative weights); the alias
  /// buckets are AliasTable::BuildInto's over those weights.
  static void FillRow(const double* phi_u, const double* gamma,
                      const geo::CityId* candidates, int n,
                      ProposalRecord* out, ProposalBuildScratch* scratch);

  /// One O(1) alias draw of a slot from a row of `n` ≥ 1 records: a bucket
  /// pick, then its acceptance test — the same two draws, in the same
  /// order, as stats::AliasTable::SampleFrom.
  static int Draw(const ProposalRecord* row, int n, Pcg32* rng) {
    const int bucket =
        static_cast<int>(rng->UniformU32(static_cast<uint32_t>(n)));
    return rng->NextDouble() < row[bucket].prob ? bucket : row[bucket].alias;
  }

  /// User `u`'s row: `layout.candidate_count(u)` records.
  const ProposalRecord* row(graph::UserId u) const {
    return records_.data() + space_->layout().phi_offset[u];
  }

  int64_t AccountedBytes() const { return VectorBytes(records_); }

 private:
  const CandidateSpace* space_ = nullptr;
  uint64_t layout_version_ = 0;
  std::vector<ProposalRecord> records_;  // flat, layout.phi_size()
};

}  // namespace core
}  // namespace mlp

#endif  // MLP_CORE_CANDIDATE_SPACE_H_
