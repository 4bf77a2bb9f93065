#include "core/candidate_space.h"

#include <algorithm>

#include "common/logging.h"

namespace mlp {
namespace core {

CandidateSpace CandidateSpace::Build(const ModelInput& input,
                                     const MlpConfig& config) {
  std::vector<UserPrior> priors = BuildPriors(input, config);

  CandidateSpace space;
  const int num_users = static_cast<int>(priors.size());
  space.num_locations_ = input.num_locations();
  space.num_venues_ = config.source == ObservationSource::kFollowingOnly
                          ? 0
                          : input.num_venues();

  space.full_offset_.resize(num_users + 1);
  int64_t offset = 0;
  for (int u = 0; u < num_users; ++u) {
    space.full_offset_[u] = offset;
    offset += priors[u].size();
  }
  space.full_offset_[num_users] = offset;

  space.full_candidates_.reserve(offset);
  space.full_gamma_.reserve(offset);
  space.full_gamma_sum_.reserve(num_users);
  for (const UserPrior& prior : priors) {
    space.full_candidates_.insert(space.full_candidates_.end(),
                                  prior.candidates.begin(),
                                  prior.candidates.end());
    space.full_gamma_.insert(space.full_gamma_.end(), prior.gamma.begin(),
                             prior.gamma.end());
    space.full_gamma_sum_.push_back(prior.gamma_sum);
  }

  space.active_.assign(offset, 1);
  space.cold_streak_.assign(offset, 0);
  space.RebuildActiveView();
  return space;
}

double CandidateSpace::ActiveFraction() const {
  return full_size() == 0
             ? 1.0
             : static_cast<double>(active_size()) /
                   static_cast<double>(full_size());
}

void CandidateSpace::RebuildActiveView() {
  const int num_users = this->num_users();
  layout_.num_users = num_users;
  layout_.num_locations = num_locations_;
  layout_.num_venues = num_venues_;
  layout_.phi_offset.resize(num_users + 1);

  candidates_.clear();
  gamma_.clear();
  gamma_sum_.resize(num_users);
  active_full_idx_.clear();

  int64_t offset = 0;
  for (int u = 0; u < num_users; ++u) {
    layout_.phi_offset[u] = offset;
    const int64_t begin = full_offset_[u];
    const int64_t end = full_offset_[u + 1];
    int kept = 0;
    double kept_gamma = 0.0;
    for (int64_t f = begin; f < end; ++f) {
      if (!active_[f]) continue;
      candidates_.push_back(full_candidates_[f]);
      gamma_.push_back(full_gamma_[f]);
      kept_gamma += full_gamma_[f];
      active_full_idx_.push_back(f);
      ++kept;
    }
    MLP_CHECK(kept > 0 || begin == end);
    if (kept == static_cast<int>(end - begin)) {
      // Row fully active: γ survives untouched, bit-identical to the
      // BuildPriors output (the --no_prune / pre-pruning contract).
      gamma_sum_[u] = full_gamma_sum_[u];
    } else {
      // γ renormalized over the survivors so the row's prior mass (and the
      // θ̃ denominator scale) is preserved through pruning.
      const double scale =
          kept_gamma > 0.0 ? full_gamma_sum_[u] / kept_gamma : 1.0;
      for (int64_t a = offset; a < offset + kept; ++a) gamma_[a] *= scale;
      gamma_sum_[u] = full_gamma_sum_[u];
    }
    offset += kept;
  }
  layout_.phi_offset[num_users] = offset;

  views_.resize(num_users);
  for (int u = 0; u < num_users; ++u) {
    CandidateView& view = views_[u];
    view.candidates = candidates_.data() + layout_.phi_offset[u];
    view.gamma = gamma_.data() + layout_.phi_offset[u];
    view.count = layout_.candidate_count(u);
    view.gamma_sum = gamma_sum_[u];
  }
}

bool CandidateSpace::PruneStep(const SuffStatsArena& stats,
                               const MlpConfig& config, int32_t sweep,
                               CompactionPlan* plan) {
  if (config.prune_floor <= 0.0) return false;
  MLP_CHECK(plan != nullptr);
  MLP_CHECK(stats.layout == &layout_);
  const double floor = config.prune_floor;
  const int patience = std::max(1, config.prune_patience);

  int64_t deactivated = 0;
  const int num_users = this->num_users();
  for (graph::UserId u = 0; u < num_users; ++u) {
    const int64_t off = layout_.phi_offset[u];
    const int n = layout_.candidate_count(u);
    if (n <= 1) continue;
    const double denom = stats.phi_total[u] + gamma_sum_[u];
    if (denom <= 0.0) continue;

    // The current posterior-argmax slot is immune: a user always keeps at
    // least its best-supported candidate.
    int keep = 0;
    double best = -1.0;
    for (int l = 0; l < n; ++l) {
      const double w = stats.phi[off + l] + gamma_[off + l];
      if (w > best) {
        best = w;
        keep = l;
      }
    }

    int alive = n;
    for (int l = 0; l < n; ++l) {
      const int64_t full = active_full_idx_[off + l];
      const double mass = (stats.phi[off + l] + gamma_[off + l]) / denom;
      if (mass >= floor) {
        cold_streak_[full] = 0;
        continue;
      }
      if (++cold_streak_[full] < patience) continue;
      if (l == keep) continue;
      // Never prune a slot with live assignments (so the chain state and
      // the arena never reference a dead slot) or a supervision-boosted
      // slot (an observed home stays a candidate for the whole fit).
      if (stats.phi[off + l] != 0.0) continue;
      if (full_gamma_[full] > config.tau) continue;
      if (alive <= 1) continue;
      active_[full] = 0;
      --alive;
      ++deactivated;
    }
  }
  if (deactivated == 0) return false;

  // Remap over the OLD active layout, computed before the rebuild while
  // active_full_idx_ still describes it.
  plan->old_offset = layout_.phi_offset;
  plan->remap.resize(active_full_idx_.size());
  for (graph::UserId u = 0; u < num_users; ++u) {
    const int64_t off = layout_.phi_offset[u];
    const int n = layout_.candidate_count(u);
    int32_t next = 0;
    for (int l = 0; l < n; ++l) {
      plan->remap[off + l] =
          active_[active_full_idx_[off + l]] ? next++ : -1;
    }
  }

  RebuildActiveView();
  ++version_;
  history_.push_back({sweep, static_cast<int32_t>(deactivated)});
  return true;
}

CandidateActivation CandidateSpace::SaveActivation() const {
  CandidateActivation activation;
  activation.layout_version = version_;
  activation.history = history_;
  // A space that never pruned and carries no live streak counters saves as
  // the canonical "fully active" empty mask — byte-identical semantics to
  // a v1 snapshot, and what keeps unpruned v2 checkpoints v1-expressible.
  const bool pristine =
      version_ == 0 &&
      std::all_of(cold_streak_.begin(), cold_streak_.end(),
                  [](int32_t c) { return c == 0; });
  if (!pristine) {
    activation.active = active_;
    activation.cold_streak = cold_streak_;
  }
  return activation;
}

Status CandidateSpace::RestoreActivation(
    const CandidateActivation& activation) {
  const int64_t full = full_size();
  if (activation.active.empty()) {
    // Fully active — the v1-snapshot interpretation and the state of any
    // fit that never pruned.
    active_.assign(full, 1);
    cold_streak_.assign(full, 0);
  } else {
    if (static_cast<int64_t>(activation.active.size()) != full) {
      return Status::InvalidArgument(
          "candidate activation mask does not match the candidate universe");
    }
    if (!activation.cold_streak.empty() &&
        static_cast<int64_t>(activation.cold_streak.size()) != full) {
      return Status::InvalidArgument(
          "candidate prune counters do not match the candidate universe");
    }
    for (graph::UserId u = 0; u < num_users(); ++u) {
      bool any = full_offset_[u] == full_offset_[u + 1];
      for (int64_t f = full_offset_[u]; f < full_offset_[u + 1] && !any; ++f) {
        any = activation.active[f] != 0;
      }
      if (!any) {
        return Status::InvalidArgument(
            "candidate activation mask leaves a user with no candidates");
      }
    }
    active_.assign(full, 0);
    for (int64_t f = 0; f < full; ++f) active_[f] = activation.active[f] ? 1 : 0;
    if (activation.cold_streak.empty()) {
      cold_streak_.assign(full, 0);
    } else {
      cold_streak_ = activation.cold_streak;
    }
  }
  version_ = activation.layout_version;
  history_ = activation.history;
  RebuildActiveView();
  return Status::OK();
}

void ProposalTables::Bind(const CandidateSpace* space) {
  space_ = space;
  layout_version_ = space->layout_version();
  records_.resize(static_cast<size_t>(space->layout().phi_size()));
}

void ProposalTables::RebuildRange(const SuffStatsArena& arena,
                                  graph::UserId u_begin, graph::UserId u_end,
                                  ProposalBuildScratch* scratch) {
  const SuffStatsLayout& layout = space_->layout();
  for (graph::UserId u = u_begin; u < u_end; ++u) {
    const CandidateView& view = space_->view(u);
    const int64_t off = layout.phi_offset[u];
    FillRow(arena.phi.data() + off, view.gamma, view.candidates, view.count,
            records_.data() + off, scratch);
  }
}

void ProposalTables::FillRow(const double* phi_u, const double* gamma,
                             const geo::CityId* candidates, int n,
                             ProposalRecord* out,
                             ProposalBuildScratch* scratch) {
  scratch->w.resize(n);
  scratch->prob.resize(n);
  scratch->alias.resize(n);
  double* w = scratch->w.data();
  for (int l = 0; l < n; ++l) {
    const double t = phi_u[l] + gamma[l];
    w[l] = t > 0.0 ? t : 0.0;
  }
  stats::AliasTable::BuildInto(w, n, scratch->prob.data(),
                               scratch->alias.data(), &scratch->alias_work);
  for (int l = 0; l < n; ++l) {
    out[l] = ProposalRecord{scratch->prob[l], w[l], gamma[l],
                            scratch->alias[l], candidates[l]};
  }
}

}  // namespace core
}  // namespace mlp
