#include "core/sampler.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "obs/fit_profile.h"
#include "obs/trace.h"

namespace mlp {
namespace core {

namespace {
constexpr int kEdgeDistanceBuckets = 4000;  // 1-mile buckets, CONUS scale

// Independence-MH rounds per assignment draw in the fast following
// kernel. Each round is one O(1) alias proposal + one acceptance test;
// with proposals one sync epoch stale, 3 rounds keep home accuracy within
// ±1% of the exact blocked draw (BENCH_parallel's accuracy keys).
constexpr int kMhRounds = 3;
}

GibbsSampler::GibbsSampler(const ModelInput* input, const MlpConfig* config,
                           const CandidateSpace* space,
                           const RandomModels* random_models,
                           const PowTable* pow_table)
    : input_(input),
      config_(config),
      space_(space),
      random_models_(random_models),
      pow_table_(pow_table) {
  MLP_CHECK(input_ != nullptr && config_ != nullptr && space_ != nullptr);
  MLP_CHECK(random_models_ != nullptr && pow_table_ != nullptr);
  MLP_CHECK(space_->num_users() == input_->num_users());
}

double GibbsSampler::VenueProb(geo::CityId location, graph::VenueId venue,
                               const SuffStatsArena& stats) const {
  const double delta = config_->delta;
  const double v_total = static_cast<double>(input_->num_venues());
  return (stats.venue_row(location)[venue] + delta) /
         (stats.venue_counts_total[location] + delta * v_total);
}

int GibbsSampler::SampleCandidate(const double* weights, int count,
                                  Pcg32* rng) const {
  double total = 0.0;
  for (int i = 0; i < count; ++i) total += weights[i];
  if (total <= 0.0) {
    // All weights underflowed; fall back to uniform.
    return static_cast<int>(rng->UniformU32(static_cast<uint32_t>(count)));
  }
  double target = rng->NextDouble() * total;
  double acc = 0.0;
  for (int i = 0; i < count; ++i) {
    acc += weights[i];
    if (target < acc) return i;
  }
  return count - 1;
}

void GibbsSampler::PrepareBuffers() {
  const graph::SocialGraph& graph = *input_->graph;
  stats_.Reset(&space_->layout());
  if (UseFollowing()) {
    const int s_total = graph.num_following();
    edge_both_labeled_.assign(s_total, 0);
    for (graph::EdgeId s = 0; s < s_total; ++s) {
      const graph::FollowingEdge& edge = graph.following(s);
      edge_both_labeled_[s] =
          input_->IsLabeled(edge.follower) && input_->IsLabeled(edge.friend_user)
              ? 1
              : 0;
    }
  } else {
    edge_both_labeled_.clear();
  }
}

void GibbsSampler::Initialize(Pcg32* rng) {
  const graph::SocialGraph& graph = *input_->graph;
  PrepareBuffers();

  // Seed assignments from the priors (supervised users start mostly at
  // their observed home because of the γ boost), all location-based.
  auto draw_from_prior = [&](graph::UserId u) -> int {
    const CandidateView& view = space_->view(u);
    return SampleCandidate(view.gamma, view.count, rng);
  };

  if (UseFollowing()) {
    const int s_total = graph.num_following();
    mu_.assign(s_total, 0);
    x_idx_.assign(s_total, 0);
    y_idx_.assign(s_total, 0);
    for (graph::EdgeId s = 0; s < s_total; ++s) {
      const graph::FollowingEdge& edge = graph.following(s);
      x_idx_[s] = draw_from_prior(edge.follower);
      y_idx_[s] = draw_from_prior(edge.friend_user);
      stats_.phi_row(edge.follower)[x_idx_[s]] += 1.0;
      stats_.phi_total[edge.follower] += 1.0;
      stats_.phi_row(edge.friend_user)[y_idx_[s]] += 1.0;
      stats_.phi_total[edge.friend_user] += 1.0;
    }
  }
  if (UseTweeting()) {
    const int k_total = graph.num_tweeting();
    nu_.assign(k_total, 0);
    z_idx_.assign(k_total, 0);
    for (graph::EdgeId k = 0; k < k_total; ++k) {
      const graph::TweetingEdge& edge = graph.tweeting(k);
      z_idx_[k] = draw_from_prior(edge.user);
      geo::CityId z = space_->view(edge.user).candidates[z_idx_[k]];
      stats_.phi_row(edge.user)[z_idx_[k]] += 1.0;
      stats_.phi_total[edge.user] += 1.0;
      stats_.venue_row(z)[edge.venue] += 1.0;
      stats_.venue_counts_total[z] += 1.0;
    }
  }

  ResetAccumulators();
  last_homes_ = CurrentHomes();
  home_change_per_sweep_.clear();
}

void GibbsSampler::SampleFollowingEdge(graph::EdgeId s, SuffStatsArena* stats,
                                       GibbsScratch* scratch, Pcg32* rng) {
  const graph::FollowingEdge& edge = input_->graph->following(s);
  const graph::UserId i = edge.follower;
  const graph::UserId j = edge.friend_user;
  const CandidateView& prior_i = space_->view(i);
  const CandidateView& prior_j = space_->view(j);
  const int ni = prior_i.size();
  const int nj = prior_j.size();
  double* phi_i = stats->phi_row(i);
  double* phi_j = stats->phi_row(j);

  // --- remove this relationship's contribution ---
  if (mu_[s] == 0) {
    phi_i[x_idx_[s]] -= 1.0;
    stats->phi_total[i] -= 1.0;
    phi_j[y_idx_[s]] -= 1.0;
    stats->phi_total[j] -= 1.0;
  }

  // Blocked update for (μ_s, x_s, y_s): the μ branch weights marginalize
  // the location model over ALL candidate pairs, which is the collapsed
  // probability of generating the edge from locations (Eqs. 4–5); the
  // conditional form printed in the paper has the same stationary
  // distribution but mixes poorly (the location branch is penalized by the
  // current pair's prior mass while the random branch carries no matching
  // factor). See DESIGN.md.
  //
  // The collapsed P(x = l | rest) weight is (ϕ_{i,l} + γ_{i,l}) up to the
  // constant denominator (ϕ_i + Σγ), which cancels inside a categorical
  // draw but is needed for the μ update — divided out below.
  scratch->a.resize(ni);
  for (int l = 0; l < ni; ++l) scratch->a[l] = phi_i[l] + prior_i.gamma[l];
  scratch->b.resize(nj);
  for (int l = 0; l < nj; ++l) scratch->b[l] = phi_j[l] + prior_j.gamma[l];

  // row[l1] = Σ_{l2} θ̃_j(l2) · d(c_i[l1], c_j[l2])^α.
  scratch->row.assign(ni, 0.0);
  for (int l1 = 0; l1 < ni; ++l1) {
    geo::CityId c1 = prior_i.candidates[l1];
    double acc = 0.0;
    for (int l2 = 0; l2 < nj; ++l2) {
      acc += scratch->b[l2] * pow_table_->Get(c1, prior_j.candidates[l2]);
    }
    scratch->row[l1] = acc;
  }

  // --- sample μ_s ---
  if (config_->model_noise && config_->rho_f > 0.0) {
    double pair_mass = 0.0;  // Σ θ̃_i(l1)·row[l1] = (Σθθd^α)·A_i·A_j
    for (int l1 = 0; l1 < ni; ++l1) {
      pair_mass += scratch->a[l1] * scratch->row[l1];
    }
    double norm = (stats->phi_total[i] + prior_i.gamma_sum) *
                  (stats->phi_total[j] + prior_j.gamma_sum);
    double w_random = config_->rho_f * random_models_->following_prob;
    double w_location =
        (1.0 - config_->rho_f) * config_->beta * pair_mass / norm;
    double denom = w_random + w_location;
    mu_[s] = (denom > 0.0 && rng->Bernoulli(w_random / denom)) ? 1 : 0;
  } else {
    mu_[s] = 0;
  }

  // --- sample (x_s, y_s) ---
  if (mu_[s] == 0) {
    // Joint draw from the grid: x ∝ θ̃_i(l1)·row[l1], then y | x.
    scratch->w.resize(ni);
    for (int l1 = 0; l1 < ni; ++l1) {
      scratch->w[l1] = scratch->a[l1] * scratch->row[l1];
    }
    x_idx_[s] = SampleCandidate(scratch->w.data(), ni, rng);
    geo::CityId cx = prior_i.candidates[x_idx_[s]];
    scratch->w.resize(nj);
    for (int l2 = 0; l2 < nj; ++l2) {
      scratch->w[l2] =
          scratch->b[l2] * pow_table_->Get(cx, prior_j.candidates[l2]);
    }
    y_idx_[s] = SampleCandidate(scratch->w.data(), nj, rng);
    phi_i[x_idx_[s]] += 1.0;
    stats->phi_total[i] += 1.0;
    phi_j[y_idx_[s]] += 1.0;
    stats->phi_total[j] += 1.0;
  } else {
    // Noise branch: assignments stay latent, drawn from the count-prior
    // posterior alone (distance term inactive — Eqs. 7–8 with μ=1).
    x_idx_[s] = SampleCandidate(scratch->a.data(), ni, rng);
    y_idx_[s] = SampleCandidate(scratch->b.data(), nj, rng);
  }
}

void GibbsSampler::SampleTweetingEdge(graph::EdgeId k, SuffStatsArena* stats,
                                      GibbsScratch* scratch, Pcg32* rng) {
  const graph::TweetingEdge& edge = input_->graph->tweeting(k);
  const graph::UserId i = edge.user;
  const graph::VenueId v = edge.venue;
  const CandidateView& prior_i = space_->view(i);
  const int64_t num_venues = space_->layout().num_venues;
  double* phi_i = stats->phi_row(i);

  // --- remove ---
  if (nu_[k] == 0) {
    geo::CityId z = prior_i.candidates[z_idx_[k]];
    phi_i[z_idx_[k]] -= 1.0;
    stats->phi_total[i] -= 1.0;
    stats->venue_row(z)[v] -= 1.0;
    stats->venue_counts_total[z] -= 1.0;
    scratch->venue_cells.push_back(static_cast<int64_t>(z) * num_venues + v);
  }

  const int ni = prior_i.size();
  scratch->a.resize(ni);
  for (int l = 0; l < ni; ++l) scratch->a[l] = phi_i[l] + prior_i.gamma[l];
  // Location-branch weights per candidate: θ̃_i(l)·ψ_l(v).
  scratch->w.resize(ni);
  for (int l = 0; l < ni; ++l) {
    scratch->w[l] =
        scratch->a[l] * VenueProb(prior_i.candidates[l], v, *stats);
  }

  // --- sample ν_k (blocked over z, mirroring the following update) ---
  if (config_->model_noise && config_->rho_t > 0.0) {
    double mass = 0.0;
    for (int l = 0; l < ni; ++l) mass += scratch->w[l];
    double norm = stats->phi_total[i] + prior_i.gamma_sum;
    double w_random = config_->rho_t * random_models_->venue_prob[v];
    double w_location = (1.0 - config_->rho_t) * mass / norm;
    double denom = w_random + w_location;
    nu_[k] = (denom > 0.0 && rng->Bernoulli(w_random / denom)) ? 1 : 0;
  } else {
    nu_[k] = 0;
  }

  // --- sample z_{k,i} (Eq. 9) ---
  if (nu_[k] == 0) {
    z_idx_[k] = SampleCandidate(scratch->w.data(), ni, rng);
    geo::CityId z = prior_i.candidates[z_idx_[k]];
    phi_i[z_idx_[k]] += 1.0;
    stats->phi_total[i] += 1.0;
    stats->venue_row(z)[v] += 1.0;
    stats->venue_counts_total[z] += 1.0;
    scratch->venue_cells.push_back(static_cast<int64_t>(z) * num_venues + v);
  } else {
    z_idx_[k] = SampleCandidate(scratch->a.data(), ni, rng);
  }
}

int GibbsSampler::MhResampleSlot(const ProposalRecord* row, int n,
                                 const double* phi_u, int cur,
                                 geo::CityId anchor, Pcg32* rng,
                                 GibbsScratch* scratch) const {
  if (n <= 1) return 0;
  auto target = [&](int l) {
    double t = phi_u[l] + row[l].gamma;
    // A fit's counts never go negative, but RestoreState does not
    // sign-check a snapshot's; a clamped target keeps the accept test sane.
    if (t < 0.0) t = 0.0;
    if (anchor != geo::kInvalidCity) {
      t *= pow_table_->Get(row[l].city, anchor);
    }
    return t;
  };
  double t_cur = target(cur);
  double w_cur = row[cur].w;
  for (int round = 0; round < kMhRounds; ++round) {
    const int prop = ProposalTables::Draw(row, n, rng);
    if (prop == cur) continue;
    const double t_prop = target(prop);
    const double w_prop = row[prop].w;
    const double num = t_prop * w_cur;
    const double den = t_cur * w_prop;
    // Accept with min(1, num/den); a zero-mass current state always moves
    // to any positive-mass proposal.
    const bool accept =
        den > 0.0 ? rng->NextDouble() * den < num : num > 0.0;
    // Mixing tallies (plain ints, no RNG impact): acceptance rate per
    // sweep is a fit-health gauge on /metricsz.
    if (scratch != nullptr) {
      ++scratch->mh_proposed;
      scratch->mh_accepted += accept ? 1 : 0;
    }
    if (accept) {
      cur = prop;
      t_cur = t_prop;
      w_cur = w_prop;
    }
  }
  return cur;
}

void GibbsSampler::SampleFollowingEdgeFast(graph::EdgeId s,
                                           SuffStatsArena* stats,
                                           GibbsScratch* scratch, Pcg32* rng,
                                           const ProposalTables& proposals) {
  const graph::FollowingEdge& edge = input_->graph->following(s);
  const graph::UserId i = edge.follower;
  const graph::UserId j = edge.friend_user;
  const SuffStatsLayout& layout = space_->layout();
  const int n_i = layout.candidate_count(i);
  const int n_j = layout.candidate_count(j);
  const ProposalRecord* row_i = proposals.row(i);
  const ProposalRecord* row_j = proposals.row(j);
  double* phi_i = stats->phi_row(i);
  double* phi_j = stats->phi_row(j);

  // --- remove this relationship's contribution ---
  if (mu_[s] == 0) {
    phi_i[x_idx_[s]] -= 1.0;
    stats->phi_total[i] -= 1.0;
    phi_j[y_idx_[s]] -= 1.0;
    stats->phi_total[j] -= 1.0;
  }

  // --- μ | x, y: O(1) ---
  // With latent assignments treated as auxiliary draws from θ̃ (matching
  // the blocked kernel's noise branch), every θ̃ factor cancels between
  // the branches and only the edge-generation terms remain.
  geo::CityId cx = row_i[x_idx_[s]].city;
  const geo::CityId cy = row_j[y_idx_[s]].city;
  if (config_->model_noise && config_->rho_f > 0.0) {
    const double w_random = config_->rho_f * random_models_->following_prob;
    const double w_location =
        (1.0 - config_->rho_f) * config_->beta * pow_table_->Get(cx, cy);
    const double denom = w_random + w_location;
    mu_[s] = (denom > 0.0 && rng->Bernoulli(w_random / denom)) ? 1 : 0;
  } else {
    mu_[s] = 0;
  }

  // --- x | μ, y then y | μ, x via alias-MH rounds ---
  const bool located = mu_[s] == 0;
  x_idx_[s] = MhResampleSlot(row_i, n_i, phi_i, x_idx_[s],
                             located ? cy : geo::kInvalidCity, rng, scratch);
  cx = row_i[x_idx_[s]].city;
  y_idx_[s] = MhResampleSlot(row_j, n_j, phi_j, y_idx_[s],
                             located ? cx : geo::kInvalidCity, rng, scratch);

  if (located) {
    phi_i[x_idx_[s]] += 1.0;
    stats->phi_total[i] += 1.0;
    phi_j[y_idx_[s]] += 1.0;
    stats->phi_total[j] += 1.0;
  }
}

void GibbsSampler::RunSweep(Pcg32* rng) {
  if (UseFollowing()) {
    obs::ScopedSpan span(
        obs::Registry::Global().GetCounter(obs::kFitSeqFollowingNs),
        "seq_following");
    for (graph::EdgeId s = 0; s < input_->graph->num_following(); ++s) {
      SampleFollowingEdge(s, &stats_, &scratch_, rng);
    }
  }
  if (UseTweeting()) {
    obs::ScopedSpan span(
        obs::Registry::Global().GetCounter(obs::kFitSeqTweetingNs),
        "seq_tweeting");
    for (graph::EdgeId k = 0; k < input_->graph->num_tweeting(); ++k) {
      SampleTweetingEdge(k, &stats_, &scratch_, rng);
    }
    scratch_.venue_cells.clear();  // no fold reads it on this path
  }
  RecordSweepTrace();
}

void GibbsSampler::RecordSweepTrace() {
  // Main-thread and O(users × candidates) per sweep — timed under its own
  // counter because it competes with the parallel engine's merge barrier.
  static obs::Counter* const trace_ns =
      obs::Registry::Global().GetCounter(obs::kFitTraceRecordNs);
  obs::ScopedSpan span(trace_ns, "sweep_trace_record");
  // Convergence trace: fraction of users whose current home flipped.
  std::vector<geo::CityId> homes = CurrentHomes();
  int changed = 0;
  for (size_t u = 0; u < homes.size(); ++u) {
    if (homes[u] != last_homes_[u]) ++changed;
  }
  const double flip_rate =
      homes.empty() ? 0.0
                    : static_cast<double>(changed) /
                          static_cast<double>(homes.size());
  home_change_per_sweep_.push_back(flip_rate);
  last_homes_ = std::move(homes);
  // Fit-health gauges (ISSUE 9): last-sweep home flip rate (ppm, so the
  // integer gauge keeps 6 digits of precision) and live candidate-space
  // occupancy — visible on /metricsz while a fit or ingest-refit runs.
  if (obs::Enabled()) {
    static obs::Gauge* const flip_ppm =
        obs::Registry::Global().GetGauge(obs::kFitHomeFlipPpm);
    static obs::Gauge* const active_slots =
        obs::Registry::Global().GetGauge(obs::kFitActiveCandidateSlots);
    flip_ppm->Set(static_cast<int64_t>(flip_rate * 1e6));
    active_slots->Set(space_->active_size());
  }
}

int64_t GibbsSampler::AccountedBytes() const {
  auto ragged_bytes = [](const std::vector<std::vector<float>>& rows) {
    int64_t total = VectorBytes(rows);
    for (const auto& row : rows) total += VectorBytes(row);
    return total;
  };
  return VectorBytes(mu_) + VectorBytes(x_idx_) + VectorBytes(y_idx_) +
         VectorBytes(nu_) + VectorBytes(z_idx_) + stats_.AccountedBytes() +
         VectorBytes(acc_phi_) + ragged_bytes(acc_x_) + ragged_bytes(acc_y_) +
         VectorBytes(acc_mu_) + ragged_bytes(acc_z_) + VectorBytes(acc_nu_) +
         VectorBytes(acc_edge_distance_) + VectorBytes(edge_both_labeled_) +
         VectorBytes(last_homes_) + VectorBytes(home_change_per_sweep_);
}

void GibbsSampler::ResetAccumulators() {
  accumulated_samples_ = 0;
  acc_phi_.assign(space_->layout().phi_size(), 0.0);
  acc_x_.assign(x_idx_.size(), {});
  acc_y_.assign(y_idx_.size(), {});
  acc_mu_.assign(mu_.size(), 0.0);
  acc_z_.assign(z_idx_.size(), {});
  acc_nu_.assign(nu_.size(), 0.0);
  acc_edge_distance_.assign(kEdgeDistanceBuckets, 0.0);
}

void GibbsSampler::AccumulateSample() {
  ++accumulated_samples_;
  // Both buffers share the arena layout: one flat fused pass.
  const double* phi = stats_.phi.data();
  double* acc = acc_phi_.data();
  const int64_t n = space_->layout().phi_size();
  for (int64_t idx = 0; idx < n; ++idx) acc[idx] += phi[idx];

  const graph::SocialGraph& graph = *input_->graph;
  for (size_t s = 0; s < mu_.size(); ++s) {
    const graph::FollowingEdge& edge =
        graph.following(static_cast<graph::EdgeId>(s));
    if (acc_x_[s].empty()) {
      acc_x_[s].assign(space_->view(edge.follower).size(), 0.0f);
      acc_y_[s].assign(space_->view(edge.friend_user).size(), 0.0f);
    }
    acc_x_[s][x_idx_[s]] += 1.0f;
    acc_y_[s][y_idx_[s]] += 1.0f;
    acc_mu_[s] += mu_[s];
    if (mu_[s] == 0 && edge_both_labeled_[s]) {
      geo::CityId cx = space_->view(edge.follower).candidates[x_idx_[s]];
      geo::CityId cy = space_->view(edge.friend_user).candidates[y_idx_[s]];
      double d = input_->distances->miles(cx, cy);
      int bucket = static_cast<int>(d);
      if (bucket >= 0 && bucket < kEdgeDistanceBuckets) {
        acc_edge_distance_[bucket] += 1.0;
      }
    }
  }
  for (size_t k = 0; k < nu_.size(); ++k) {
    const graph::TweetingEdge& edge =
        graph.tweeting(static_cast<graph::EdgeId>(k));
    if (acc_z_[k].empty()) {
      acc_z_[k].assign(space_->view(edge.user).size(), 0.0f);
    }
    acc_z_[k][z_idx_[k]] += 1.0f;
    acc_nu_[k] += nu_[k];
  }
}

std::vector<geo::CityId> GibbsSampler::CurrentHomes() const {
  std::vector<geo::CityId> homes(input_->num_users(), geo::kInvalidCity);
  for (graph::UserId u = 0; u < input_->num_users(); ++u) {
    const CandidateView& prior = space_->view(u);
    const double* phi_u = stats_.phi_row(u);
    double best = -1.0;
    for (int l = 0; l < prior.size(); ++l) {
      double w = phi_u[l] + prior.gamma[l];
      if (w > best) {
        best = w;
        homes[u] = prior.candidates[l];
      }
    }
  }
  return homes;
}

std::vector<double> GibbsSampler::AssignmentDistanceHistogram(
    int num_buckets) const {
  std::vector<double> hist(num_buckets, 0.0);
  if (accumulated_samples_ == 0) return hist;
  double scale = 1.0 / static_cast<double>(accumulated_samples_);
  int n = std::min(num_buckets, kEdgeDistanceBuckets);
  for (int b = 0; b < n; ++b) {
    hist[b] = acc_edge_distance_[b] * scale;
  }
  return hist;
}

MlpResult GibbsSampler::BuildResult() const {
  MlpResult result;
  const int num_users = input_->num_users();
  const double samples =
      accumulated_samples_ > 0 ? static_cast<double>(accumulated_samples_)
                               : 1.0;

  result.profiles.reserve(num_users);
  result.home.resize(num_users);
  for (graph::UserId u = 0; u < num_users; ++u) {
    const CandidateView& prior = space_->view(u);
    const double* phi_u = stats_.phi_row(u);
    const double* acc_u = acc_phi_.data() + space_->layout().phi_offset[u];
    std::vector<std::pair<geo::CityId, double>> entries;
    entries.reserve(prior.size());
    double denom = 0.0;
    for (int l = 0; l < prior.size(); ++l) {
      double phi_avg =
          accumulated_samples_ > 0 ? acc_u[l] / samples : phi_u[l];
      denom += phi_avg + prior.gamma[l];
    }
    for (int l = 0; l < prior.size(); ++l) {
      double phi_avg =
          accumulated_samples_ > 0 ? acc_u[l] / samples : phi_u[l];
      // Eq. 10: p(l|θ_i) = (ϕ_{i,l} + γ_{i,l}) / (ϕ_i + Σ_l γ_{i,l}).
      entries.emplace_back(prior.candidates[l],
                           (phi_avg + prior.gamma[l]) / denom);
    }
    LocationProfile profile(std::move(entries));
    result.home[u] = profile.Home();
    result.profiles.push_back(std::move(profile));
  }

  const graph::SocialGraph& graph = *input_->graph;
  result.following.resize(mu_.size());
  for (size_t s = 0; s < mu_.size(); ++s) {
    const graph::FollowingEdge& edge =
        graph.following(static_cast<graph::EdgeId>(s));
    FollowingExplanation& ex = result.following[s];
    const CandidateView& prior_i = space_->view(edge.follower);
    const CandidateView& prior_j = space_->view(edge.friend_user);
    if (accumulated_samples_ > 0 && !acc_x_[s].empty()) {
      int bx = static_cast<int>(std::max_element(acc_x_[s].begin(),
                                                 acc_x_[s].end()) -
                                acc_x_[s].begin());
      int by = static_cast<int>(std::max_element(acc_y_[s].begin(),
                                                 acc_y_[s].end()) -
                                acc_y_[s].begin());
      ex.x = prior_i.candidates[bx];
      ex.y = prior_j.candidates[by];
      ex.noise_prob = acc_mu_[s] / samples;
    } else {
      ex.x = prior_i.candidates[x_idx_[s]];
      ex.y = prior_j.candidates[y_idx_[s]];
      ex.noise_prob = mu_[s];
    }
  }

  result.tweeting.resize(nu_.size());
  for (size_t k = 0; k < nu_.size(); ++k) {
    const graph::TweetingEdge& edge =
        graph.tweeting(static_cast<graph::EdgeId>(k));
    TweetExplanation& ex = result.tweeting[k];
    const CandidateView& prior_i = space_->view(edge.user);
    if (accumulated_samples_ > 0 && !acc_z_[k].empty()) {
      int bz = static_cast<int>(std::max_element(acc_z_[k].begin(),
                                                 acc_z_[k].end()) -
                                acc_z_[k].begin());
      ex.z = prior_i.candidates[bz];
      ex.noise_prob = acc_nu_[k] / samples;
    } else {
      ex.z = prior_i.candidates[z_idx_[k]];
      ex.noise_prob = nu_[k];
    }
  }

  result.alpha = pow_table_->alpha();
  result.beta = config_->beta;
  result.home_change_per_sweep = home_change_per_sweep_;
  return result;
}

void GibbsSampler::ApplyCompaction(const CompactionPlan& plan) {
  const SuffStatsLayout& layout = space_->layout();  // already compacted
  const int num_users = input_->num_users();
  MLP_CHECK(static_cast<int>(plan.old_offset.size()) == num_users + 1);
  MLP_CHECK(plan.remap.size() == stats_.phi.size());

  // Move ϕ into the compacted layout. Pruned slots are guaranteed empty by
  // CandidateSpace::PruneStep, so no mass is lost and phi_total stands.
  std::vector<double> new_phi(layout.phi_size(), 0.0);
  for (graph::UserId u = 0; u < num_users; ++u) {
    const int64_t old_off = plan.old_offset[u];
    const int old_n = static_cast<int>(plan.old_offset[u + 1] - old_off);
    const int64_t new_off = layout.phi_offset[u];
    for (int l = 0; l < old_n; ++l) {
      const int32_t nl = plan.remap[old_off + l];
      if (nl >= 0) {
        new_phi[new_off + nl] = stats_.phi[old_off + l];
      } else {
        MLP_CHECK(stats_.phi[old_off + l] == 0.0);
      }
    }
  }
  stats_.phi = std::move(new_phi);
  // phi_total and the venue buffers are slot-independent: untouched.

  // Latent (noise-flagged) assignments may reference a pruned slot; they
  // carry no counts, so redirect them to the user's best surviving slot.
  // Deterministic: argmax of (ϕ+γ) over the new row, lowest slot on ties.
  std::vector<int32_t> fallback(num_users, -1);
  auto fallback_slot = [&](graph::UserId u) -> int32_t {
    if (fallback[u] >= 0) return fallback[u];
    const CandidateView& view = space_->view(u);
    const double* phi_u = stats_.phi_row(u);
    int best_l = 0;
    double best = -1.0;
    for (int l = 0; l < view.size(); ++l) {
      const double w = phi_u[l] + view.gamma[l];
      if (w > best) {
        best = w;
        best_l = l;
      }
    }
    fallback[u] = best_l;
    return best_l;
  };
  auto remap_idx = [&](graph::UserId u, int32_t old_local) -> int32_t {
    const int32_t nl = plan.remap[plan.old_offset[u] + old_local];
    return nl >= 0 ? nl : fallback_slot(u);
  };

  const graph::SocialGraph& graph = *input_->graph;
  for (size_t s = 0; s < mu_.size(); ++s) {
    const graph::FollowingEdge& edge =
        graph.following(static_cast<graph::EdgeId>(s));
    x_idx_[s] = remap_idx(edge.follower, x_idx_[s]);
    y_idx_[s] = remap_idx(edge.friend_user, y_idx_[s]);
  }
  for (size_t k = 0; k < nu_.size(); ++k) {
    const graph::TweetingEdge& edge =
        graph.tweeting(static_cast<graph::EdgeId>(k));
    z_idx_[k] = remap_idx(edge.user, z_idx_[k]);
  }

  // The averaged posterior must be over one fixed support: compaction
  // happens at burn-in barriers, and any partially filled accumulators
  // (possible only for a Gibbs-EM round already consumed by the M-step)
  // are re-zeroed onto the new layout.
  ResetAccumulators();
}

void GibbsSampler::SaveState(SamplerState* state) const {
  state->mu = mu_;
  state->x_idx = x_idx_;
  state->y_idx = y_idx_;
  state->nu = nu_;
  state->z_idx = z_idx_;
  state->phi = stats_.phi;
  state->phi_total = stats_.phi_total;
  state->venue_counts = stats_.venue_counts;
  state->venue_counts_total = stats_.venue_counts_total;
  state->accumulated_samples = accumulated_samples_;
  state->acc_phi = acc_phi_;
  state->acc_x = acc_x_;
  state->acc_y = acc_y_;
  state->acc_mu = acc_mu_;
  state->acc_z = acc_z_;
  state->acc_nu = acc_nu_;
  state->acc_edge_distance = acc_edge_distance_;
  state->last_homes = last_homes_;
  state->home_change_per_sweep = home_change_per_sweep_;
}

Status GibbsSampler::RestoreState(const SamplerState& state) {
  const graph::SocialGraph& graph = *input_->graph;
  const size_t s_total = UseFollowing() ? graph.num_following() : 0;
  const size_t k_total = UseTweeting() ? graph.num_tweeting() : 0;

  // Validate against the space's active layout before mutating anything —
  // the caller restores the space's activation state first, so this is the
  // exact layout the saved arena was laid out over.
  const SuffStatsLayout& layout = space_->layout();
  if (state.mu.size() != s_total || state.x_idx.size() != s_total ||
      state.y_idx.size() != s_total || state.nu.size() != k_total ||
      state.z_idx.size() != k_total) {
    return Status::InvalidArgument(
        "sampler state does not match the graph's relationship counts");
  }
  if (static_cast<int64_t>(state.phi.size()) != layout.phi_size() ||
      state.phi_total.size() != static_cast<size_t>(layout.num_users) ||
      static_cast<int64_t>(state.venue_counts.size()) != layout.venue_size() ||
      state.venue_counts_total.size() !=
          static_cast<size_t>(layout.num_venues > 0 ? layout.num_locations
                                                    : 0)) {
    return Status::InvalidArgument(
        "sampler state does not match the candidate space's active layout");
  }
  if (state.acc_edge_distance.size() !=
      static_cast<size_t>(kEdgeDistanceBuckets)) {
    return Status::InvalidArgument("sampler state histogram malformed");
  }
  if (state.acc_phi.size() != state.phi.size() ||
      state.acc_x.size() != s_total || state.acc_y.size() != s_total ||
      state.acc_mu.size() != s_total || state.acc_z.size() != k_total ||
      state.acc_nu.size() != k_total ||
      state.last_homes.size() != static_cast<size_t>(layout.num_users)) {
    return Status::InvalidArgument("sampler state accumulators malformed");
  }
  for (size_t s = 0; s < s_total; ++s) {
    const graph::FollowingEdge& edge =
        graph.following(static_cast<graph::EdgeId>(s));
    if (state.x_idx[s] < 0 ||
        state.x_idx[s] >= space_->view(edge.follower).size() ||
        state.y_idx[s] < 0 ||
        state.y_idx[s] >= space_->view(edge.friend_user).size()) {
      return Status::InvalidArgument("assignment index out of candidate range");
    }
  }
  for (size_t k = 0; k < k_total; ++k) {
    const graph::TweetingEdge& edge =
        graph.tweeting(static_cast<graph::EdgeId>(k));
    if (state.z_idx[k] < 0 ||
        state.z_idx[k] >= space_->view(edge.user).size()) {
      return Status::InvalidArgument("assignment index out of candidate range");
    }
  }

  PrepareBuffers();
  mu_ = state.mu;
  x_idx_ = state.x_idx;
  y_idx_ = state.y_idx;
  nu_ = state.nu;
  z_idx_ = state.z_idx;
  stats_.phi = state.phi;
  stats_.phi_total = state.phi_total;
  stats_.venue_counts = state.venue_counts;
  stats_.venue_counts_total = state.venue_counts_total;
  accumulated_samples_ = state.accumulated_samples;
  acc_phi_ = state.acc_phi;
  acc_x_ = state.acc_x;
  acc_y_ = state.acc_y;
  acc_mu_ = state.acc_mu;
  acc_z_ = state.acc_z;
  acc_nu_ = state.acc_nu;
  acc_edge_distance_ = state.acc_edge_distance;
  last_homes_ = state.last_homes;
  home_change_per_sweep_ = state.home_change_per_sweep;
  return Status::OK();
}

Status GibbsSampler::AdoptMigratedChain(const MigratedChain& chain,
                                        Pcg32* rng) {
  const graph::SocialGraph& graph = *input_->graph;
  const size_t s_total = UseFollowing() ? graph.num_following() : 0;
  const size_t k_total = UseTweeting() ? graph.num_tweeting() : 0;
  const size_t s_old = chain.mu.size();
  const size_t k_old = chain.nu.size();

  if (chain.x_idx.size() != s_old || chain.y_idx.size() != s_old ||
      chain.z_idx.size() != k_old || s_old > s_total || k_old > k_total) {
    return Status::InvalidArgument(
        "migrated chain does not cover a prefix of the merged graph");
  }
  // Every carried assignment must be a valid slot of the merged space's
  // active row — the migration remapped (or redirected) them already, so a
  // violation here means the caller paired the chain with a foreign space.
  for (size_t s = 0; s < s_old; ++s) {
    const graph::FollowingEdge& edge =
        graph.following(static_cast<graph::EdgeId>(s));
    if (chain.x_idx[s] < 0 ||
        chain.x_idx[s] >= space_->view(edge.follower).size() ||
        chain.y_idx[s] < 0 ||
        chain.y_idx[s] >= space_->view(edge.friend_user).size()) {
      return Status::InvalidArgument(
          "migrated assignment index out of candidate range");
    }
  }
  for (size_t k = 0; k < k_old; ++k) {
    const graph::TweetingEdge& edge =
        graph.tweeting(static_cast<graph::EdgeId>(k));
    if (chain.z_idx[k] < 0 ||
        chain.z_idx[k] >= space_->view(edge.user).size()) {
      return Status::InvalidArgument(
          "migrated assignment index out of candidate range");
    }
  }

  PrepareBuffers();  // zeroes the arena onto the (merged) active layout

  auto draw_from_prior = [&](graph::UserId u) -> int {
    const CandidateView& view = space_->view(u);
    return SampleCandidate(view.gamma, view.count, rng);
  };

  if (UseFollowing()) {
    mu_ = chain.mu;
    x_idx_ = chain.x_idx;
    y_idx_ = chain.y_idx;
    mu_.resize(s_total, 0);
    x_idx_.resize(s_total, 0);
    y_idx_.resize(s_total, 0);
    // Appended edges start location-based from the priors, exactly like
    // Initialize — they land in touched shards, so the resample pass
    // re-draws them against the warm counts immediately.
    for (size_t s = s_old; s < s_total; ++s) {
      const graph::FollowingEdge& edge =
          graph.following(static_cast<graph::EdgeId>(s));
      x_idx_[s] = draw_from_prior(edge.follower);
      y_idx_[s] = draw_from_prior(edge.friend_user);
    }
    // Rebuild ϕ from the full chain. Counts are integer-valued doubles, so
    // users whose edges and assignments the delta left alone get rows bit-
    // identical to the base fit's arena.
    for (size_t s = 0; s < s_total; ++s) {
      if (mu_[s] != 0) continue;
      const graph::FollowingEdge& edge =
          graph.following(static_cast<graph::EdgeId>(s));
      stats_.phi_row(edge.follower)[x_idx_[s]] += 1.0;
      stats_.phi_total[edge.follower] += 1.0;
      stats_.phi_row(edge.friend_user)[y_idx_[s]] += 1.0;
      stats_.phi_total[edge.friend_user] += 1.0;
    }
  }
  if (UseTweeting()) {
    nu_ = chain.nu;
    z_idx_ = chain.z_idx;
    nu_.resize(k_total, 0);
    z_idx_.resize(k_total, 0);
    for (size_t k = k_old; k < k_total; ++k) {
      const graph::TweetingEdge& edge =
          graph.tweeting(static_cast<graph::EdgeId>(k));
      z_idx_[k] = draw_from_prior(edge.user);
    }
    for (size_t k = 0; k < k_total; ++k) {
      if (nu_[k] != 0) continue;
      const graph::TweetingEdge& edge =
          graph.tweeting(static_cast<graph::EdgeId>(k));
      geo::CityId z = space_->view(edge.user).candidates[z_idx_[k]];
      stats_.phi_row(edge.user)[z_idx_[k]] += 1.0;
      stats_.phi_total[edge.user] += 1.0;
      stats_.venue_row(z)[edge.venue] += 1.0;
      stats_.venue_counts_total[z] += 1.0;
    }
  }

  ResetAccumulators();
  last_homes_ = CurrentHomes();
  home_change_per_sweep_ = chain.home_change_per_sweep;
  return Status::OK();
}

}  // namespace core
}  // namespace mlp
