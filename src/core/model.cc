#include "core/model.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"
#include "common/logging.h"
#include "core/candidate_space.h"
#include "core/pair_distance.h"
#include "core/pow_table.h"
#include "core/random_models.h"
#include "engine/parallel_gibbs.h"
#include "obs/fit_profile.h"
#include "obs/metrics.h"
#include "obs/process_stats.h"
#include "obs/trace.h"

namespace mlp {
namespace core {

namespace {
constexpr int kEmHistogramBuckets = 3000;  // 1-mile buckets
constexpr double kEmMinPairs = 50.0;
constexpr double kAlphaMin = -2.0;
constexpr double kAlphaMax = -0.05;

// Memory-budget pruning escalation (FitOptions::mem_budget_mb): the first
// over-budget barrier turns pruning on at kBudgetInitialFloor; every
// further over-budget barrier multiplies the floor, capped where pruning
// would start eating clearly-supported slots.
constexpr double kBudgetInitialFloor = 0.02;
constexpr double kBudgetFloorGrowth = 1.5;
constexpr double kBudgetMaxFloor = 0.5;

// ApplyDelta's warm resample over the touched shards: a short burn absorbs
// the new evidence, then sampling sweeps average the refreshed posteriors.
constexpr int kDeltaBurnSweeps = 3;
constexpr int kDeltaSamplingSweeps = 5;
}  // namespace

uint64_t FitFingerprint(const ModelInput& input, const MlpConfig& config,
                        const CandidateSpace& space) {
  Fnv1a64 f;
  // Config — every pre-pruning field, so a checkpoint can only resume the
  // exact same sweep program (thread count and seed included). The pruning
  // knobs stay out: they are sweep-time policy over this same universe,
  // and the byte stream below must stay identical to the pre-pruning
  // format so v1 snapshots keep verifying.
  f.Value<int32_t>(static_cast<int32_t>(config.source));
  f.Value(config.alpha);
  f.Value(config.beta);
  f.Value<uint8_t>(config.fit_power_law_from_data);
  f.Value(config.rho_f);
  f.Value(config.rho_t);
  f.Value<uint8_t>(config.model_noise);
  f.Value(config.tau);
  f.Value(config.supervision_boost);
  f.Value(config.delta);
  f.Value<uint8_t>(config.use_candidacy);
  f.Value<uint8_t>(config.use_supervision);
  f.Value<int32_t>(config.fallback_top_cities);
  f.Value<int32_t>(config.max_candidates);
  f.Value<int32_t>(config.burn_in_iterations);
  f.Value<int32_t>(config.sampling_iterations);
  f.Value<int32_t>(config.gibbs_em_rounds);
  f.Value(config.em_damping);
  f.Value(config.seed);
  f.Value(config.distance_floor_miles);
  f.Value<int32_t>(config.num_threads);
  f.Value<int32_t>(1);  // retired merge-cadence slot (io/README.md)

  // Observations.
  const graph::SocialGraph& graph = *input.graph;
  f.Value<int32_t>(graph.num_users());
  f.Value<int32_t>(input.num_locations());
  f.Value<int32_t>(graph.num_venues());
  f.Value<int32_t>(graph.num_following());
  f.Value<int32_t>(graph.num_tweeting());
  for (graph::EdgeId s = 0; s < graph.num_following(); ++s) {
    f.Value(graph.following(s).follower);
    f.Value(graph.following(s).friend_user);
  }
  for (graph::EdgeId k = 0; k < graph.num_tweeting(); ++k) {
    f.Value(graph.tweeting(k).user);
    f.Value(graph.tweeting(k).venue);
  }
  f.Span(input.observed_home);

  // Derived candidate universe — the FULL per-user rows (never the pruned
  // view), hashed with the same per-row length prefixes Fnv1a64::Span
  // emitted when these lived in per-user vectors.
  f.Value<uint64_t>(static_cast<uint64_t>(space.num_users()));
  for (graph::UserId u = 0; u < space.num_users(); ++u) {
    const uint64_t count = static_cast<uint64_t>(space.full_count(u));
    f.Value<uint64_t>(count);
    if (count > 0) {
      f.Bytes(space.full_row(u), count * sizeof(geo::CityId));
    }
    f.Value<uint64_t>(count);
    if (count > 0) {
      f.Bytes(space.full_gamma_row(u), count * sizeof(double));
    }
  }
  return f.hash;
}

Status MlpModel::ValidateInput(const ModelInput& input) const {
  if (input.gazetteer == nullptr || input.graph == nullptr ||
      input.distances == nullptr) {
    return Status::InvalidArgument("ModelInput has null components");
  }
  if (!input.graph->finalized()) {
    return Status::FailedPrecondition("graph must be finalized before Fit");
  }
  if (static_cast<int>(input.observed_home.size()) !=
      input.graph->num_users()) {
    return Status::InvalidArgument("observed_home size != num_users");
  }
  for (geo::CityId c : input.observed_home) {
    if (c != geo::kInvalidCity && (c < 0 || c >= input.num_locations())) {
      return Status::InvalidArgument("observed home out of gazetteer range");
    }
  }
  if (config_.source != ObservationSource::kFollowingOnly) {
    if (input.venue_referents == nullptr) {
      return Status::InvalidArgument(
          "venue_referents required when tweeting observations are used");
    }
    if (static_cast<int>(input.venue_referents->size()) <
        input.graph->num_venues()) {
      return Status::InvalidArgument("venue_referents smaller than vocabulary");
    }
  }
  if (config_.burn_in_iterations < 0 || config_.sampling_iterations < 1) {
    return Status::InvalidArgument("need >=0 burn-in and >=1 sampling sweeps");
  }
  if (config_.rho_f < 0.0 || config_.rho_f >= 1.0 || config_.rho_t < 0.0 ||
      config_.rho_t >= 1.0) {
    return Status::InvalidArgument("rho_f/rho_t must be in [0, 1)");
  }
  if (config_.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  if (config_.prune_floor < 0.0 || config_.prune_floor >= 1.0) {
    return Status::InvalidArgument("prune_floor must be in [0, 1)");
  }
  if (config_.prune_floor > 0.0 && config_.prune_patience < 1) {
    return Status::InvalidArgument("prune_patience must be >= 1");
  }
  return Status::OK();
}

Result<MlpResult> MlpModel::Fit(const ModelInput& input) {
  return Fit(input, FitOptions());
}

Result<MlpResult> MlpModel::Fit(const ModelInput& input,
                                const FitOptions& opts) {
  MLP_RETURN_NOT_OK(ValidateInput(input));
  MlpConfig config = config_;  // mutable: (α, β) evolve during Gibbs-EM

  // The single owner of the candidate universe for this fit: the sampler,
  // the arena layout, the engine's shard costs and the snapshot all read
  // through it (see src/core/README.md).
  CandidateSpace space = CandidateSpace::Build(input, config);
  // The fingerprint pass walks every edge and candidate row; skip it for
  // plain fits that neither resume nor export a checkpoint.
  const bool needs_fingerprint =
      opts.warm_start != nullptr || opts.checkpoint_out != nullptr;
  const uint64_t fingerprint =
      needs_fingerprint ? FitFingerprint(input, config_, space) : 0;

  FitProgress progress;
  if (opts.warm_start != nullptr) {
    if (opts.warm_start->fingerprint != fingerprint) {
      return Status::InvalidArgument(
          "warm-start checkpoint does not match this input/config "
          "(fingerprint mismatch)");
    }
    progress = opts.warm_start->progress;
    // Resume the evolved (α, β) instead of re-fitting from labeled pairs —
    // the initial fit is deterministic from the input, so the restored
    // values already embed it.
    config.alpha = progress.alpha;
    config.beta = progress.beta;
  } else {
    // Sec. 4.1: learn the location-based following model from labeled
    // pairs.
    if (config.fit_power_law_from_data &&
        config.source != ObservationSource::kTweetingOnly) {
      Result<stats::PowerLaw> fit = FitFollowingPowerLaw(
          *input.graph, input.observed_home, *input.distances);
      if (fit.ok()) {
        config.alpha = std::clamp(fit->alpha, kAlphaMin, kAlphaMax);
        config.beta = std::clamp(fit->beta, 1e-9, 1.0);
      }
      // Too little supervision to fit: keep the paper's defaults.
    }
    progress.alpha = config.alpha;
    progress.beta = config.beta;
  }

  RandomModels random_models = RandomModels::Learn(*input.graph);
  PowTable pow_table(input.distances, config.alpha,
                     config.distance_floor_miles);

  Pcg32 rng(config.seed, 0x5bd1e995u);
  GibbsSampler sampler(&input, &config, &space, &random_models, &pow_table);
  // Sweep driver: sequential passthrough at num_threads == 1 (bit-identical
  // to running the sampler directly), sharded delta-merge sweeps otherwise.
  // The engine also owns the sweep-time pruning barrier (MaybePrune).
  engine::ParallelGibbsEngine engine(&sampler, &input, &config, &space);
  if (opts.warm_start != nullptr) {
    // The activation state must land before the sampler state: RestoreState
    // validates every buffer against the space's (possibly compacted)
    // active layout.
    MLP_RETURN_NOT_OK(space.RestoreActivation(opts.warm_start->activation));
    MLP_RETURN_NOT_OK(sampler.RestoreState(opts.warm_start->sampler));
    rng.RestoreState(opts.warm_start->master_rng);
    MLP_RETURN_NOT_OK(
        engine.RestoreShardRngStates(opts.warm_start->shard_rngs));
    // A pruned fit resharded by candidate-product cost after each
    // compaction; re-deriving the shards from the restored space replays
    // the exact partition the uninterrupted run was using at the cut.
    engine.OnActivationRestored();
  } else {
    engine.Initialize(&rng);
  }

  const int rounds = std::max(0, config.gibbs_em_rounds) + 1;
  const int burn = config.burn_in_iterations;
  const int sampling = config.sampling_iterations;
  const int per_round = burn + sampling;
  // Budget accounting is global over the program, so a resumed fit counts
  // the checkpointed sweeps as already spent.
  auto sweeps_done = [&]() {
    return progress.round * per_round + progress.burn_in_done +
           progress.sampling_done;
  };
  auto budget_exhausted = [&]() {
    return opts.max_total_sweeps >= 0 &&
           sweeps_done() >= opts.max_total_sweeps;
  };

  // ---- memory accounting + budget enforcement (mem_budget_mb) ----
  // Exact AccountedBytes() walks, published as gauges so /statsz and
  // `mlpctl fit --profile` can watch the budget hold. The walk is
  // O(edges), so it runs once per burn-in sweep, and only under a budget
  // (plus once at the end of the fit).
  obs::Registry& registry = obs::Registry::Global();
  obs::Gauge* const arena_bytes_gauge =
      registry.GetGauge(obs::kMemArenaBytes);
  obs::Gauge* const candidate_bytes_gauge =
      registry.GetGauge(obs::kMemCandidateBytes);
  obs::Gauge* const accounted_bytes_gauge =
      registry.GetGauge(obs::kMemFitAccountedBytes);
  obs::Gauge* const budget_bytes_gauge =
      registry.GetGauge(obs::kMemFitBudgetBytes);
  obs::Counter* const budget_tighten_total =
      registry.GetCounter(obs::kFitBudgetTightenTotal);
  obs::Counter* const accumulate_ns =
      registry.GetCounter(obs::kFitAccumulateNs);
  const int64_t mem_budget_bytes =
      static_cast<int64_t>(std::max(0, opts.mem_budget_mb)) * 1024 * 1024;
  budget_bytes_gauge->Set(mem_budget_bytes);
  auto publish_accounting = [&]() {
    const int64_t candidate = space.AccountedBytes();
    const int64_t arena = sampler.AccountedBytes() + engine.AccountedBytes();
    candidate_bytes_gauge->Set(candidate);
    arena_bytes_gauge->Set(arena);
    accounted_bytes_gauge->Set(candidate + arena);
    obs::UpdateProcessRssGauges();
    return candidate + arena;
  };
  // Over budget after a burn-in sweep: ratchet the pruning schedule
  // (shared with the engine through `config`) so the following
  // MaybePrune barriers deactivate more slots. Enforcement never fires
  // during sampling — the accumulators need one fixed support — so the
  // footprint must be argued down during burn-in.
  auto maybe_tighten_budget = [&]() {
    if (mem_budget_bytes <= 0) return;
    if (publish_accounting() <= mem_budget_bytes) return;
    budget_tighten_total->Add(1);
    config.prune_floor =
        config.prune_floor <= 0.0
            ? kBudgetInitialFloor
            : std::min(kBudgetMaxFloor,
                       config.prune_floor * kBudgetFloorGrowth);
    config.prune_patience = 1;
    MLP_LOG(kInfo) << "fit over memory budget ("
                   << accounted_bytes_gauge->Value() / (1024 * 1024)
                   << " MB accounted > " << opts.mem_budget_mb
                   << " MB): prune_floor -> " << config.prune_floor;
  };

  bool budget_hit = false;
  while (progress.round < rounds && !budget_hit) {
    while (progress.burn_in_done < burn) {
      // Every sweep ends merged, so the saved state is exactly the state
      // an uninterrupted run has after the same number of sweeps.
      if (budget_exhausted()) {
        budget_hit = true;
        break;
      }
      engine.RunSweep(&rng);
      ++progress.burn_in_done;
      maybe_tighten_budget();
      // Adaptive candidate pruning fires only after burn-in sweeps, so the
      // sampled posterior (and the accumulators) always run over one fixed
      // support. No-op unless config.prune_floor > 0.
      engine.MaybePrune(sweeps_done());
    }
    if (budget_hit) break;
    if (progress.sampling_done == 0) sampler.ResetAccumulators();
    while (progress.sampling_done < sampling) {
      if (budget_exhausted()) {
        budget_hit = true;
        break;
      }
      engine.RunSweep(&rng);
      {
        obs::ScopedSpan span(accumulate_ns, "accumulate");
        sampler.AccumulateSample();
      }
      ++progress.sampling_done;
    }
    if (budget_hit) break;

    if (progress.round + 1 < rounds &&
        config.source != ObservationSource::kTweetingOnly) {
      // Gibbs-EM M-step (Sec. 4.5): rebuild the Fig-3a curve with the
      // expected assignment distances as the numerator and the OBSERVED
      // labeled pair distances as the denominator. Both sides are
      // restricted to labeled users so the ratio compares consistent
      // populations (estimated homes of unlabeled users would bias the
      // denominator toward wherever the model currently errs).
      std::vector<double> edge_hist =
          sampler.AssignmentDistanceHistogram(kEmHistogramBuckets);
      std::vector<double> pair_hist = PairDistanceHistogram(
          input.observed_home, *input.distances, 1.0, kEmHistogramBuckets);
      Result<stats::PowerLaw> fit = stats::FitPowerLaw(
          stats::RatioCurve(edge_hist, pair_hist, kEmMinPairs));
      if (fit.ok()) {
        // Damped move on the slope α; see MlpConfig::em_damping.
        double damping = std::clamp(config.em_damping, 0.0, 1.0);
        double target_alpha = std::clamp(fit->alpha, kAlphaMin, kAlphaMax);
        config.alpha += damping * (target_alpha - config.alpha);
        // β by moment matching rather than the regression intercept: pick
        // the scale that preserves the observed location-edge mass,
        // Σ_d pairs(d)·β·d^α = Σ_d edges(d). The intercept-based β drifts
        // upward round over round (the assignment histogram concentrates
        // near the floor), which unbalances the μ update's noise branch.
        double edge_mass = 0.0, kernel_mass = 0.0;
        for (size_t d = 0; d < edge_hist.size(); ++d) {
          edge_mass += edge_hist[d];
          kernel_mass += pair_hist[d] * std::pow(static_cast<double>(d) + 0.5,
                                                 config.alpha);
        }
        if (edge_mass > 0.0 && kernel_mass > 0.0) {
          config.beta = std::clamp(edge_mass / kernel_mass, 1e-9, 1.0);
        }
        pow_table.Rebuild(config.alpha);
      }
    }
    ++progress.round;
    progress.burn_in_done = 0;
    progress.sampling_done = 0;
  }

  publish_accounting();
  progress.alpha = config.alpha;
  progress.beta = config.beta;
  if (opts.checkpoint_out != nullptr) {
    FitCheckpoint* ck = opts.checkpoint_out;
    ck->config = config_;
    ck->fingerprint = fingerprint;
    ck->complete = progress.round >= rounds;
    ck->progress = progress;
    sampler.SaveState(&ck->sampler);
    ck->master_rng = rng.SaveState();
    ck->shard_rngs = engine.ShardRngStates();
    ck->activation = space.SaveActivation();
  }

  MlpResult result = sampler.BuildResult();
  result.alpha = config.alpha;
  result.beta = config.beta;
  return result;
}

Result<MlpResult> MlpModel::ApplyDelta(const ModelInput& base_input,
                                       const ModelInput& merged_input,
                                       const MlpResult& base_result,
                                       const FitOptions& opts,
                                       DeltaReport* report_out) {
  MLP_RETURN_NOT_OK(ValidateInput(merged_input));
  if (opts.warm_start == nullptr) {
    return Status::InvalidArgument(
        "ApplyDelta requires options.warm_start (the base checkpoint)");
  }
  const FitCheckpoint& base = *opts.warm_start;
  const graph::SocialGraph& old_graph = *base_input.graph;
  const graph::SocialGraph& new_graph = *merged_input.graph;
  const int old_users = old_graph.num_users();
  const int merged_users = new_graph.num_users();
  const int s_old = old_graph.num_following();
  const int s_new = new_graph.num_following();
  const int k_old = old_graph.num_tweeting();
  const int k_new = new_graph.num_tweeting();
  const bool use_following = config_.source != ObservationSource::kTweetingOnly;
  const bool use_tweeting = config_.source != ObservationSource::kFollowingOnly;
  if (merged_users < old_users || s_new < s_old || k_new < k_old) {
    return Status::InvalidArgument(
        "merged input does not extend the base input");
  }
  if (static_cast<int>(base_result.home.size()) != old_users ||
      (use_following &&
       static_cast<int>(base_result.following.size()) != s_old) ||
      (use_tweeting &&
       static_cast<int>(base_result.tweeting.size()) != k_old)) {
    return Status::InvalidArgument(
        "base result does not match the base input's shape");
  }
  if ((use_following && static_cast<int>(base.sampler.mu.size()) != s_old) ||
      (use_tweeting && static_cast<int>(base.sampler.nu.size()) != k_old)) {
    return Status::InvalidArgument(
        "base checkpoint sampler state does not match the base input");
  }
  // The resample runs on the master stream, but the checkpoint still owns
  // one stream per engine sub-shard (none at one thread) for a later
  // resume; pass them through only if they fit this thread count.
  const int threads = std::max(1, config_.num_threads);
  const size_t shard_streams =
      threads > 1
          ? static_cast<size_t>(threads) *
                engine::ParallelGibbsEngine::kSubShardsPerThread
          : 0;
  if (base.shard_rngs.size() != shard_streams) {
    return Status::InvalidArgument(
        "shard RNG state count does not match the engine's sub-shard "
        "streams");
  }
  // Counts extending is not enough: the chain is remapped edge index by
  // edge index, so the merged graph must carry the base edges as an
  // UNCHANGED prefix (stream::MergeDelta's contract). An interleaved or
  // reordered merge would silently pair assignments with the wrong edges.
  for (graph::EdgeId s = 0; s < s_old; ++s) {
    const graph::FollowingEdge& a = old_graph.following(s);
    const graph::FollowingEdge& b = new_graph.following(s);
    if (a.follower != b.follower || a.friend_user != b.friend_user) {
      return Status::InvalidArgument(
          "merged input does not carry the base following edges as an "
          "unchanged prefix");
    }
  }
  for (graph::EdgeId k = 0; k < k_old; ++k) {
    const graph::TweetingEdge& a = old_graph.tweeting(k);
    const graph::TweetingEdge& b = new_graph.tweeting(k);
    if (a.user != b.user || a.venue != b.venue) {
      return Status::InvalidArgument(
          "merged input does not carry the base tweeting edges as an "
          "unchanged prefix");
    }
  }
  for (graph::UserId u = 0; u < old_users; ++u) {
    if (merged_input.observed_home[u] != base_input.observed_home[u]) {
      return Status::InvalidArgument(
          "merged input changes an existing user's observed home — a delta "
          "may only append");
    }
  }

  // Migration phase (space rebuild, activation carry, chain remap) ends at
  // AdoptMigratedChain; error paths just drop the span.
  const int64_t migrate_start_ns = obs::NowNs();

  // The base checkpoint must genuinely belong to `base_input` — the same
  // guard Fit's warm start applies, against the BASE universe.
  CandidateSpace old_space = CandidateSpace::Build(base_input, config_);
  if (FitFingerprint(base_input, config_, old_space) != base.fingerprint) {
    return Status::InvalidArgument(
        "base checkpoint does not match the base input/config "
        "(fingerprint mismatch)");
  }
  MLP_RETURN_NOT_OK(old_space.RestoreActivation(base.activation));

  // Rebuild the candidate universe over the merged world, then migrate the
  // base activation onto it: BuildPriors is per-user, so only users
  // adjacent to delta evidence grow/reshape their rows — everyone else's
  // row is carried verbatim (pruned slots stay pruned, streaks continue).
  CandidateSpace space = CandidateSpace::Build(merged_input, config_);

  // Expanded (per-full-slot) base activation; an empty mask means fully
  // active, exactly as RestoreActivation interprets it.
  std::vector<uint8_t> old_active = base.activation.active;
  std::vector<int32_t> old_streak = base.activation.cold_streak;
  if (old_active.empty()) old_active.assign(old_space.full_size(), 1);
  if (old_streak.empty()) old_streak.assign(old_space.full_size(), 0);

  std::vector<int64_t> old_full_off(old_users + 1, 0);
  for (graph::UserId u = 0; u < old_users; ++u) {
    old_full_off[u + 1] = old_full_off[u] + old_space.full_count(u);
  }

  CandidateActivation activation;
  activation.active.assign(space.full_size(), 1);
  activation.cold_streak.assign(space.full_size(), 0);
  // One ingest = one layout generation: consumers keyed on layout_version
  // (engine replicas, serve::ReadModel, /statsz) see the bump.
  activation.layout_version = base.activation.layout_version + 1;
  activation.history = base.activation.history;

  DeltaReport report;
  report.shards_total = threads;
  report.new_users = merged_users - old_users;
  report.new_following = s_new - s_old;
  report.new_tweeting = k_new - k_old;

  std::vector<uint8_t> touched(merged_users, 0);
  for (graph::UserId u = old_users; u < merged_users; ++u) touched[u] = 1;

  int64_t new_off = 0;
  for (graph::UserId u = 0; u < merged_users; ++u) {
    const int n_new = space.full_count(u);
    if (u < old_users) {
      const int n_old = old_space.full_count(u);
      const geo::CityId* row_new = space.full_row(u);
      const geo::CityId* row_old = old_space.full_row(u);
      const double* g_new = space.full_gamma_row(u);
      const double* g_old = old_space.full_gamma_row(u);
      const bool identical = n_new == n_old &&
                             std::equal(row_new, row_new + n_new, row_old) &&
                             std::equal(g_new, g_new + n_new, g_old);
      if (identical) {
        std::copy(old_active.begin() + old_full_off[u],
                  old_active.begin() + old_full_off[u + 1],
                  activation.active.begin() + new_off);
        std::copy(old_streak.begin() + old_full_off[u],
                  old_streak.begin() + old_full_off[u + 1],
                  activation.cold_streak.begin() + new_off);
      } else {
        // Stale row: carry each surviving city's activation by value; new
        // cities start active. The user's γ changed, so it must resample.
        touched[u] = 1;
        ++report.migrated_rows;
        bool any_active = n_new == 0;
        for (int l = 0; l < n_new; ++l) {
          const int ol = FindCandidateSlot(row_old, n_old, row_new[l]);
          if (ol >= 0) {
            activation.active[new_off + l] = old_active[old_full_off[u] + ol];
            activation.cold_streak[new_off + l] =
                old_streak[old_full_off[u] + ol];
          }
          any_active = any_active || activation.active[new_off + l] != 0;
        }
        if (!any_active) {
          // Every carried slot was pruned and nothing new arrived active —
          // reopen the whole row rather than strand the user.
          for (int l = 0; l < n_new; ++l) {
            activation.active[new_off + l] = 1;
            activation.cold_streak[new_off + l] = 0;
          }
        }
      }
    }
    new_off += n_new;
  }
  MLP_RETURN_NOT_OK(space.RestoreActivation(activation));

  // Migrate the chain: every carried assignment's slot is re-found by city
  // in the merged active row; a vanished slot (the row lost that city, or
  // carried it pruned) redirects to the user's best prior slot — that user
  // is then stale by definition and resamples immediately.
  auto redirect_slot = [&](graph::UserId u) -> int32_t {
    const CandidateView& view = space.view(u);
    int best = 0;
    double best_gamma = -1.0;
    for (int l = 0; l < view.size(); ++l) {
      if (view.gamma[l] > best_gamma) {
        best_gamma = view.gamma[l];
        best = l;
      }
    }
    return best;
  };
  MigratedChain chain;
  chain.home_change_per_sweep = base.sampler.home_change_per_sweep;
  auto remap = [&](graph::UserId u, int32_t old_slot,
                   int32_t* out) -> Status {
    const CandidateView& old_view = old_space.view(u);
    if (old_slot < 0 || old_slot >= old_view.size()) {
      return Status::InvalidArgument(
          "base checkpoint assignment index out of candidate range");
    }
    const int nl = space.SlotOf(u, old_view.candidates[old_slot]);
    if (nl >= 0) {
      *out = nl;
    } else {
      *out = redirect_slot(u);
      touched[u] = 1;
      ++report.redirected_assignments;
    }
    return Status::OK();
  };
  if (use_following) {
    chain.mu = base.sampler.mu;
    chain.x_idx.resize(s_old);
    chain.y_idx.resize(s_old);
    for (graph::EdgeId s = 0; s < s_old; ++s) {
      const graph::FollowingEdge& edge = old_graph.following(s);
      MLP_RETURN_NOT_OK(
          remap(edge.follower, base.sampler.x_idx[s], &chain.x_idx[s]));
      MLP_RETURN_NOT_OK(
          remap(edge.friend_user, base.sampler.y_idx[s], &chain.y_idx[s]));
    }
    for (graph::EdgeId s = s_old; s < s_new; ++s) {
      const graph::FollowingEdge& edge = new_graph.following(s);
      touched[edge.follower] = 1;
      touched[edge.friend_user] = 1;
    }
  }
  if (use_tweeting) {
    chain.nu = base.sampler.nu;
    chain.z_idx.resize(k_old);
    for (graph::EdgeId k = 0; k < k_old; ++k) {
      MLP_RETURN_NOT_OK(remap(old_graph.tweeting(k).user,
                              base.sampler.z_idx[k], &chain.z_idx[k]));
    }
    for (graph::EdgeId k = k_old; k < k_new; ++k) {
      touched[new_graph.tweeting(k).user] = 1;
    }
  }
  for (uint8_t t : touched) report.touched_users += t;

  // A genuinely empty delta is a strict no-op: base result and checkpoint
  // come back unchanged, so re-snapshotting is bit-identical.
  if (report.touched_users == 0) {
    report.user_resampled.assign(merged_users, 0);
    report.following_resampled.assign(use_following ? s_new : 0, 0);
    report.tweeting_resampled.assign(use_tweeting ? k_new : 0, 0);
    if (opts.checkpoint_out != nullptr) *opts.checkpoint_out = base;
    if (report_out != nullptr) *report_out = std::move(report);
    return base_result;
  }

  // Warm machinery over the merged world. (α, β) resume from the base
  // fit's evolved values, exactly like Fit's warm-start path.
  MlpConfig config = config_;
  config.alpha = base.progress.alpha;
  config.beta = base.progress.beta;
  RandomModels random_models = RandomModels::Learn(*merged_input.graph);
  PowTable pow_table(merged_input.distances, config.alpha,
                     config.distance_floor_miles);
  GibbsSampler sampler(&merged_input, &config, &space, &random_models,
                       &pow_table);

  // Appended edges draw their seed assignments from a stream derived from
  // (seed, delta shape) — a pure function of the inputs, so ingesting a
  // loaded snapshot replays byte-for-byte the same chain as ingesting the
  // in-memory checkpoint.
  Pcg32 init_rng(
      config.seed ^ (0x9e3779b97f4a7c15ULL *
                     (static_cast<uint64_t>(s_new - s_old) + 1)),
      0x94d049bb133111ebULL + 2 * (static_cast<uint64_t>(k_new - k_old) + 1));
  MLP_RETURN_NOT_OK(sampler.AdoptMigratedChain(chain, &init_rng));
  obs::EndSpan(obs::Registry::Global().GetCounter(obs::kIngestMigrateNs),
               "ingest_migrate", migrate_start_ns);

  // Resample scope: the cost-weighted partition of the merged graph's
  // ACTIVE candidate products into one shard per thread, with the touched
  // users packed into the fewest shards their cost warrants
  // (GraphSharder::PartitionGrouped; at one thread the single whole-graph
  // shard). Every user of a shard holding a touched user resamples; the
  // rest of the world stays in shards the pass never selects.
  const std::vector<double> cost = engine::GraphSharder::CandidateProductCost(
      new_graph, space, use_following, use_tweeting);
  double total_cost = 0.0;
  double touched_cost = 0.0;
  for (graph::UserId u = 0; u < merged_users; ++u) {
    total_cost += cost[u];
    if (touched[u]) touched_cost += cost[u];
  }
  const int touched_shards =
      total_cost > 0.0
          ? std::clamp(static_cast<int>(
                           std::ceil(touched_cost / total_cost * threads)),
                       1, threads)
          : 1;
  report.user_resampled.assign(merged_users, 0);
  for (const engine::Shard& shard : engine::GraphSharder::PartitionGrouped(
           new_graph, threads, touched_shards, cost, touched)) {
    if (std::none_of(shard.users.begin(), shard.users.end(),
                     [&](graph::UserId u) { return touched[u] != 0; })) {
      continue;
    }
    ++report.shards_touched;
    for (graph::UserId u : shard.users) report.user_resampled[u] = 1;
  }

  // Eligibility: a following edge's resample writes BOTH endpoints' ϕ
  // rows, so it runs only when both endpoints resample — that is the
  // invariant that keeps unselected users bit-identical. A tweeting edge
  // needs just its owner.
  const std::vector<uint8_t>& selected = report.user_resampled;
  std::vector<graph::EdgeId> following_edges;
  std::vector<graph::EdgeId> tweeting_edges;
  report.following_resampled.assign(use_following ? s_new : 0, 0);
  report.tweeting_resampled.assign(use_tweeting ? k_new : 0, 0);
  for (graph::EdgeId s = 0; use_following && s < s_new; ++s) {
    const graph::FollowingEdge& edge = new_graph.following(s);
    if (selected[edge.follower] && selected[edge.friend_user]) {
      report.following_resampled[s] = 1;
      following_edges.push_back(s);
    }
  }
  for (graph::EdgeId k = 0; use_tweeting && k < k_new; ++k) {
    if (selected[new_graph.tweeting(k).user]) {
      report.tweeting_resampled[k] = 1;
      tweeting_edges.push_back(k);
    }
  }

  // Restricted sweeps of the EXACT blocked kernels (ingest quality is
  // bounded by few sweeps, so the exact conditionals are worth their cost)
  // in ascending edge order on the master stream.
  Pcg32 rng(config.seed, 0x5bd1e995u);
  rng.RestoreState(base.master_rng);
  {
    obs::ScopedSpan span(
        obs::Registry::Global().GetCounter(obs::kIngestResampleNs),
        "ingest_resample");
    SuffStatsArena* stats = sampler.mutable_stats();
    GibbsScratch scratch;
    auto sweep = [&] {
      for (graph::EdgeId s : following_edges) {
        sampler.SampleFollowingEdge(s, stats, &scratch, &rng);
      }
      for (graph::EdgeId k : tweeting_edges) {
        sampler.SampleTweetingEdge(k, stats, &scratch, &rng);
      }
      scratch.venue_cells.clear();  // no fold reads it on this path
      sampler.RecordSweepTrace();
    };
    for (int it = 0; it < kDeltaBurnSweeps; ++it) sweep();
    sampler.ResetAccumulators();
    for (int it = 0; it < kDeltaSamplingSweeps; ++it) {
      sweep();
      sampler.AccumulateSample();
    }
  }

  if (opts.checkpoint_out != nullptr) {
    FitCheckpoint* ck = opts.checkpoint_out;
    ck->config = config_;
    ck->fingerprint = FitFingerprint(merged_input, config_, space);
    ck->complete = base.complete;
    ck->progress = base.progress;
    sampler.SaveState(&ck->sampler);
    ck->master_rng = rng.SaveState();
    ck->shard_rngs = base.shard_rngs;
    ck->activation = space.SaveActivation();
  }

  // Merge: resampled users/edges take the refreshed posterior; everything
  // else keeps the base fit's rows verbatim (their counts never moved).
  MlpResult result = sampler.BuildResult();
  for (graph::UserId u = 0; u < old_users; ++u) {
    if (report.user_resampled[u]) continue;
    result.profiles[u] = base_result.profiles[u];
    result.home[u] = base_result.home[u];
  }
  for (graph::EdgeId s = 0; use_following && s < s_old; ++s) {
    if (!report.following_resampled[s]) {
      result.following[s] = base_result.following[s];
    }
  }
  for (graph::EdgeId k = 0; use_tweeting && k < k_old; ++k) {
    if (!report.tweeting_resampled[k]) {
      result.tweeting[k] = base_result.tweeting[k];
    }
  }
  if (report_out != nullptr) *report_out = std::move(report);
  return result;
}

}  // namespace core
}  // namespace mlp
