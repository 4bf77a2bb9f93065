// Tests for core::CandidateSpace — the single owner of the candidate
// universe — and for adaptive sweep-time pruning end to end: construction
// matches BuildPriors bit for bit, PruneStep compacts without losing ϕ
// mass or prior mass, activation state round-trips, and pruned fits stay
// deterministic and sane.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/candidate_space.h"
#include "core/model.h"
#include "core/pow_table.h"
#include "core/priors.h"
#include "core/random_models.h"
#include "core/sampler.h"
#include "engine/parallel_gibbs.h"
#include "eval/cross_validation.h"
#include "synth/world_generator.h"

namespace mlp {
namespace core {
namespace {

synth::SyntheticWorld TestWorld(int num_users, uint64_t seed) {
  synth::WorldConfig config;
  config.num_users = num_users;
  config.seed = seed;
  Result<synth::SyntheticWorld> world = synth::GenerateWorld(config);
  EXPECT_TRUE(world.ok());
  return std::move(*world);
}

struct FitHarness {
  explicit FitHarness(const synth::SyntheticWorld& world) {
    input.gazetteer = world.gazetteer.get();
    input.graph = world.graph.get();
    input.distances = world.distances.get();
    referents = world.vocab->ReferentTable();
    input.venue_referents = &referents;
    input.observed_home = eval::RegisteredHomes(*world.graph);
  }
  ModelInput input;
  std::vector<std::vector<geo::CityId>> referents;
};

// ------------------------------------------------------------ construction

TEST(CandidateSpaceTest, BuildMatchesBuildPriorsExactly) {
  synth::SyntheticWorld world = TestWorld(300, 42);
  FitHarness harness(world);
  MlpConfig config;
  std::vector<UserPrior> priors = BuildPriors(harness.input, config);
  CandidateSpace space = CandidateSpace::Build(harness.input, config);

  ASSERT_EQ(space.num_users(), static_cast<int>(priors.size()));
  EXPECT_EQ(space.layout_version(), 0u);
  EXPECT_DOUBLE_EQ(space.ActiveFraction(), 1.0);
  for (graph::UserId u = 0; u < space.num_users(); ++u) {
    const CandidateView& view = space.view(u);
    ASSERT_EQ(view.size(), priors[u].size()) << "user " << u;
    EXPECT_EQ(view.gamma_sum, priors[u].gamma_sum);
    for (int l = 0; l < view.size(); ++l) {
      EXPECT_EQ(view.candidates[l], priors[u].candidates[l]);
      EXPECT_EQ(view.gamma[l], priors[u].gamma[l]);  // bit-exact, no tol
    }
    // The active view and the full universe agree before any prune.
    EXPECT_EQ(space.full_count(u), view.size());
    // Single lookup routine: SlotOf == UserPrior::IndexOf for every
    // candidate and for a guaranteed miss.
    for (int l = 0; l < view.size(); ++l) {
      EXPECT_EQ(space.SlotOf(u, view.candidates[l]),
                priors[u].IndexOf(view.candidates[l]));
    }
    EXPECT_EQ(space.SlotOf(u, geo::kInvalidCity), -1);
  }
  // The active layout is exactly the arena layout the sampler builds.
  SuffStatsLayout reference = SuffStatsLayout::Build(
      priors, harness.input.num_locations(), harness.input.num_venues());
  EXPECT_TRUE(space.layout().SameShape(reference));
}

// ---------------------------------------------------------------- pruning

struct PruneHarness {
  PruneHarness(const FitHarness& harness, const MlpConfig& config)
      : space(CandidateSpace::Build(harness.input, config)),
        random_models(RandomModels::Learn(*harness.input.graph)),
        pow_table(harness.input.distances, config.alpha,
                  config.distance_floor_miles),
        sampler(&harness.input, &config, &space, &random_models, &pow_table),
        engine(&sampler, &harness.input, &config, &space) {}

  CandidateSpace space;
  RandomModels random_models;
  PowTable pow_table;
  GibbsSampler sampler;
  engine::ParallelGibbsEngine engine;
};

void ExpectArenaConsistent(const GibbsSampler& sampler) {
  const SuffStatsArena& stats = sampler.stats();
  const SuffStatsLayout& layout = sampler.layout();
  for (graph::UserId u = 0; u < layout.num_users; ++u) {
    const double* phi_u = stats.phi_row(u);
    double row = 0.0;
    for (int l = 0; l < layout.candidate_count(u); ++l) {
      ASSERT_GE(phi_u[l], 0.0);
      row += phi_u[l];
    }
    ASSERT_DOUBLE_EQ(row, stats.phi_total[u]) << "user " << u;
  }
}

TEST(CandidateSpacePruneTest, PruneStepCompactsWithoutLosingMass) {
  synth::SyntheticWorld world = TestWorld(400, 7);
  FitHarness harness(world);
  MlpConfig config;
  config.prune_floor = 0.02;
  config.prune_patience = 1;
  PruneHarness h(harness, config);

  Pcg32 rng(config.seed, 0x5bd1e995u);
  h.engine.Initialize(&rng);
  for (int it = 0; it < 3; ++it) h.engine.RunSweep(&rng);

  const int64_t full = h.space.full_size();
  std::vector<double> phi_total_before = h.sampler.stats().phi_total;
  std::vector<double> gamma_sums_before(h.space.num_users());
  for (graph::UserId u = 0; u < h.space.num_users(); ++u) {
    gamma_sums_before[u] = h.space.view(u).gamma_sum;
  }

  bool pruned = h.engine.MaybePrune(3);
  ASSERT_TRUE(pruned) << "floor 0.02 should deactivate something";
  EXPECT_EQ(h.space.layout_version(), 1u);
  EXPECT_LT(h.space.active_size(), full);
  EXPECT_LT(h.space.ActiveFraction(), 1.0);
  ASSERT_EQ(h.space.history().size(), 1u);
  EXPECT_EQ(h.space.history()[0].sweep, 3);
  EXPECT_GT(h.space.history()[0].deactivated, 0);

  // No ϕ mass lost, per-user totals intact, arena rows still consistent.
  EXPECT_EQ(h.sampler.stats().phi_total, phi_total_before);
  ExpectArenaConsistent(h.sampler);
  for (graph::UserId u = 0; u < h.space.num_users(); ++u) {
    const CandidateView& view = h.space.view(u);
    ASSERT_GE(view.size(), 1) << "user " << u << " lost all candidates";
    // γ renormalized over survivors: row prior mass preserved.
    double row_gamma = 0.0;
    for (int l = 0; l < view.size(); ++l) row_gamma += view.gamma[l];
    EXPECT_NEAR(row_gamma, gamma_sums_before[u], 1e-9 * (1 + row_gamma));
    // Rows stay sorted (binary-search invariant).
    EXPECT_TRUE(std::is_sorted(view.candidates, view.candidates + view.size()));
  }

  // The chain keeps running on the compacted support.
  for (int it = 0; it < 2; ++it) h.engine.RunSweep(&rng);
  ExpectArenaConsistent(h.sampler);
}

TEST(CandidateSpacePruneTest, SupervisedHomesSurvivePruning) {
  synth::SyntheticWorld world = TestWorld(300, 11);
  FitHarness harness(world);
  MlpConfig config;
  config.prune_floor = 0.2;  // aggressive on purpose
  config.prune_patience = 1;
  PruneHarness h(harness, config);
  Pcg32 rng(config.seed, 0x5bd1e995u);
  h.engine.Initialize(&rng);
  for (int sweep = 1; sweep <= 4; ++sweep) {
    h.engine.RunSweep(&rng);
    h.engine.MaybePrune(sweep);
  }
  for (graph::UserId u = 0; u < h.space.num_users(); ++u) {
    if (harness.input.observed_home[u] == geo::kInvalidCity) continue;
    EXPECT_GE(h.space.SlotOf(u, harness.input.observed_home[u]), 0)
        << "observed home of user " << u << " was pruned";
  }
}

TEST(CandidateSpacePruneTest, NoPruneKeepsVersionZeroAndFullSpace) {
  synth::SyntheticWorld world = TestWorld(200, 3);
  FitHarness harness(world);
  MlpConfig config;  // prune_floor defaults to 0 = off
  PruneHarness h(harness, config);
  Pcg32 rng(config.seed, 0x5bd1e995u);
  h.engine.Initialize(&rng);
  for (int sweep = 1; sweep <= 3; ++sweep) {
    h.engine.RunSweep(&rng);
    EXPECT_FALSE(h.engine.MaybePrune(sweep));
  }
  EXPECT_EQ(h.space.layout_version(), 0u);
  EXPECT_EQ(h.space.active_size(), h.space.full_size());
  CandidateActivation activation = h.space.SaveActivation();
  EXPECT_TRUE(activation.active.empty());  // canonical fully-active form
  EXPECT_TRUE(activation.history.empty());
}

// ------------------------------------------------------------- activation

TEST(CandidateSpacePruneTest, ActivationRoundTripRebuildsIdenticalView) {
  synth::SyntheticWorld world = TestWorld(350, 21);
  FitHarness harness(world);
  MlpConfig config;
  config.prune_floor = 0.03;
  config.prune_patience = 1;
  PruneHarness h(harness, config);
  Pcg32 rng(config.seed, 0x5bd1e995u);
  h.engine.Initialize(&rng);
  for (int sweep = 1; sweep <= 4; ++sweep) {
    h.engine.RunSweep(&rng);
    h.engine.MaybePrune(sweep);
  }
  ASSERT_GT(h.space.layout_version(), 0u);

  CandidateActivation activation = h.space.SaveActivation();
  CandidateSpace restored = CandidateSpace::Build(harness.input, config);
  ASSERT_TRUE(restored.RestoreActivation(activation).ok());

  EXPECT_EQ(restored.layout_version(), h.space.layout_version());
  EXPECT_EQ(restored.active_size(), h.space.active_size());
  ASSERT_TRUE(restored.layout().SameShape(h.space.layout()));
  for (graph::UserId u = 0; u < h.space.num_users(); ++u) {
    const CandidateView& a = h.space.view(u);
    const CandidateView& b = restored.view(u);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.gamma_sum, b.gamma_sum);
    for (int l = 0; l < a.size(); ++l) {
      EXPECT_EQ(a.candidates[l], b.candidates[l]);
      EXPECT_EQ(a.gamma[l], b.gamma[l]);  // renormalization is deterministic
    }
  }
  ASSERT_EQ(restored.history().size(), h.space.history().size());
  for (size_t i = 0; i < restored.history().size(); ++i) {
    EXPECT_EQ(restored.history()[i].sweep, h.space.history()[i].sweep);
    EXPECT_EQ(restored.history()[i].deactivated,
              h.space.history()[i].deactivated);
  }
}

TEST(CandidateSpacePruneTest, EmptyMaskRestoresFullyActive) {
  synth::SyntheticWorld world = TestWorld(150, 5);
  FitHarness harness(world);
  MlpConfig config;
  CandidateSpace space = CandidateSpace::Build(harness.input, config);
  CandidateActivation v1_style;  // what a loaded v1 snapshot carries
  ASSERT_TRUE(space.RestoreActivation(v1_style).ok());
  EXPECT_EQ(space.layout_version(), 0u);
  EXPECT_EQ(space.active_size(), space.full_size());
}

TEST(CandidateSpacePruneTest, MalformedActivationRejected) {
  synth::SyntheticWorld world = TestWorld(150, 9);
  FitHarness harness(world);
  MlpConfig config;
  CandidateSpace space = CandidateSpace::Build(harness.input, config);

  CandidateActivation wrong_size;
  wrong_size.active.assign(space.full_size() + 1, 1);
  EXPECT_FALSE(space.RestoreActivation(wrong_size).ok());

  CandidateActivation all_dead;
  all_dead.active.assign(space.full_size(), 0);
  EXPECT_FALSE(space.RestoreActivation(all_dead).ok());
}

// ------------------------------------------------------------ pruned fits

TEST(PrunedFitTest, PrunedFitsAreDeterministic) {
  synth::SyntheticWorld world = TestWorld(300, 13);
  FitHarness harness(world);
  MlpConfig config;
  config.burn_in_iterations = 4;
  config.sampling_iterations = 3;
  config.prune_floor = 0.02;
  config.prune_patience = 1;
  for (int threads : {1, 3}) {
    config.num_threads = threads;
    Result<MlpResult> a = MlpModel(config).Fit(harness.input);
    Result<MlpResult> b = MlpModel(config).Fit(harness.input);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->home, b->home) << "threads=" << threads;
    ASSERT_EQ(a->profiles.size(), b->profiles.size());
    for (size_t u = 0; u < a->profiles.size(); ++u) {
      EXPECT_EQ(a->profiles[u].entries(), b->profiles[u].entries());
    }
  }
}

TEST(PrunedFitTest, PrunedFitProducesValidHomesAndShrinksSpace) {
  synth::SyntheticWorld world = TestWorld(400, 17);
  FitHarness harness(world);
  MlpConfig config;
  config.burn_in_iterations = 5;
  config.sampling_iterations = 4;
  config.prune_floor = 0.02;
  config.prune_patience = 1;

  FitCheckpoint checkpoint;
  FitOptions opts;
  opts.checkpoint_out = &checkpoint;
  Result<MlpResult> result = MlpModel(config).Fit(harness.input, opts);
  ASSERT_TRUE(result.ok());
  for (geo::CityId home : result->home) {
    EXPECT_NE(home, geo::kInvalidCity);
  }
  // The checkpoint records that pruning actually fired.
  EXPECT_GT(checkpoint.activation.layout_version, 0u);
  EXPECT_FALSE(checkpoint.activation.history.empty());
  EXPECT_FALSE(checkpoint.activation.active.empty());
  int64_t active = 0;
  for (uint8_t a : checkpoint.activation.active) active += a;
  EXPECT_LT(active, static_cast<int64_t>(checkpoint.activation.active.size()));
}

TEST(PrunedFitTest, DisabledPruningMatchesDefaultConfigBitExactly) {
  synth::SyntheticWorld world = TestWorld(250, 29);
  FitHarness harness(world);
  MlpConfig config;
  config.burn_in_iterations = 3;
  config.sampling_iterations = 3;
  Result<MlpResult> base = MlpModel(config).Fit(harness.input);
  MlpConfig no_prune = config;
  no_prune.prune_floor = 0.0;  // the --no_prune path, explicit
  no_prune.prune_patience = 7;  // irrelevant while floor == 0
  Result<MlpResult> off = MlpModel(no_prune).Fit(harness.input);
  ASSERT_TRUE(base.ok() && off.ok());
  EXPECT_EQ(base->home, off->home);
  EXPECT_EQ(base->home_change_per_sweep, off->home_change_per_sweep);
  for (size_t u = 0; u < base->profiles.size(); ++u) {
    EXPECT_EQ(base->profiles[u].entries(), off->profiles[u].entries());
  }
}

}  // namespace
}  // namespace core
}  // namespace mlp
