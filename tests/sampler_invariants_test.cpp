// Property tests on the Gibbs sampler's internal invariants: the
// sufficient statistics must stay consistent with the chain state after
// any number of sweeps, noise flags must obey their priors' edge cases,
// and the d^α table must honor its floor.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/model.h"
#include "core/pow_table.h"
#include "core/priors.h"
#include "core/random_models.h"
#include "core/sampler.h"
#include "stats/alias_table.h"
#include "eval/cross_validation.h"
#include "synth/world_generator.h"

namespace mlp {
namespace core {
namespace {

class SamplerInvariantsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::WorldConfig config;
    config.num_users = 500;
    config.seed = 99;
    world_ = new synth::SyntheticWorld(
        std::move(synth::GenerateWorld(config).ValueOrDie()));
    referents_ = new std::vector<std::vector<geo::CityId>>(
        world_->vocab->ReferentTable());
  }
  static void TearDownTestSuite() {
    delete world_;
    delete referents_;
  }

  ModelInput MakeInput() const {
    ModelInput input;
    input.gazetteer = world_->gazetteer.get();
    input.graph = world_->graph.get();
    input.distances = world_->distances.get();
    input.venue_referents = referents_;
    input.observed_home = eval::RegisteredHomes(*world_->graph);
    return input;
  }

  static synth::SyntheticWorld* world_;
  static std::vector<std::vector<geo::CityId>>* referents_;
};

synth::SyntheticWorld* SamplerInvariantsTest::world_ = nullptr;
std::vector<std::vector<geo::CityId>>* SamplerInvariantsTest::referents_ =
    nullptr;

class SweepCountTest : public SamplerInvariantsTest,
                       public ::testing::WithParamInterface<int> {};

TEST_P(SweepCountTest, HomesAlwaysValidCandidatesAfterSweeps) {
  ModelInput input = MakeInput();
  MlpConfig config;
  CandidateSpace space = CandidateSpace::Build(input, config);
  RandomModels models = RandomModels::Learn(*input.graph);
  PowTable pow_table(input.distances, config.alpha);
  GibbsSampler sampler(&input, &config, &space, &models, &pow_table);
  Pcg32 rng(5);
  sampler.Initialize(&rng);
  for (int i = 0; i < GetParam(); ++i) sampler.RunSweep(&rng);

  std::vector<geo::CityId> homes = sampler.CurrentHomes();
  ASSERT_EQ(static_cast<int>(homes.size()), input.num_users());
  for (graph::UserId u = 0; u < input.num_users(); ++u) {
    EXPECT_GE(space.SlotOf(u, homes[u]), 0)
        << "home of user " << u << " not in its candidate set";
  }
}

INSTANTIATE_TEST_SUITE_P(Sweeps, SweepCountTest, ::testing::Values(0, 1, 5));

TEST_F(SamplerInvariantsTest, ResultExplanationsStayInCandidateSets) {
  ModelInput input = MakeInput();
  MlpConfig config;
  config.burn_in_iterations = 3;
  config.sampling_iterations = 4;
  MlpModel model(config);
  Result<MlpResult> result = model.Fit(input);
  ASSERT_TRUE(result.ok());
  CandidateSpace space = CandidateSpace::Build(input, config);
  for (graph::EdgeId s = 0; s < input.graph->num_following(); ++s) {
    const graph::FollowingEdge& e = input.graph->following(s);
    EXPECT_GE(space.SlotOf(e.follower, result->following[s].x), 0);
    EXPECT_GE(space.SlotOf(e.friend_user, result->following[s].y), 0);
    EXPECT_GE(result->following[s].noise_prob, 0.0);
    EXPECT_LE(result->following[s].noise_prob, 1.0);
  }
  for (graph::EdgeId k = 0; k < input.graph->num_tweeting(); ++k) {
    const graph::TweetingEdge& e = input.graph->tweeting(k);
    EXPECT_GE(space.SlotOf(e.user, result->tweeting[k].z), 0);
  }
}

TEST_F(SamplerInvariantsTest, ZeroRhoNeverFlagsNoise) {
  ModelInput input = MakeInput();
  MlpConfig config;
  config.rho_f = 0.0;
  config.rho_t = 0.0;
  config.burn_in_iterations = 2;
  config.sampling_iterations = 3;
  MlpModel model(config);
  Result<MlpResult> result = model.Fit(input);
  ASSERT_TRUE(result.ok());
  for (const FollowingExplanation& ex : result->following) {
    EXPECT_DOUBLE_EQ(ex.noise_prob, 0.0);
  }
  for (const TweetExplanation& ex : result->tweeting) {
    EXPECT_DOUBLE_EQ(ex.noise_prob, 0.0);
  }
}

TEST_F(SamplerInvariantsTest, ModelNoiseOffEqualsZeroRho) {
  ModelInput input = MakeInput();
  MlpConfig a;
  a.model_noise = false;
  a.burn_in_iterations = 2;
  a.sampling_iterations = 3;
  MlpConfig b = a;
  b.model_noise = true;
  b.rho_f = 0.0;
  b.rho_t = 0.0;
  Result<MlpResult> ra = MlpModel(a).Fit(input);
  Result<MlpResult> rb = MlpModel(b).Fit(input);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra->home, rb->home);
}

TEST_F(SamplerInvariantsTest, AssignmentHistogramBoundedByLabeledEdges) {
  ModelInput input = MakeInput();
  MlpConfig config;
  CandidateSpace space = CandidateSpace::Build(input, config);
  RandomModels models = RandomModels::Learn(*input.graph);
  PowTable pow_table(input.distances, config.alpha);
  GibbsSampler sampler(&input, &config, &space, &models, &pow_table);
  Pcg32 rng(7);
  sampler.Initialize(&rng);
  for (int i = 0; i < 3; ++i) sampler.RunSweep(&rng);
  sampler.ResetAccumulators();
  for (int i = 0; i < 4; ++i) {
    sampler.RunSweep(&rng);
    sampler.AccumulateSample();
  }
  int labeled_edges = 0;
  for (graph::EdgeId s = 0; s < input.graph->num_following(); ++s) {
    const graph::FollowingEdge& e = input.graph->following(s);
    if (input.IsLabeled(e.follower) && input.IsLabeled(e.friend_user)) {
      ++labeled_edges;
    }
  }
  std::vector<double> hist = sampler.AssignmentDistanceHistogram(4000);
  double total = 0.0;
  for (double h : hist) total += h;
  // Averaged over samples, at most one count per labeled location-based
  // edge.
  EXPECT_LE(total, static_cast<double>(labeled_edges) + 1e-9);
  EXPECT_GT(total, 0.0);
}

// ------------------------------------------ packed alias-MH bit-exactness

// Reference alias-MH step over three parallel arrays — the layout the
// packed ProposalRecord rows replaced: alias buckets from
// AliasTable::BuildInto, draws via AliasTable::SampleFrom, stale weights in
// `w`, and γ / candidate cities read from their own arrays. The packed
// GibbsSampler::MhResampleSlot must replay it draw for draw.
constexpr int kReferenceMhRounds = 3;  // GibbsSampler's kMhRounds

struct ReferenceRow {
  std::vector<double> w;
  std::vector<double> prob;
  std::vector<int32_t> alias;
};

ReferenceRow BuildReferenceRow(const std::vector<double>& phi_stale,
                               const std::vector<double>& gamma) {
  const int n = static_cast<int>(gamma.size());
  ReferenceRow row;
  row.w.resize(n);
  row.prob.resize(n);
  row.alias.resize(n);
  for (int l = 0; l < n; ++l) {
    const double w = phi_stale[l] + gamma[l];
    row.w[l] = w > 0.0 ? w : 0.0;
  }
  stats::AliasBuildScratch scratch;
  stats::AliasTable::BuildInto(row.w.data(), n, row.prob.data(),
                               row.alias.data(), &scratch);
  return row;
}

// `factor(l)` is the target's non-count factor: d^α to the anchor, or 1
// when unanchored.
template <typename Factor>
int ReferenceMhResample(const ReferenceRow& row, const double* phi_u,
                        const std::vector<double>& gamma, int cur,
                        const Factor& factor, bool scaled, Pcg32* rng,
                        GibbsScratch* scratch) {
  const int n = static_cast<int>(gamma.size());
  if (n <= 1) return 0;
  auto target = [&](int l) {
    double t = phi_u[l] + gamma[l];
    if (t < 0.0) t = 0.0;
    if (scaled) t *= factor(l);
    return t;
  };
  double t_cur = target(cur);
  for (int round = 0; round < kReferenceMhRounds; ++round) {
    const int prop = stats::AliasTable::SampleFrom(
        row.prob.data(), row.alias.data(), n, rng);
    if (prop == cur) continue;
    const double t_prop = target(prop);
    const double num = t_prop * row.w[cur];
    const double den = t_cur * row.w[prop];
    const bool accept =
        den > 0.0 ? rng->NextDouble() * den < num : num > 0.0;
    ++scratch->mh_proposed;
    scratch->mh_accepted += accept ? 1 : 0;
    if (accept) {
      cur = prop;
      t_cur = t_prop;
    }
  }
  return cur;
}

void ExpectSameRngState(const Pcg32& a, const Pcg32& b, int trial) {
  const Pcg32State sa = a.SaveState();
  const Pcg32State sb = b.SaveState();
  EXPECT_EQ(sa.state, sb.state) << "trial " << trial;
  EXPECT_EQ(sa.inc, sb.inc) << "trial " << trial;
  EXPECT_EQ(sa.has_cached_normal, sb.has_cached_normal) << "trial " << trial;
}

TEST_F(SamplerInvariantsTest, PackedMhStepMatchesThreeArrayReference) {
  ModelInput input = MakeInput();
  MlpConfig config;
  CandidateSpace space = CandidateSpace::Build(input, config);
  RandomModels models = RandomModels::Learn(*input.graph);
  PowTable pow_table(input.distances, config.alpha);
  GibbsSampler sampler(&input, &config, &space, &models, &pow_table);
  const int num_cities = input.num_locations();

  const int kSizes[] = {1, 2, 3, 5, 8, 17, 40};
  enum Target { kUnanchored, kAnchored };
  Pcg32 gen(2024);
  ProposalBuildScratch build_scratch;
  int64_t moves = 0;
  bool saw_zero_row = false, saw_negative = false;
  for (int trial = 0; trial < 3000; ++trial) {
    const int n = kSizes[trial % 7];
    const Target kind = static_cast<Target>((trial / 7) % 2);
    // Row shape: 1 in 5 rows has every stale weight at zero (the
    // degenerate uniform table); otherwise stale ϕ are small counts.
    const bool zero_row = (trial / 21) % 5 == 0;
    std::vector<geo::CityId> cities(n);
    std::vector<double> gamma(n), phi_stale(n), phi_live(n);
    for (int l = 0; l < n; ++l) {
      cities[l] = static_cast<geo::CityId>(gen.UniformU32(num_cities));
      gamma[l] = 0.01 + 2.0 * gen.NextDouble();
      phi_stale[l] = zero_row ? -gamma[l] - gen.NextDouble()
                              : static_cast<double>(gen.UniformU32(6));
      // Live counts drift from the stale row; 1 in 6 slots is negative,
      // as an unchecked restored snapshot may hold, and the target clamps
      // it to zero.
      phi_live[l] = gen.UniformU32(6) == 0
                        ? -gamma[l] - 1.0 - gen.NextDouble()
                        : static_cast<double>(gen.UniformU32(8));
      saw_negative = saw_negative || phi_live[l] + gamma[l] < 0.0;
    }
    saw_zero_row = saw_zero_row || zero_row;
    const int cur = static_cast<int>(gen.UniformU32(n));
    const geo::CityId anchor =
        static_cast<geo::CityId>(gen.UniformU32(num_cities));

    const ReferenceRow ref_row = BuildReferenceRow(phi_stale, gamma);
    std::vector<ProposalRecord> records(n);
    ProposalTables::FillRow(phi_stale.data(), gamma.data(), cities.data(), n,
                            records.data(), &build_scratch);

    const uint64_t seed = gen.NextU64();
    Pcg32 ref_rng(seed, 7);
    Pcg32 packed_rng(seed, 7);
    GibbsScratch ref_tally;
    GibbsScratch packed_tally;
    int ref_slot = -1;
    int packed_slot = -1;
    switch (kind) {
      case kUnanchored:
        ref_slot = ReferenceMhResample(
            ref_row, phi_live.data(), gamma, cur, [](int) { return 1.0; },
            false, &ref_rng, &ref_tally);
        packed_slot = sampler.MhResampleSlot(records.data(), n,
                                             phi_live.data(), cur,
                                             geo::kInvalidCity, &packed_rng,
                                             &packed_tally);
        break;
      case kAnchored:
        ref_slot = ReferenceMhResample(
            ref_row, phi_live.data(), gamma, cur,
            [&](int l) { return pow_table.Get(cities[l], anchor); }, true,
            &ref_rng, &ref_tally);
        packed_slot = sampler.MhResampleSlot(records.data(), n,
                                             phi_live.data(), cur, anchor,
                                             &packed_rng, &packed_tally);
        break;
    }
    ASSERT_EQ(packed_slot, ref_slot) << "trial " << trial << " n=" << n;
    ExpectSameRngState(packed_rng, ref_rng, trial);
    EXPECT_EQ(packed_tally.mh_proposed, ref_tally.mh_proposed)
        << "trial " << trial;
    EXPECT_EQ(packed_tally.mh_accepted, ref_tally.mh_accepted)
        << "trial " << trial;
    moves += ref_slot != cur ? 1 : 0;
  }
  // The trials exercised what they were built to: degenerate rows, clamped
  // transients, and real moves (not a chain that never leaves `cur`).
  EXPECT_TRUE(saw_zero_row);
  EXPECT_TRUE(saw_negative);
  EXPECT_GT(moves, 100);
}

// ------------------------------------------------------------- pow table

TEST(PowTableFloorTest, FloorRaisesShortDistances) {
  geo::Gazetteer gaz = geo::Gazetteer::FromEmbedded();
  geo::CityDistanceMatrix dist(gaz, 1.0);
  PowTable floored(&dist, -0.5, /*floor_miles=*/10.0);
  geo::CityId austin = gaz.Find("Austin", "TX");
  geo::CityId rr = gaz.Find("Round Rock", "TX");  // ~17 miles apart
  // Same city: max(0, 10)^-0.5.
  EXPECT_NEAR(floored.Get(austin, austin), std::pow(10.0, -0.5), 1e-6);
  // 17 miles: above the floor, so the true distance applies.
  EXPECT_NEAR(floored.Get(austin, rr),
              std::pow(dist.raw_miles(austin, rr), -0.5), 1e-5);
  EXPECT_DOUBLE_EQ(floored.floor_miles(), 10.0);
}

TEST(PowTableFloorTest, FloorNeverBelowMatrixFloor) {
  geo::Gazetteer gaz = geo::Gazetteer::FromEmbedded();
  geo::CityDistanceMatrix dist(gaz, 5.0);
  PowTable table(&dist, -0.5, /*floor_miles=*/1.0);
  EXPECT_DOUBLE_EQ(table.floor_miles(), 5.0);
}

}  // namespace
}  // namespace core
}  // namespace mlp
