// Tests for src/engine: the thread pool, the graph sharder's partition
// invariants, and the parallel Gibbs engine's determinism contract —
// num_threads == 1 is bit-identical to the sequential sampler, and
// num_threads == N replays the exact same chain run over run.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/candidate_space.h"
#include "core/model.h"
#include "core/pow_table.h"
#include "core/random_models.h"
#include "core/sampler.h"
#include "engine/graph_sharder.h"
#include "engine/parallel_gibbs.h"
#include "engine/thread_pool.h"
#include "obs/fit_profile.h"
#include "obs/metrics.h"
#include "synth/world_generator.h"

namespace mlp {
namespace engine {
namespace {

// ------------------------------------------------------------ thread pool

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 5; ++batch) {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), (batch + 1) * 10);
  }
}

TEST(ThreadPoolTest, ClampsToOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, DrainFinishesQueuedAndInFlightWork) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(pool.Submit([&counter] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      counter.fetch_add(1);
    }));
  }
  pool.Drain();
  // Everything admitted before Drain completed; nothing was dropped.
  EXPECT_EQ(counter.load(), 50);
  EXPECT_TRUE(pool.draining());
}

TEST(ThreadPoolTest, SubmitAfterDrainIsRejected) {
  ThreadPool pool(2);
  pool.Drain();
  std::atomic<int> counter{0};
  EXPECT_FALSE(pool.Submit([&counter] { counter.fetch_add(1); }));
  // The rejected task never runs, and a second Drain is a safe no-op.
  pool.Drain();
  EXPECT_EQ(counter.load(), 0);
}

TEST(ThreadPoolTest, DrainIsSafeFromMultipleThreads) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  std::thread other([&pool] { pool.Drain(); });
  pool.Drain();
  other.join();
  EXPECT_EQ(counter.load(), 100);
}

// ---------------------------------------------------------- graph sharder

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
    input.observed_home.reserve(world.graph->num_users());
    for (graph::UserId u = 0; u < world.graph->num_users(); ++u) {
      input.observed_home.push_back(world.graph->user(u).registered_city);
    }
  }
  core::ModelInput input;
  std::vector<std::vector<geo::CityId>> referents;
};

TEST(GraphSharderTest, EveryUserAndEdgeAssignedExactlyOnce) {
  synth::SyntheticWorld world = TestWorld(400, 7);
  const graph::SocialGraph& graph = *world.graph;
  for (int k : {1, 2, 3, 8}) {
    std::vector<Shard> shards = GraphSharder::Partition(graph, k);
    ASSERT_EQ(static_cast<int>(shards.size()), k);

    std::set<graph::UserId> users;
    std::set<graph::EdgeId> following, tweeting;
    std::size_t user_total = 0, follow_total = 0, tweet_total = 0;
    for (const Shard& shard : shards) {
      users.insert(shard.users.begin(), shard.users.end());
      following.insert(shard.following.begin(), shard.following.end());
      tweeting.insert(shard.tweeting.begin(), shard.tweeting.end());
      user_total += shard.users.size();
      follow_total += shard.following.size();
      tweet_total += shard.tweeting.size();
    }
    // Exactly once: no duplicates (set size == summed size) and complete.
    EXPECT_EQ(user_total, users.size());
    EXPECT_EQ(follow_total, following.size());
    EXPECT_EQ(tweet_total, tweeting.size());
    EXPECT_EQ(static_cast<int>(users.size()), graph.num_users());
    EXPECT_EQ(static_cast<int>(following.size()), graph.num_following());
    EXPECT_EQ(static_cast<int>(tweeting.size()), graph.num_tweeting());
  }
}

TEST(GraphSharderTest, EdgesFollowTheirOwningUser) {
  synth::SyntheticWorld world = TestWorld(200, 11);
  const graph::SocialGraph& graph = *world.graph;
  std::vector<Shard> shards = GraphSharder::Partition(graph, 4);
  for (const Shard& shard : shards) {
    std::set<graph::UserId> members(shard.users.begin(), shard.users.end());
    for (graph::EdgeId s : shard.following) {
      EXPECT_TRUE(members.count(graph.following(s).follower));
    }
    for (graph::EdgeId t : shard.tweeting) {
      EXPECT_TRUE(members.count(graph.tweeting(t).user));
    }
  }
}

TEST(GraphSharderTest, ShardWeightsWithinTwiceBalanced) {
  synth::SyntheticWorld world = TestWorld(600, 3);
  const graph::SocialGraph& graph = *world.graph;
  for (int k : {2, 4, 8}) {
    std::vector<Shard> shards = GraphSharder::Partition(graph, k);
    std::size_t total = 0;
    for (const Shard& shard : shards) total += shard.Weight();
    double balanced = static_cast<double>(total) / k;
    for (const Shard& shard : shards) {
      EXPECT_LE(static_cast<double>(shard.Weight()), 2.0 * balanced)
          << "shard overloaded at k=" << k;
    }
  }
}

// Max shard cost relative to the mean shard cost under a given per-user
// cost vector.
double MaxOverMeanCost(const std::vector<Shard>& shards,
                       const std::vector<double>& cost) {
  double total = 0.0, worst = 0.0;
  for (const Shard& shard : shards) {
    double load = 0.0;
    for (graph::UserId u : shard.users) load += cost[u];
    total += load;
    worst = std::max(worst, load);
  }
  return total > 0.0 ? worst / (total / shards.size()) : 1.0;
}

// Cost-weighted LPT under a power-law degree distribution: per-user costs
// spanning several orders of magnitude (celebrity users dominate, like the
// blocked update's |cand_i|·|cand_j| inner loops) must still land within
// 1.25x of the mean shard cost.
TEST(GraphSharderTest, PowerLawCostsBalanceWithin125PercentOfMean) {
  synth::SyntheticWorld world = TestWorld(600, 19);
  const graph::SocialGraph& graph = *world.graph;
  // Deterministic Zipf-ish synthetic cost: heavy head, long tail.
  std::vector<double> cost(graph.num_users());
  for (graph::UserId u = 0; u < graph.num_users(); ++u) {
    cost[u] = 1.0 + 50000.0 / static_cast<double>(1 + u);
  }
  for (int k : {2, 4, 8}) {
    std::vector<Shard> shards = GraphSharder::Partition(graph, k, cost);
    EXPECT_LE(MaxOverMeanCost(shards, cost), 1.25)
        << "power-law shard imbalance at k=" << k;
  }
}

// Mid-fit cost re-estimation: after a prune shrinks some users' candidate
// rows (and thereby their sampling cost) far more than others', the shards
// derived from the OLD costs can be arbitrarily unbalanced — re-running
// the sharder over the new costs must restore <= 1.25x of the mean.
TEST(GraphSharderTest, CostReestimationAfterPruneRebalances) {
  synth::SyntheticWorld world = TestWorld(500, 23);
  FitHarness harness(world);
  const graph::SocialGraph& graph = *harness.input.graph;
  core::MlpConfig config;
  core::CandidateSpace space =
      core::CandidateSpace::Build(harness.input, config);

  auto edge_costs = [&](const core::CandidateSpace& s) {
    std::vector<double> cost(graph.num_users(), 0.0);
    for (graph::EdgeId e = 0; e < graph.num_following(); ++e) {
      const graph::FollowingEdge& edge = graph.following(e);
      cost[edge.follower] +=
          static_cast<double>(s.view(edge.follower).size()) *
          static_cast<double>(s.view(edge.friend_user).size());
    }
    for (graph::EdgeId t = 0; t < graph.num_tweeting(); ++t) {
      cost[graph.tweeting(t).user] +=
          static_cast<double>(s.view(graph.tweeting(t).user).size());
    }
    return cost;
  };

  const int k = 4;
  std::vector<double> cost_before = edge_costs(space);
  std::vector<Shard> shards = GraphSharder::Partition(graph, k, cost_before);
  EXPECT_LE(MaxOverMeanCost(shards, cost_before), 1.25);

  // Simulate a mid-fit prune: keep only the first two candidates of every
  // even-id user (their inner loops collapse; odd users keep full rows).
  core::CandidateActivation activation;
  activation.active.assign(space.full_size(), 1);
  activation.layout_version = 1;
  int64_t slot = 0;
  for (graph::UserId u = 0; u < space.num_users(); ++u) {
    for (int l = 0; l < space.full_count(u); ++l, ++slot) {
      if (u % 2 == 0 && l >= 2) activation.active[slot] = 0;
    }
  }
  ASSERT_TRUE(space.RestoreActivation(activation).ok());
  std::vector<double> cost_after = edge_costs(space);

  // Re-estimated shards track the shrunken inner loops.
  std::vector<Shard> resharded = GraphSharder::Partition(graph, k, cost_after);
  EXPECT_LE(MaxOverMeanCost(resharded, cost_after), 1.25)
      << "re-estimated LPT lost balance after the prune";
}

// --------------------------------------------------- parallel Gibbs engine

void ExpectIdenticalResults(const core::MlpResult& a,
                            const core::MlpResult& b) {
  ASSERT_EQ(a.home.size(), b.home.size());
  EXPECT_EQ(a.home, b.home);
  ASSERT_EQ(a.profiles.size(), b.profiles.size());
  for (size_t u = 0; u < a.profiles.size(); ++u) {
    EXPECT_EQ(a.profiles[u].entries(), b.profiles[u].entries()) << "user " << u;
  }
  ASSERT_EQ(a.following.size(), b.following.size());
  for (size_t s = 0; s < a.following.size(); ++s) {
    EXPECT_EQ(a.following[s].x, b.following[s].x);
    EXPECT_EQ(a.following[s].y, b.following[s].y);
    EXPECT_EQ(a.following[s].noise_prob, b.following[s].noise_prob);
  }
  ASSERT_EQ(a.tweeting.size(), b.tweeting.size());
  for (size_t k = 0; k < a.tweeting.size(); ++k) {
    EXPECT_EQ(a.tweeting[k].z, b.tweeting[k].z);
    EXPECT_EQ(a.tweeting[k].noise_prob, b.tweeting[k].noise_prob);
  }
}

// The engine at num_threads == 1 must consume the caller's RNG exactly like
// the raw sequential sampler: bit-identical chain, trace and result.
TEST(ParallelGibbsEngineTest, OneThreadBitIdenticalToSequentialSampler) {
  synth::SyntheticWorld world = TestWorld(250, 42);
  FitHarness harness(world);
  core::MlpConfig config;
  config.burn_in_iterations = 3;
  config.sampling_iterations = 4;

  core::CandidateSpace space = core::CandidateSpace::Build(harness.input, config);
  core::RandomModels random_models =
      core::RandomModels::Learn(*harness.input.graph);
  core::PowTable pow_table(harness.input.distances, config.alpha,
                           config.distance_floor_miles);

  auto run = [&](bool through_engine) {
    core::GibbsSampler sampler(&harness.input, &config, &space,
                               &random_models, &pow_table);
    ParallelGibbsEngine engine(&sampler, &harness.input, &config);
    Pcg32 rng(config.seed, 0x5bd1e995u);
    if (through_engine) {
      engine.Initialize(&rng);
    } else {
      sampler.Initialize(&rng);
    }
    for (int it = 0; it < config.burn_in_iterations; ++it) {
      through_engine ? engine.RunSweep(&rng) : sampler.RunSweep(&rng);
    }
    sampler.ResetAccumulators();
    for (int it = 0; it < config.sampling_iterations; ++it) {
      through_engine ? engine.RunSweep(&rng) : sampler.RunSweep(&rng);
      sampler.AccumulateSample();
    }
    return sampler.BuildResult();
  };

  core::MlpResult sequential = run(false);
  core::MlpResult engine_one_thread = run(true);
  ExpectIdenticalResults(sequential, engine_one_thread);
  EXPECT_EQ(sequential.home_change_per_sweep,
            engine_one_thread.home_change_per_sweep);
}

// Whole-model equivalence: Fit with num_threads == 1 equals Fit with the
// engine fields untouched (the default path).
TEST(ParallelGibbsEngineTest, FitOneThreadMatchesDefault) {
  synth::SyntheticWorld world = TestWorld(200, 5);
  FitHarness harness(world);
  core::MlpConfig config;
  config.burn_in_iterations = 2;
  config.sampling_iterations = 3;

  Result<core::MlpResult> base = core::MlpModel(config).Fit(harness.input);
  ASSERT_TRUE(base.ok());
  config.num_threads = 1;
  Result<core::MlpResult> one = core::MlpModel(config).Fit(harness.input);
  ASSERT_TRUE(one.ok());
  ExpectIdenticalResults(*base, *one);
}

// Same seed and thread count twice -> identical homes and profiles, no
// matter how the OS schedules the workers.
TEST(ParallelGibbsEngineTest, MultiThreadRunsAreDeterministic) {
  synth::SyntheticWorld world = TestWorld(250, 13);
  FitHarness harness(world);
  core::MlpConfig config;
  config.burn_in_iterations = 3;
  config.sampling_iterations = 3;
  config.num_threads = 3;

  Result<core::MlpResult> first = core::MlpModel(config).Fit(harness.input);
  ASSERT_TRUE(first.ok());
  Result<core::MlpResult> second = core::MlpModel(config).Fit(harness.input);
  ASSERT_TRUE(second.ok());
  ExpectIdenticalResults(*first, *second);
}

// Determinism must survive the dynamic scheduler AND a mid-fit reshard:
// with pruning aggressive enough to fire (patience 1), ReshardByCost
// repartitions the sub-shards and resets the cost EWMAs mid-chain. The
// fold-revert protocol makes the wall-clock-driven work queue semantically
// neutral, so two runs still replay the exact same chain.
TEST(ParallelGibbsEngineTest, MultiThreadDeterministicUnderRebalancing) {
  synth::SyntheticWorld world = TestWorld(250, 29);
  FitHarness harness(world);
  core::MlpConfig config;
  config.burn_in_iterations = 5;
  config.sampling_iterations = 3;
  config.num_threads = 3;
  config.prune_floor = 0.02;
  config.prune_patience = 1;

  const std::map<std::string, uint64_t> before =
      obs::Registry::Global().CounterValues();
  Result<core::MlpResult> first = core::MlpModel(config).Fit(harness.input);
  ASSERT_TRUE(first.ok());
  const std::map<std::string, uint64_t> after =
      obs::Registry::Global().CounterValues();
  // The test only means something if a reshard actually happened.
  auto rebalance_ns = [](const std::map<std::string, uint64_t>& counters) {
    auto it = counters.find(obs::kFitRebalanceNs);
    return it == counters.end() ? uint64_t{0} : it->second;
  };
  ASSERT_GT(rebalance_ns(after), rebalance_ns(before))
      << "prune never fired; tighten prune_floor so the reshard path runs";

  Result<core::MlpResult> second = core::MlpModel(config).Fit(harness.input);
  ASSERT_TRUE(second.ok());
  ExpectIdenticalResults(*first, *second);
}

// The delta merge must keep the global counts exactly consistent: every
// per-user row sums to its total, and nothing goes negative.
TEST(ParallelGibbsEngineTest, MergedCountsStayConsistent) {
  synth::SyntheticWorld world = TestWorld(250, 21);
  FitHarness harness(world);
  core::MlpConfig config;
  config.num_threads = 4;

  core::CandidateSpace space = core::CandidateSpace::Build(harness.input, config);
  core::RandomModels random_models =
      core::RandomModels::Learn(*harness.input.graph);
  core::PowTable pow_table(harness.input.distances, config.alpha,
                           config.distance_floor_miles);
  core::GibbsSampler sampler(&harness.input, &config, &space, &random_models,
                             &pow_table);
  ParallelGibbsEngine engine(&sampler, &harness.input, &config);
  Pcg32 rng(config.seed, 0x5bd1e995u);
  engine.Initialize(&rng);
  for (int it = 0; it < 4; ++it) engine.RunSweep(&rng);

  const core::SuffStatsArena& stats = sampler.stats();
  const core::SuffStatsLayout& layout = sampler.layout();
  double phi_mass = 0.0;
  for (graph::UserId u = 0; u < layout.num_users; ++u) {
    const double* phi_u = stats.phi_row(u);
    double row = 0.0;
    for (int l = 0; l < layout.candidate_count(u); ++l) {
      EXPECT_GE(phi_u[l], 0.0);
      row += phi_u[l];
    }
    EXPECT_DOUBLE_EQ(row, stats.phi_total[u]) << "user " << u;
    phi_mass += row;
  }
  // Location-based relationships contribute two phi counts (following) or
  // one (tweeting); noise-flagged ones contribute none. The ceiling is
  // every relationship location-based.
  EXPECT_LE(phi_mass, 2.0 * harness.input.graph->num_following() +
                          harness.input.graph->num_tweeting());
  EXPECT_GT(phi_mass, 0.0);

  double venue_mass = 0.0;
  for (int32_t l = 0; l < layout.num_locations; ++l) {
    const double* venues = stats.venue_row(l);
    double row = 0.0;
    for (int v = 0; v < layout.num_venues; ++v) {
      EXPECT_GE(venues[v], 0.0);
      row += venues[v];
    }
    EXPECT_DOUBLE_EQ(row, stats.venue_counts_total[l]) << "location " << l;
    venue_mass += row;
  }
  EXPECT_LE(venue_mass, harness.input.graph->num_tweeting());
}

}  // namespace
}  // namespace engine
}  // namespace mlp
