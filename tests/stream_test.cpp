// Streaming delta ingest (ISSUE 5 / ROADMAP "streaming updates"):
//   - an empty delta is a strict no-op (bit-identical snapshot),
//   - malformed deltas are rejected with clear errors (duplicate user
//     handle, unknown user id, unknown venue),
//   - ingest-then-save-then-load equals ingest-in-memory byte for byte,
//   - shards the delta never touched keep bit-identical counts and chain
//     state (the core locality guarantee of shard-scoped resampling),
//   - a base checkpoint whose sub-shard RNG streams do not fit its thread
//     count is rejected,
//   - serve::ModelServer::SwapReadModel atomically publishes the
//     post-ingest view to a running server.

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/model.h"
#include "io/model_snapshot.h"
#include "serve/model_server.h"
#include "serve/read_model.h"
#include "stream/delta_batch.h"
#include "stream/delta_ingest.h"
#include "synth/world_generator.h"

namespace mlp {
namespace stream {
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
    input.observed_home.reserve(world.graph->num_users());
    for (graph::UserId u = 0; u < world.graph->num_users(); ++u) {
      input.observed_home.push_back(world.graph->user(u).registered_city);
    }
  }
  core::ModelInput input;
  std::vector<std::vector<geo::CityId>> referents;
};

core::MlpConfig SmallConfig(int threads = 1) {
  core::MlpConfig config;
  config.burn_in_iterations = 3;
  config.sampling_iterations = 3;
  config.num_threads = threads;
  return config;
}

// Fits the world to completion and hands back (checkpoint, result).
core::MlpResult FitBase(const core::ModelInput& input,
                        const core::MlpConfig& config,
                        core::FitCheckpoint* checkpoint) {
  core::FitOptions opts;
  opts.checkpoint_out = checkpoint;
  Result<core::MlpResult> result = core::MlpModel(config).Fit(input, opts);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(checkpoint->complete);
  return std::move(*result);
}

// A small, local delta: one labeled and one unlabeled user, a few edges
// stitching them to low-id existing users, two tweets at existing venues.
DeltaBatch SmallDelta(const graph::SocialGraph& base) {
  DeltaBatch delta;
  graph::UserRecord labeled;
  labeled.handle = "delta_labeled";
  labeled.registered_city = 3;
  graph::UserRecord unlabeled;
  unlabeled.handle = "delta_unlabeled";
  unlabeled.registered_city = geo::kInvalidCity;
  delta.users = {labeled, unlabeled};
  const graph::UserId first = base.num_users();
  delta.following = {{first, 0}, {first + 1, first}, {1, first + 1}};
  delta.tweeting = {{first, 2}, {first + 1, 5}};
  return delta;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

core::ModelInput MergedInput(const core::ModelInput& base,
                             const IngestOutput& out) {
  core::ModelInput merged = base;
  merged.graph = out.merged_graph.get();
  merged.observed_home = out.merged_observed_home;
  return merged;
}

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
    EXPECT_EQ(a.following[s].x, b.following[s].x) << "edge " << s;
    EXPECT_EQ(a.following[s].y, b.following[s].y) << "edge " << s;
    EXPECT_EQ(a.following[s].noise_prob, b.following[s].noise_prob);
  }
  ASSERT_EQ(a.tweeting.size(), b.tweeting.size());
  for (size_t k = 0; k < a.tweeting.size(); ++k) {
    EXPECT_EQ(a.tweeting[k].z, b.tweeting[k].z) << "tweet " << k;
    EXPECT_EQ(a.tweeting[k].noise_prob, b.tweeting[k].noise_prob);
  }
}

// ------------------------------------------------------------- validation

TEST(DeltaBatchTest, DuplicateUserHandleRejected) {
  synth::SyntheticWorld world = TestWorld(60, 11);
  DeltaBatch delta;
  graph::UserRecord dup;
  dup.handle = world.graph->user(7).handle;  // already exists
  delta.users = {dup};
  Result<graph::SocialGraph> merged = MergeDelta(*world.graph, delta);
  ASSERT_FALSE(merged.ok());
  EXPECT_NE(merged.status().message().find("already exists"),
            std::string::npos)
      << merged.status().ToString();
  EXPECT_NE(merged.status().message().find(dup.handle), std::string::npos)
      << merged.status().ToString();

  // Two fresh users sharing a handle inside one batch are just as wrong.
  graph::UserRecord fresh;
  fresh.handle = "brand_new";
  delta.users = {fresh, fresh};
  EXPECT_FALSE(MergeDelta(*world.graph, delta).ok());
}

TEST(DeltaBatchTest, UnknownUserInEdgeRejected) {
  synth::SyntheticWorld world = TestWorld(60, 11);
  DeltaBatch delta;
  delta.following = {{world.graph->num_users() + 5, 0}};
  Result<graph::SocialGraph> merged = MergeDelta(*world.graph, delta);
  ASSERT_FALSE(merged.ok());
  EXPECT_NE(merged.status().message().find("references user"),
            std::string::npos)
      << merged.status().ToString();
}

TEST(DeltaBatchTest, UnknownVenueRejected) {
  synth::SyntheticWorld world = TestWorld(60, 11);
  DeltaBatch delta;
  delta.tweeting = {{0, world.graph->num_venues() + 3}};
  Result<graph::SocialGraph> merged = MergeDelta(*world.graph, delta);
  ASSERT_FALSE(merged.ok());
  EXPECT_NE(merged.status().message().find("unknown venue"),
            std::string::npos)
      << merged.status().ToString();
}

// ------------------------------------------------------------ no-op delta

TEST(DeltaIngestTest, EmptyDeltaIsBitIdenticalNoOp) {
  synth::SyntheticWorld world = TestWorld(200, 42);
  FitHarness harness(world);
  core::FitCheckpoint checkpoint;
  core::MlpResult result =
      FitBase(harness.input, SmallConfig(), &checkpoint);

  Result<IngestOutput> ingested =
      ApplyDeltaBatch(harness.input, checkpoint, result, DeltaBatch());
  ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
  EXPECT_EQ(ingested->report.touched_users, 0);
  EXPECT_EQ(ingested->report.shards_touched, 0);
  ExpectIdenticalResults(result, ingested->result);

  // The strongest form of "no-op": re-snapshotting the ingested model
  // produces the exact bytes of the base snapshot.
  const std::string base_path = TempPath("noop_base.snap");
  const std::string ingest_path = TempPath("noop_ingest.snap");
  ASSERT_TRUE(io::SaveModelSnapshot(
                  base_path,
                  io::MakeModelSnapshot(harness.input, checkpoint, result))
                  .ok());
  core::ModelInput merged_input = MergedInput(harness.input, *ingested);
  ASSERT_TRUE(io::SaveModelSnapshot(
                  ingest_path,
                  io::MakeModelSnapshot(merged_input, ingested->checkpoint,
                                        ingested->result))
                  .ok());
  EXPECT_EQ(FileBytes(base_path), FileBytes(ingest_path));
}

// ----------------------------------------------- save/load == in-memory

TEST(DeltaIngestTest, IngestOfLoadedSnapshotMatchesInMemory) {
  synth::SyntheticWorld world = TestWorld(200, 42);
  FitHarness harness(world);
  DeltaBatch delta = SmallDelta(*world.graph);
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    core::FitCheckpoint checkpoint;
    core::MlpResult result =
        FitBase(harness.input, SmallConfig(threads), &checkpoint);

    // In memory: ingest straight from the fit's checkpoint.
    Result<IngestOutput> direct =
        ApplyDeltaBatch(harness.input, checkpoint, result, delta);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();

    // Through disk: save the base model, load it back, ingest the loaded
    // checkpoint/result.
    const std::string base_path = TempPath("roundtrip_base.snap");
    ASSERT_TRUE(io::SaveModelSnapshot(
                    base_path,
                    io::MakeModelSnapshot(harness.input, checkpoint, result))
                    .ok());
    Result<io::ModelSnapshot> loaded = io::LoadModelSnapshot(base_path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    Result<IngestOutput> via_disk = ApplyDeltaBatch(
        harness.input, loaded->checkpoint, loaded->result, delta);
    ASSERT_TRUE(via_disk.ok()) << via_disk.status().ToString();

    ExpectIdenticalResults(direct->result, via_disk->result);

    // And the ingested models serialize to the same bytes — including after
    // an ingest-save-load-save loop (the snapshot format is stable under
    // re-serialization).
    core::ModelInput direct_input = MergedInput(harness.input, *direct);
    core::ModelInput disk_input = MergedInput(harness.input, *via_disk);
    const std::string direct_path = TempPath("roundtrip_direct.snap");
    const std::string disk_path = TempPath("roundtrip_disk.snap");
    ASSERT_TRUE(io::SaveModelSnapshot(
                    direct_path,
                    io::MakeModelSnapshot(direct_input, direct->checkpoint,
                                          direct->result))
                    .ok());
    ASSERT_TRUE(io::SaveModelSnapshot(
                    disk_path,
                    io::MakeModelSnapshot(disk_input, via_disk->checkpoint,
                                          via_disk->result))
                    .ok());
    EXPECT_EQ(FileBytes(direct_path), FileBytes(disk_path));

    Result<io::ModelSnapshot> reloaded = io::LoadModelSnapshot(direct_path);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    const std::string resaved_path = TempPath("roundtrip_resaved.snap");
    ASSERT_TRUE(io::SaveModelSnapshot(
                    resaved_path,
                    io::MakeModelSnapshot(direct_input, reloaded->checkpoint,
                                          reloaded->result))
                    .ok());
    EXPECT_EQ(FileBytes(direct_path), FileBytes(resaved_path));
  }
}

// ------------------------------------------- untouched-shard bit-identity

TEST(DeltaIngestTest, UntouchedShardsAreBitIdentical) {
  synth::SyntheticWorld world = TestWorld(400, 9);
  FitHarness harness(world);
  core::MlpConfig config = SmallConfig(/*threads=*/4);
  core::FitCheckpoint checkpoint;
  core::MlpResult result = FitBase(harness.input, config, &checkpoint);

  // One unlabeled user following user 0: the touched set is {new user,
  // user 0} — at most two of the four shards.
  DeltaBatch delta;
  graph::UserRecord record;
  record.handle = "lonely_delta_user";
  record.registered_city = geo::kInvalidCity;
  delta.users = {record};
  delta.following = {{world.graph->num_users(), 0}};

  Result<IngestOutput> ingested =
      ApplyDeltaBatch(harness.input, checkpoint, result, delta);
  ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
  const core::DeltaReport& report = ingested->report;
  EXPECT_EQ(report.shards_total, 4);
  EXPECT_GE(report.shards_touched, 1);
  EXPECT_LE(report.shards_touched, 2);
  ASSERT_LT(report.shards_touched, report.shards_total);

  // Per-user arena slices line up via each snapshot's candidate layout.
  core::ModelInput merged_input = MergedInput(harness.input, *ingested);
  io::ModelSnapshot base_snap =
      io::MakeModelSnapshot(harness.input, checkpoint, result);
  io::ModelSnapshot new_snap = io::MakeModelSnapshot(
      merged_input, ingested->checkpoint, ingested->result);

  const int old_users = world.graph->num_users();
  int untouched = 0;
  for (graph::UserId u = 0; u < old_users; ++u) {
    if (report.user_resampled[u]) continue;
    ++untouched;
    const int64_t ob = base_snap.phi_offset[u], oe = base_snap.phi_offset[u + 1];
    const int64_t nb = new_snap.phi_offset[u], ne = new_snap.phi_offset[u + 1];
    ASSERT_EQ(oe - ob, ne - nb) << "user " << u;
    for (int64_t i = 0; i < oe - ob; ++i) {
      // Same candidate cities, bit-identical counts.
      ASSERT_EQ(base_snap.candidates[ob + i], new_snap.candidates[nb + i]);
      ASSERT_EQ(checkpoint.sampler.phi[ob + i],
                ingested->checkpoint.sampler.phi[nb + i])
          << "user " << u << " slot " << i;
    }
    EXPECT_EQ(checkpoint.sampler.phi_total[u],
              ingested->checkpoint.sampler.phi_total[u]);
    // Served rows carried verbatim.
    EXPECT_EQ(result.profiles[u].entries(),
              ingested->result.profiles[u].entries());
    EXPECT_EQ(result.home[u], ingested->result.home[u]);
  }
  // With ≤ 2 of 4 roughly balanced shards touched, at least half the base
  // population must have been left alone.
  EXPECT_GE(untouched, old_users / 2);

  // Chain state of never-resampled edges is untouched too.
  for (size_t s = 0; s < checkpoint.sampler.mu.size(); ++s) {
    if (report.following_resampled[s]) continue;
    EXPECT_EQ(checkpoint.sampler.mu[s], ingested->checkpoint.sampler.mu[s]);
    EXPECT_EQ(ingested->result.following[s].x, result.following[s].x);
    EXPECT_EQ(ingested->result.following[s].y, result.following[s].y);
  }
  for (size_t k = 0; k < checkpoint.sampler.nu.size(); ++k) {
    if (report.tweeting_resampled[k]) continue;
    EXPECT_EQ(checkpoint.sampler.nu[k], ingested->checkpoint.sampler.nu[k]);
    EXPECT_EQ(checkpoint.sampler.z_idx[k],
              ingested->checkpoint.sampler.z_idx[k]);
  }

  // The resample runs on the master stream, so the engine's sub-shard
  // streams pass through unchanged.
  ASSERT_EQ(ingested->checkpoint.shard_rngs.size(),
            checkpoint.shard_rngs.size());
  for (size_t k = 0; k < checkpoint.shard_rngs.size(); ++k) {
    const Pcg32State& before = checkpoint.shard_rngs[k];
    const Pcg32State& after = ingested->checkpoint.shard_rngs[k];
    EXPECT_EQ(before.state, after.state) << "stream " << k;
    EXPECT_EQ(before.inc, after.inc) << "stream " << k;
    EXPECT_EQ(before.has_cached_normal, after.has_cached_normal);
    EXPECT_EQ(before.cached_normal, after.cached_normal);
  }

  // The ingested universe advertises a new layout generation.
  EXPECT_EQ(ingested->checkpoint.activation.layout_version,
            checkpoint.activation.layout_version + 1);
}

// A base checkpoint must carry one RNG stream per engine sub-shard of its
// thread count; a short one is rejected, not silently resized.
TEST(DeltaIngestTest, ShardStreamCountMismatchRejected) {
  synth::SyntheticWorld world = TestWorld(150, 5);
  FitHarness harness(world);
  core::FitCheckpoint checkpoint;
  core::MlpResult result =
      FitBase(harness.input, SmallConfig(/*threads=*/4), &checkpoint);
  ASSERT_FALSE(checkpoint.shard_rngs.empty());
  checkpoint.shard_rngs.pop_back();

  Result<IngestOutput> ingested = ApplyDeltaBatch(
      harness.input, checkpoint, result, SmallDelta(*world.graph));
  ASSERT_FALSE(ingested.ok());
  EXPECT_TRUE(ingested.status().IsInvalidArgument())
      << ingested.status().ToString();
}

// ------------------------------------------------------- chained ingests

TEST(DeltaIngestTest, SecondIngestStacksOnFirst) {
  synth::SyntheticWorld world = TestWorld(150, 5);
  FitHarness harness(world);
  core::FitCheckpoint checkpoint;
  core::MlpResult result =
      FitBase(harness.input, SmallConfig(), &checkpoint);

  Result<IngestOutput> first = ApplyDeltaBatch(
      harness.input, checkpoint, result, SmallDelta(*world.graph));
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  core::ModelInput merged_input = MergedInput(harness.input, *first);
  DeltaBatch second_delta;
  graph::UserRecord another;
  another.handle = "second_wave";
  another.registered_city = 8;
  second_delta.users = {another};
  second_delta.following = {{merged_input.graph->num_users(), 2}};
  Result<IngestOutput> second = ApplyDeltaBatch(
      merged_input, first->checkpoint, first->result, second_delta);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->merged_graph->num_users(),
            world.graph->num_users() + 3);
  EXPECT_EQ(second->checkpoint.activation.layout_version,
            checkpoint.activation.layout_version + 2);
  EXPECT_EQ(static_cast<int>(second->result.home.size()),
            world.graph->num_users() + 3);
}

// --------------------------------------------------- serve-layer handoff

TEST(SwapReadModelTest, PublishesIngestedViewAtomically) {
  synth::SyntheticWorld world = TestWorld(150, 5);
  FitHarness harness(world);
  core::FitCheckpoint checkpoint;
  core::MlpResult result =
      FitBase(harness.input, SmallConfig(), &checkpoint);
  Result<IngestOutput> ingested = ApplyDeltaBatch(
      harness.input, checkpoint, result, SmallDelta(*world.graph));
  ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();

  io::ModelSnapshot base_snap =
      io::MakeModelSnapshot(harness.input, checkpoint, result);
  core::ModelInput merged_input = MergedInput(harness.input, *ingested);
  io::ModelSnapshot new_snap = io::MakeModelSnapshot(
      merged_input, ingested->checkpoint, ingested->result);

  Result<serve::ReadModel> base_model = serve::ReadModel::Build(
      base_snap, *world.graph, harness.input.gazetteer);
  ASSERT_TRUE(base_model.ok()) << base_model.status().ToString();
  Result<serve::ReadModel> new_model = serve::ReadModel::Build(
      new_snap, *ingested->merged_graph, harness.input.gazetteer);
  ASSERT_TRUE(new_model.ok()) << new_model.status().ToString();

  serve::ServeOptions options;
  serve::ModelServer server(std::move(*base_model), options);
  // Routing and rendering are exercised through Handle() — no sockets.
  const std::string new_user_target =
      "/v1/user/" + std::to_string(world.graph->num_users());
  serve::HttpRequest request;
  request.method = "GET";

  request.target = "/v1/user/0";
  EXPECT_EQ(server.Handle(request).status, 200);
  const std::string body_before = server.Handle(request).body;
  request.target = new_user_target;
  EXPECT_EQ(server.Handle(request).status, 404);  // not in the base world
  EXPECT_EQ(server.model_generation(), 1u);

  server.SwapReadModel(std::move(*new_model));

  EXPECT_EQ(server.model_generation(), 2u);
  EXPECT_EQ(server.model()->num_users(), world.graph->num_users() + 2);
  request.target = new_user_target;
  EXPECT_EQ(server.Handle(request).status, 200);  // the ingested user
  request.target = "/v1/user/0";
  serve::HttpResponse after = server.Handle(request);
  EXPECT_EQ(after.status, 200);
  // Served from the newly published model: the post-swap body is the new
  // model's pre-rendered bytes, not the pre-swap model's.
  EXPECT_EQ(after.body, std::string(server.model()->UserJson(0)));

  request.target = "/statsz";
  serve::HttpResponse stats = server.Handle(request);
  EXPECT_EQ(stats.status, 200);
  EXPECT_NE(stats.body.find("\"model_generation\":\"2\""), std::string::npos)
      << stats.body;
}

}  // namespace
}  // namespace stream
}  // namespace mlp
