// Live ingest+serve daemon (ISSUE 10 / ROADMAP "one-process ingest+serve
// daemon"), stream::LiveIngestor:
//   - a batch renamed into the spool is picked up, applied and atomically
//     swapped into the server (generation bump, new user served), and the
//     resulting model is byte-identical to offline `mlpctl ingest` of the
//     same delta,
//   - malformed and duplicate batches quarantine into failed/ with a
//     receipt.json and leave the served model untouched,
//   - a drain (Stop) finishes cleanly and checkpoints the absorbed model,
//   - an empty spool keeps the idle loop quiescent (no swaps, no applies),
//   - a bad spool directory fails Start() fast, on the caller's thread,
//   - swaps race request threads safely (the TSan shape: watcher thread
//     vs. Handle() vs. SwapReadModel).

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/model.h"
#include "io/model_snapshot.h"
#include "obs/fit_profile.h"
#include "obs/metrics.h"
#include "serve/model_server.h"
#include "serve/read_model.h"
#include "stream/delta_batch.h"
#include "stream/delta_ingest.h"
#include "stream/live_ingest.h"
#include "synth/world_generator.h"

namespace mlp {
namespace stream {
namespace {

namespace fs = std::filesystem;

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

core::MlpResult FitBase(const core::ModelInput& input,
                        core::FitCheckpoint* checkpoint) {
  core::MlpConfig config;
  config.burn_in_iterations = 3;
  config.sampling_iterations = 3;
  config.num_threads = 1;
  core::FitOptions opts;
  opts.checkpoint_out = checkpoint;
  Result<core::MlpResult> result = core::MlpModel(config).Fit(input, opts);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(*result);
}

void WriteFile(const fs::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out.is_open()) << path;
  out << content;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// A fresh, empty spool under the test temp dir.
fs::path FreshSpool(const std::string& name) {
  const fs::path spool = fs::path(::testing::TempDir()) / name;
  fs::remove_all(spool);
  fs::create_directories(spool);
  return spool;
}

/// Stages the standard two-user delta (one labeled, one unlabeled, a few
/// edges onto low-id users) as CSV files under `dir`. `first` is the id
/// the batch's first user will get — the serving world's user count at
/// apply time.
void StageDeltaCsvs(const fs::path& dir, int first) {
  fs::create_directories(dir);
  WriteFile(dir / "users.csv",
            "handle,profile_location,registered_city\n"
            "live_labeled_" + std::to_string(first) + ",\"Austin, TX\",3\n"
            "live_unlabeled_" + std::to_string(first) + ",,-1\n");
  WriteFile(dir / "following.csv",
            "follower,friend\n" + std::to_string(first) + ",0\n" +
                std::to_string(first + 1) + "," + std::to_string(first) +
                "\n1," + std::to_string(first + 1) + "\n");
  WriteFile(dir / "tweeting.csv",
            "user,venue\n" + std::to_string(first) + ",2\n" +
                std::to_string(first + 1) + ",5\n");
}

/// The rename-in protocol a writer follows: stage under tmp.*, rename to
/// batch-NAME (the commit point the watcher keys on).
void SpoolBatch(const fs::path& spool, const std::string& name, int first) {
  const fs::path staging = spool / ("tmp." + name);
  StageDeltaCsvs(staging, first);
  fs::rename(staging, spool / name);
}

serve::HttpRequest UserRequest(int id) {
  serve::HttpRequest request;
  request.method = "GET";
  request.target = "/v1/user/" + std::to_string(id);
  return request;
}

/// Builds the base ReadModel + server for a fitted harness. Routing runs
/// through Handle() — no sockets, so the tests are sanitizer-friendly.
serve::ModelServer MakeServer(const FitHarness& harness,
                              const synth::SyntheticWorld& world,
                              const core::FitCheckpoint& checkpoint,
                              const core::MlpResult& result) {
  io::ModelSnapshot snap =
      io::MakeModelSnapshot(harness.input, checkpoint, result);
  Result<serve::ReadModel> model = serve::ReadModel::Build(
      snap, *world.graph, harness.input.gazetteer);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return serve::ModelServer(std::move(*model), serve::ServeOptions());
}

// -------------------------------------------------------------- apply path

TEST(LiveIngestTest, BatchAppliedSwappedAndByteIdenticalToOffline) {
  synth::SyntheticWorld world = TestWorld(150, 5);
  FitHarness harness(world);
  core::FitCheckpoint checkpoint;
  core::MlpResult result = FitBase(harness.input, &checkpoint);
  serve::ModelServer server = MakeServer(harness, world, checkpoint, result);
  const int base_users = world.graph->num_users();

  const fs::path spool = FreshSpool("live_apply_spool");
  // The offline reference: the SAME CSV bytes applied through the same
  // entry points `mlpctl ingest` uses (LoadDeltaBatch + ApplyDeltaBatch,
  // which runs the one fixed resample program both paths share).
  const fs::path reference = fs::path(::testing::TempDir()) / "live_ref_delta";
  fs::remove_all(reference);
  StageDeltaCsvs(reference, base_users);
  Result<DeltaBatch> delta = LoadDeltaBatch(reference.string());
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  Result<IngestOutput> offline =
      ApplyDeltaBatch(harness.input, checkpoint, result, *delta);
  ASSERT_TRUE(offline.ok()) << offline.status().ToString();
  core::ModelInput merged = harness.input;
  merged.graph = offline->merged_graph.get();
  merged.observed_home = offline->merged_observed_home;
  const std::string offline_snap = ::testing::TempDir() + "/live_offline.snap";
  ASSERT_TRUE(io::SaveModelSnapshot(
                  offline_snap, io::MakeModelSnapshot(
                                    merged, offline->checkpoint,
                                    offline->result))
                  .ok());

  LiveIngestOptions options;
  options.spool_dir = spool.string();
  options.poll_ms = 10;
  LiveIngestor ingestor(&server, harness.input, checkpoint, result, options);
  ASSERT_TRUE(ingestor.Start().ok());

  EXPECT_EQ(server.Handle(UserRequest(base_users)).status, 404);
  SpoolBatch(spool, "batch-0001", base_users);
  ASSERT_TRUE(ingestor.WaitForApplied(1, 30000));

  // Swap landed: generation bumped, the delta user serves, the batch
  // moved to done/ with its files intact.
  EXPECT_EQ(server.model_generation(), 2u);
  EXPECT_EQ(server.Handle(UserRequest(base_users)).status, 200);
  EXPECT_EQ(server.Handle(UserRequest(0)).status, 200);
  EXPECT_FALSE(fs::exists(spool / "batch-0001"));
  EXPECT_TRUE(fs::exists(spool / "done" / "batch-0001" / "users.csv"));
  EXPECT_EQ(ingestor.batches_failed(), 0u);
  EXPECT_GE(ingestor.max_swap_staleness_ms(), 0);

  // The acceptance criterion: the live-spooled model is byte-identical to
  // the offline ingest of the same delta.
  const std::string live_snap = ::testing::TempDir() + "/live_live.snap";
  ASSERT_TRUE(ingestor.SaveSnapshot(live_snap).ok());
  EXPECT_EQ(FileBytes(live_snap), FileBytes(offline_snap));
}

// -------------------------------------------------------------- quarantine

TEST(LiveIngestTest, MalformedAndDuplicateBatchesQuarantined) {
  synth::SyntheticWorld world = TestWorld(120, 9);
  FitHarness harness(world);
  core::FitCheckpoint checkpoint;
  core::MlpResult result = FitBase(harness.input, &checkpoint);
  serve::ModelServer server = MakeServer(harness, world, checkpoint, result);

  const fs::path spool = FreshSpool("live_bad_spool");
  LiveIngestOptions options;
  options.spool_dir = spool.string();
  options.poll_ms = 10;
  LiveIngestor ingestor(&server, harness.input, checkpoint, result, options);
  ASSERT_TRUE(ingestor.Start().ok());
  const std::string body_before = server.Handle(UserRequest(0)).body;

  // Load-stage failure: a users.csv row with a non-numeric city.
  fs::create_directories(spool / "tmp.m");
  WriteFile(spool / "tmp.m" / "users.csv",
            "handle,profile_location,registered_city\nbad,,notanumber\n");
  fs::rename(spool / "tmp.m", spool / "batch-malformed");
  // Apply-stage failure: a duplicate of an existing handle.
  fs::create_directories(spool / "tmp.d");
  WriteFile(spool / "tmp.d" / "users.csv",
            "handle,profile_location,registered_city\n" +
                world.graph->user(7).handle + ",,3\n");
  fs::rename(spool / "tmp.d", spool / "batch-zduplicate");

  ASSERT_TRUE(ingestor.WaitForFailed(2, 30000));

  // Served model untouched: same generation, same bytes, nothing applied.
  EXPECT_EQ(server.model_generation(), 1u);
  EXPECT_EQ(server.Handle(UserRequest(0)).body, body_before);
  EXPECT_EQ(ingestor.batches_applied(), 0u);

  // Both quarantined with machine-readable receipts naming the stage.
  for (const auto& [name, stage] :
       {std::pair<std::string, std::string>{"batch-malformed", "load"},
        std::pair<std::string, std::string>{"batch-zduplicate", "apply"}}) {
    EXPECT_FALSE(fs::exists(spool / name));
    const fs::path receipt = spool / "failed" / name / "receipt.json";
    ASSERT_TRUE(fs::exists(receipt)) << receipt;
    const std::string json = FileBytes(receipt.string());
    EXPECT_NE(json.find("\"stage\":\"" + stage + "\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"error\":"), std::string::npos) << json;
  }
}

// ------------------------------------------------------------------- drain

TEST(LiveIngestTest, DrainCheckpointsAbsorbedModel) {
  synth::SyntheticWorld world = TestWorld(120, 3);
  FitHarness harness(world);
  core::FitCheckpoint checkpoint;
  core::MlpResult result = FitBase(harness.input, &checkpoint);
  serve::ModelServer server = MakeServer(harness, world, checkpoint, result);
  const int base_users = world.graph->num_users();

  const fs::path spool = FreshSpool("live_drain_spool");
  const std::string ckpt = ::testing::TempDir() + "/live_drain.snap";
  fs::remove(ckpt);
  LiveIngestOptions options;
  options.spool_dir = spool.string();
  options.poll_ms = 10;
  options.checkpoint_path = ckpt;
  {
    LiveIngestor ingestor(&server, harness.input, checkpoint, result,
                          options);
    ASSERT_TRUE(ingestor.Start().ok());
    SpoolBatch(spool, "batch-0001", base_users);
    ASSERT_TRUE(ingestor.WaitForApplied(1, 30000));
    ingestor.Stop();

    // The drain checkpoint is the absorbed model, loadable as an ordinary
    // snapshot and identical to what SaveSnapshot reports right now.
    Result<io::ModelSnapshot> reloaded = io::LoadModelSnapshot(ckpt);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    EXPECT_EQ(static_cast<int>(reloaded->result.home.size()),
              base_users + 2);
    const std::string again = ::testing::TempDir() + "/live_drain2.snap";
    ASSERT_TRUE(ingestor.SaveSnapshot(again).ok());
    EXPECT_EQ(FileBytes(ckpt), FileBytes(again));
    // Idempotent: a second Stop (and the destructor's) is a no-op.
    ingestor.Stop();
  }

  // A second start/drain cycle over the same (now empty) spool — the
  // leak-check shape the ASan leg runs: construct, start, stop, destroy.
  {
    LiveIngestor second(&server, harness.input, checkpoint, result, options);
    ASSERT_TRUE(second.Start().ok());
    second.Stop();
  }
}

// ---------------------------------------------------------------- idleness

TEST(LiveIngestTest, EmptySpoolStaysQuiescent) {
  synth::SyntheticWorld world = TestWorld(100, 7);
  FitHarness harness(world);
  core::FitCheckpoint checkpoint;
  core::MlpResult result = FitBase(harness.input, &checkpoint);
  serve::ModelServer server = MakeServer(harness, world, checkpoint, result);

  // The registry is process-global and cumulative across tests: assert on
  // deltas, not absolutes.
  obs::Registry& registry = obs::Registry::Global();
  const uint64_t applied_before =
      registry.GetCounter(obs::kIngestLiveBatchesTotal)->Value();
  const uint64_t apply_count_before =
      registry.GetHistogram(obs::kIngestApplyNs, obs::IngestApplyNsBounds())
          ->GetSnapshot()
          .count;

  const fs::path spool = FreshSpool("live_idle_spool");
  LiveIngestOptions options;
  options.spool_dir = spool.string();
  options.poll_ms = 5;
  LiveIngestor ingestor(&server, harness.input, checkpoint, result, options);
  ASSERT_TRUE(ingestor.Start().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ingestor.Stop();

  EXPECT_EQ(server.model_generation(), 1u);
  EXPECT_EQ(ingestor.batches_applied(), 0u);
  EXPECT_EQ(ingestor.batches_failed(), 0u);
  EXPECT_EQ(registry.GetGauge(obs::kIngestSpoolDepth)->Value(), 0);
  EXPECT_EQ(registry.GetCounter(obs::kIngestLiveBatchesTotal)->Value(),
            applied_before);
  EXPECT_EQ(
      registry.GetHistogram(obs::kIngestApplyNs, obs::IngestApplyNsBounds())
          ->GetSnapshot()
          .count,
      apply_count_before);
}

// ----------------------------------------------------------- startup guard

TEST(LiveIngestTest, StartFailsFastOnBadSpool) {
  synth::SyntheticWorld world = TestWorld(100, 13);
  FitHarness harness(world);
  core::FitCheckpoint checkpoint;
  core::MlpResult result = FitBase(harness.input, &checkpoint);
  serve::ModelServer server = MakeServer(harness, world, checkpoint, result);

  auto make = [&](const LiveIngestOptions& options) {
    return std::make_unique<LiveIngestor>(&server, harness.input, checkpoint,
                                          result, options);
  };

  LiveIngestOptions options;
  options.spool_dir = ::testing::TempDir() + "/live_no_such_spool";
  fs::remove_all(options.spool_dir);
  EXPECT_FALSE(make(options)->Start().ok());

  // A plain file is not a spool either.
  const std::string file_path = ::testing::TempDir() + "/live_spool_file";
  WriteFile(file_path, "not a directory\n");
  options.spool_dir = file_path;
  EXPECT_FALSE(make(options)->Start().ok());

  // Incoherent knobs are rejected before any filesystem work.
  options.spool_dir = FreshSpool("live_guard_spool").string();
  options.poll_ms = 0;
  EXPECT_FALSE(make(options)->Start().ok());
  options.poll_ms = 10;
  options.checkpoint_every = 2;  // ...without a checkpoint path
  EXPECT_FALSE(make(options)->Start().ok());
  options.checkpoint_every = 0;

  // Unwritable spool: the watcher could never quarantine or complete a
  // batch, so Start refuses. Root bypasses permission bits — skip there.
  if (::geteuid() != 0) {
    const fs::path readonly = FreshSpool("live_readonly_spool");
    ::chmod(readonly.c_str(), 0500);
    options.spool_dir = readonly.string();
    EXPECT_FALSE(make(options)->Start().ok());
    ::chmod(readonly.c_str(), 0700);
  }
}

// ------------------------------------------------------------- concurrency

TEST(LiveIngestTest, SwapsRaceRequestThreadsSafely) {
  synth::SyntheticWorld world = TestWorld(150, 21);
  FitHarness harness(world);
  core::FitCheckpoint checkpoint;
  core::MlpResult result = FitBase(harness.input, &checkpoint);
  serve::ModelServer server = MakeServer(harness, world, checkpoint, result);
  const int base_users = world.graph->num_users();

  const fs::path spool = FreshSpool("live_race_spool");
  LiveIngestOptions options;
  options.spool_dir = spool.string();
  options.poll_ms = 5;
  LiveIngestor ingestor(&server, harness.input, checkpoint, result, options);
  ASSERT_TRUE(ingestor.Start().ok());

  // Request threads hammer Handle() across both swaps — the exact shape
  // the TSan matrix leg checks (watcher apply/swap vs. concurrent reads).
  std::atomic<bool> done{false};
  std::atomic<uint64_t> responses{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const serve::HttpResponse response = server.Handle(UserRequest(0));
        if (response.status == 200) {
          responses.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  SpoolBatch(spool, "batch-0001", base_users);
  ASSERT_TRUE(ingestor.WaitForApplied(1, 30000));
  SpoolBatch(spool, "batch-0002", base_users + 2);
  ASSERT_TRUE(ingestor.WaitForApplied(2, 30000));
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(server.model_generation(), 3u);
  EXPECT_GT(responses.load(), 0u);
  EXPECT_EQ(server.Handle(UserRequest(base_users + 3)).status, 200);
}

}  // namespace
}  // namespace stream
}  // namespace mlp
