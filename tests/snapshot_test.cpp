// Tests for the model snapshot / warm-start subsystem: byte-exact
// round-trips of the arena through src/io/model_snapshot, rejection of
// corrupt / foreign / version-skewed files, and the core warm-start
// contract — an interrupted fit resumed from its checkpoint reproduces
// the uninterrupted fit exactly, sequential and sharded.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "core/model.h"
#include "eval/methods.h"
#include "io/model_snapshot.h"
#include "synth/world_generator.h"

namespace mlp {
namespace io {
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
  EXPECT_EQ(a.home_change_per_sweep, b.home_change_per_sweep);
  EXPECT_EQ(a.alpha, b.alpha);
  EXPECT_EQ(a.beta, b.beta);
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ------------------------------------------------------- format round-trip

TEST(ModelSnapshotTest, RoundTripIsBitIdentical) {
  synth::SyntheticWorld world = TestWorld(200, 42);
  FitHarness harness(world);
  core::MlpConfig config;
  config.burn_in_iterations = 2;
  config.sampling_iterations = 3;

  core::FitCheckpoint checkpoint;
  core::FitOptions opts;
  opts.checkpoint_out = &checkpoint;
  Result<core::MlpResult> result =
      core::MlpModel(config).Fit(harness.input, opts);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(checkpoint.complete);

  ModelSnapshot snapshot =
      MakeModelSnapshot(harness.input, checkpoint, *result);
  const std::string path = TempPath("roundtrip.snap");
  ASSERT_TRUE(SaveModelSnapshot(path, snapshot).ok());
  Result<ModelSnapshot> loaded = LoadModelSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // The arena and every other double must survive bit-for-bit: vector
  // equality on doubles is exact, no tolerance.
  EXPECT_EQ(loaded->checkpoint.sampler.phi, checkpoint.sampler.phi);
  EXPECT_EQ(loaded->checkpoint.sampler.phi_total,
            checkpoint.sampler.phi_total);
  EXPECT_EQ(loaded->checkpoint.sampler.venue_counts,
            checkpoint.sampler.venue_counts);
  EXPECT_EQ(loaded->checkpoint.sampler.venue_counts_total,
            checkpoint.sampler.venue_counts_total);
  EXPECT_EQ(loaded->checkpoint.sampler.mu, checkpoint.sampler.mu);
  EXPECT_EQ(loaded->checkpoint.sampler.x_idx, checkpoint.sampler.x_idx);
  EXPECT_EQ(loaded->checkpoint.sampler.y_idx, checkpoint.sampler.y_idx);
  EXPECT_EQ(loaded->checkpoint.sampler.nu, checkpoint.sampler.nu);
  EXPECT_EQ(loaded->checkpoint.sampler.z_idx, checkpoint.sampler.z_idx);
  EXPECT_EQ(loaded->checkpoint.sampler.acc_phi, checkpoint.sampler.acc_phi);
  EXPECT_EQ(loaded->checkpoint.sampler.acc_x, checkpoint.sampler.acc_x);
  EXPECT_EQ(loaded->checkpoint.sampler.acc_mu, checkpoint.sampler.acc_mu);
  EXPECT_EQ(loaded->checkpoint.sampler.accumulated_samples,
            checkpoint.sampler.accumulated_samples);
  EXPECT_EQ(loaded->checkpoint.fingerprint, checkpoint.fingerprint);
  EXPECT_EQ(loaded->checkpoint.complete, checkpoint.complete);
  EXPECT_EQ(loaded->checkpoint.master_rng.state, checkpoint.master_rng.state);
  EXPECT_EQ(loaded->checkpoint.master_rng.inc, checkpoint.master_rng.inc);
  EXPECT_EQ(loaded->checkpoint.config.seed, config.seed);
  EXPECT_EQ(loaded->checkpoint.config.num_threads, config.num_threads);
  EXPECT_EQ(loaded->phi_offset, snapshot.phi_offset);
  EXPECT_EQ(loaded->candidates, snapshot.candidates);
  EXPECT_EQ(loaded->num_locations, snapshot.num_locations);
  EXPECT_EQ(loaded->num_venues, snapshot.num_venues);
  ExpectIdenticalResults(*result, loaded->result);
  std::remove(path.c_str());
}

// --------------------------------------------------- corruption rejection

class CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    synth::SyntheticWorld world = TestWorld(120, 9);
    FitHarness harness(world);
    core::MlpConfig config;
    config.burn_in_iterations = 1;
    config.sampling_iterations = 2;
    core::FitCheckpoint checkpoint;
    core::FitOptions opts;
    opts.checkpoint_out = &checkpoint;
    Result<core::MlpResult> result =
        core::MlpModel(config).Fit(harness.input, opts);
    ASSERT_TRUE(result.ok());
    path_ = TempPath("corrupt.snap");
    ASSERT_TRUE(
        SaveModelSnapshot(
            path_, MakeModelSnapshot(harness.input, checkpoint, *result))
            .ok());
    std::ifstream in(path_, std::ios::binary);
    bytes_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    ASSERT_GT(bytes_.size(), 200u);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteBytes(const std::vector<char>& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string path_;
  std::vector<char> bytes_;
};

TEST_F(CorruptionTest, FlippedPayloadByteFailsChecksum) {
  std::vector<char> corrupt = bytes_;
  corrupt[corrupt.size() / 2] ^= 0x5a;
  WriteBytes(corrupt);
  Result<ModelSnapshot> loaded = LoadModelSnapshot(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError());
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos);
}

TEST_F(CorruptionTest, TruncatedFileRejected) {
  std::vector<char> truncated(bytes_.begin(),
                              bytes_.begin() + bytes_.size() / 3);
  WriteBytes(truncated);
  EXPECT_FALSE(LoadModelSnapshot(path_).ok());
  // Even losing a single trailing byte must fail.
  std::vector<char> short_one(bytes_.begin(), bytes_.end() - 1);
  WriteBytes(short_one);
  EXPECT_FALSE(LoadModelSnapshot(path_).ok());
}

TEST_F(CorruptionTest, DowngradedVersionByteFailsChecksum) {
  // The v2 checksum covers the header's version word: flipping a v2 file's
  // version down to 1 must read as corruption, never as an instruction to
  // reparse the payload under the v1 layout.
  std::vector<char> downgraded = bytes_;
  ASSERT_EQ(downgraded[8], 2);  // version u32 LSB
  downgraded[8] = 1;
  WriteBytes(downgraded);
  Result<ModelSnapshot> loaded = LoadModelSnapshot(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError());
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos);
}

TEST_F(CorruptionTest, ForeignMagicRejected) {
  std::vector<char> foreign = bytes_;
  foreign[0] = 'X';
  WriteBytes(foreign);
  Result<ModelSnapshot> loaded = LoadModelSnapshot(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
}

TEST_F(CorruptionTest, FutureVersionRejected) {
  std::vector<char> future = bytes_;
  future[8] = static_cast<char>(kModelSnapshotVersion + 1);  // version u32
  WriteBytes(future);
  Result<ModelSnapshot> loaded = LoadModelSnapshot(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
}

// The i32 config slot after num_threads once held the merge cadence
// (`mlpctl fit --sync-every N`). Every sweep merges now and the writer
// always emits 1; a file holding another value was fit with a sweep program
// that no longer exists, so the reader names the retired option instead of
// loading it (or failing later on a misleading fingerprint mismatch).
TEST_F(CorruptionTest, RetiredMergeCadenceSlotRejected) {
  // Payload offset 112: source i32, alpha/beta f64, fit_power_law u8,
  // rho_f/rho_t f64, model_noise u8, tau/supervision_boost/delta f64,
  // use_candidacy/use_supervision u8, five i32 counts, em_damping f64,
  // seed u64, distance_floor_miles f64, num_threads i32.
  constexpr size_t kSlot = kModelSnapshotHeaderSize + 112;
  std::vector<char> patched = bytes_;
  uint64_t seed = 0;
  std::memcpy(&seed, patched.data() + kSlot - 20, sizeof(seed));
  ASSERT_EQ(seed, core::MlpConfig().seed);  // pins the offset
  int32_t slot = 0;
  std::memcpy(&slot, patched.data() + kSlot, sizeof(slot));
  ASSERT_EQ(slot, 1);
  slot = 2;
  std::memcpy(patched.data() + kSlot, &slot, sizeof(slot));

  // Reseal the checksum the way LoadModelSnapshot computes it: version
  // word, endian marker, then the payload.
  uint64_t payload_size = 0;
  std::memcpy(&payload_size, patched.data() + 16, sizeof(payload_size));
  Fnv1a64 checksum;
  checksum.Bytes(patched.data() + 8, 2 * sizeof(uint32_t));
  checksum.Bytes(patched.data() + kModelSnapshotHeaderSize, payload_size);
  std::memcpy(patched.data() + 24, &checksum.hash, sizeof(checksum.hash));
  WriteBytes(patched);

  Result<ModelSnapshot> loaded = LoadModelSnapshot(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument())
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("sync-every"), std::string::npos)
      << loaded.status().ToString();
}

std::vector<char> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

// Saves replace the target through a sibling temp file, so a save that
// fails midway leaves the previous snapshot untouched.
TEST_F(CorruptionTest, FailedSaveLeavesPreviousSnapshotIntact) {
  Result<ModelSnapshot> loaded = LoadModelSnapshot(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::string tmp = path_ + ".tmp";
  ASSERT_TRUE(SaveModelSnapshot(path_, *loaded).ok());
  EXPECT_FALSE(std::filesystem::exists(tmp));
  EXPECT_EQ(ReadBytes(path_), bytes_);

  // A directory squatting on the temp name makes the write fail; the old
  // bytes must survive a save of a different snapshot.
  ModelSnapshot changed = std::move(*loaded);
  changed.result.alpha += 1.0;
  ASSERT_TRUE(std::filesystem::create_directory(tmp));
  Status saved = SaveModelSnapshot(path_, changed);
  EXPECT_TRUE(saved.IsIOError()) << saved.ToString();
  EXPECT_EQ(ReadBytes(path_), bytes_);
  std::filesystem::remove(tmp);

  ASSERT_TRUE(SaveModelSnapshot(path_, changed).ok());
  EXPECT_FALSE(std::filesystem::exists(tmp));
  EXPECT_NE(ReadBytes(path_), bytes_);
}

TEST(ModelSnapshotTest, MissingFileIsNotFound) {
  Result<ModelSnapshot> loaded =
      LoadModelSnapshot(TempPath("does-not-exist.snap"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsNotFound());
}

// ------------------------------------------------ warm-start determinism

void ExpectInterruptedEqualsUninterrupted(const core::MlpConfig& config,
                                          const FitHarness& harness,
                                          int stop_after) {
  Result<core::MlpResult> uninterrupted =
      core::MlpModel(config).Fit(harness.input);
  ASSERT_TRUE(uninterrupted.ok());

  core::FitCheckpoint checkpoint;
  core::FitOptions cold;
  cold.max_total_sweeps = stop_after;
  cold.checkpoint_out = &checkpoint;
  Result<core::MlpResult> partial =
      core::MlpModel(config).Fit(harness.input, cold);
  ASSERT_TRUE(partial.ok());
  ASSERT_FALSE(checkpoint.complete);

  // Round-trip the checkpoint through the on-disk format so the test
  // covers resume-from-file, not just resume-from-memory.
  const std::string path = TempPath("warmstart.snap");
  ASSERT_TRUE(
      SaveModelSnapshot(
          path, MakeModelSnapshot(harness.input, checkpoint, *partial))
          .ok());
  Result<ModelSnapshot> loaded = LoadModelSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());

  core::FitCheckpoint final_checkpoint;
  core::FitOptions warm;
  warm.warm_start = &loaded->checkpoint;
  warm.checkpoint_out = &final_checkpoint;
  Result<core::MlpResult> resumed =
      core::MlpModel(config).Fit(harness.input, warm);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(final_checkpoint.complete);
  ExpectIdenticalResults(*uninterrupted, *resumed);
}

TEST(WarmStartTest, SequentialResumeMatchesUninterrupted) {
  synth::SyntheticWorld world = TestWorld(250, 42);
  FitHarness harness(world);
  core::MlpConfig config;
  config.burn_in_iterations = 3;
  config.sampling_iterations = 4;
  // Stop mid-burn-in and mid-sampling.
  ExpectInterruptedEqualsUninterrupted(config, harness, 2);
  ExpectInterruptedEqualsUninterrupted(config, harness, 5);
}

TEST(WarmStartTest, GibbsEmResumeMatchesUninterrupted) {
  synth::SyntheticWorld world = TestWorld(200, 17);
  FitHarness harness(world);
  core::MlpConfig config;
  config.burn_in_iterations = 2;
  config.sampling_iterations = 2;
  config.gibbs_em_rounds = 1;
  // Stop inside round 0's sampling and inside round 1 (after the M-step).
  ExpectInterruptedEqualsUninterrupted(config, harness, 3);
  ExpectInterruptedEqualsUninterrupted(config, harness, 5);
}

TEST(WarmStartTest, ShardedResumeMatchesUninterrupted) {
  synth::SyntheticWorld world = TestWorld(250, 13);
  FitHarness harness(world);
  core::MlpConfig config;
  config.burn_in_iterations = 4;
  config.sampling_iterations = 3;
  config.num_threads = 3;
  ExpectInterruptedEqualsUninterrupted(config, harness, 2);
}

TEST(WarmStartTest, FingerprintMismatchIsRejected) {
  synth::SyntheticWorld world = TestWorld(150, 5);
  FitHarness harness(world);
  core::MlpConfig config;
  config.burn_in_iterations = 2;
  config.sampling_iterations = 2;

  core::FitCheckpoint checkpoint;
  core::FitOptions cold;
  cold.max_total_sweeps = 1;
  cold.checkpoint_out = &checkpoint;
  ASSERT_TRUE(core::MlpModel(config).Fit(harness.input, cold).ok());

  core::FitOptions warm;
  warm.warm_start = &checkpoint;
  // Different seed — a different chain; resuming must be refused.
  core::MlpConfig other_seed = config;
  other_seed.seed = config.seed + 1;
  Result<core::MlpResult> r1 =
      core::MlpModel(other_seed).Fit(harness.input, warm);
  ASSERT_FALSE(r1.ok());
  EXPECT_TRUE(r1.status().IsInvalidArgument());
  // Different thread count — a different (equally valid) chain; refused.
  core::MlpConfig other_threads = config;
  other_threads.num_threads = 2;
  Result<core::MlpResult> r2 =
      core::MlpModel(other_threads).Fit(harness.input, warm);
  ASSERT_FALSE(r2.ok());
  // Different data — masked homes change the priors; refused.
  core::ModelInput masked = harness.input;
  for (size_t u = 0; u < masked.observed_home.size() && u < 10; ++u) {
    masked.observed_home[u] = geo::kInvalidCity;
  }
  Result<core::MlpResult> r3 = core::MlpModel(config).Fit(masked, warm);
  ASSERT_FALSE(r3.ok());
}

TEST(WarmStartTest, CompletedCheckpointResumesToSameResult) {
  synth::SyntheticWorld world = TestWorld(150, 23);
  FitHarness harness(world);
  core::MlpConfig config;
  config.burn_in_iterations = 2;
  config.sampling_iterations = 2;

  core::FitCheckpoint checkpoint;
  core::FitOptions opts;
  opts.checkpoint_out = &checkpoint;
  Result<core::MlpResult> first =
      core::MlpModel(config).Fit(harness.input, opts);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(checkpoint.complete);

  // Warm-starting a finished fit runs zero sweeps and rebuilds the same
  // result — the serving reload path.
  core::FitOptions warm;
  warm.warm_start = &checkpoint;
  Result<core::MlpResult> reloaded =
      core::MlpModel(config).Fit(harness.input, warm);
  ASSERT_TRUE(reloaded.ok());
  ExpectIdenticalResults(*first, *reloaded);
}

// -------------------------------------------- pruning & v1 compatibility

// A pruned fit interrupted at a barrier and resumed from its snapshot must
// replay the uninterrupted pruned fit exactly — activation mask, cold
// streaks, compaction history and cost-resharding all round-trip.
TEST(WarmStartTest, PrunedResumeMatchesUninterrupted) {
  synth::SyntheticWorld world = TestWorld(300, 47);
  FitHarness harness(world);
  core::MlpConfig config;
  config.burn_in_iterations = 5;
  config.sampling_iterations = 3;
  config.prune_floor = 0.02;
  config.prune_patience = 2;
  // Stop before pruning can fire (sweep 1), right around the first
  // possible compaction (sweep 3) and mid-sampling (sweep 6).
  ExpectInterruptedEqualsUninterrupted(config, harness, 1);
  ExpectInterruptedEqualsUninterrupted(config, harness, 3);
  ExpectInterruptedEqualsUninterrupted(config, harness, 6);
  // Sharded: the resumed engine must re-derive the cost-based shards.
  config.num_threads = 3;
  ExpectInterruptedEqualsUninterrupted(config, harness, 3);
}

// v1→v2 compatibility (the format-evolution contract): a v1 snapshot —
// written by this build's legacy writer, byte-identical to PR-2 files —
// loads with an all-active mask and resumes bit-exactly with pruning off.
TEST(WarmStartTest, V1SnapshotLoadsFullyActiveAndResumesBitExactly) {
  synth::SyntheticWorld world = TestWorld(250, 53);
  FitHarness harness(world);
  core::MlpConfig config;
  config.burn_in_iterations = 3;
  config.sampling_iterations = 4;  // prune_floor stays 0 (--no_prune)

  Result<core::MlpResult> uninterrupted =
      core::MlpModel(config).Fit(harness.input);
  ASSERT_TRUE(uninterrupted.ok());

  core::FitCheckpoint checkpoint;
  core::FitOptions cold;
  cold.max_total_sweeps = 2;
  cold.checkpoint_out = &checkpoint;
  Result<core::MlpResult> partial =
      core::MlpModel(config).Fit(harness.input, cold);
  ASSERT_TRUE(partial.ok());
  ASSERT_FALSE(checkpoint.complete);
  // An unpruned checkpoint is v1-expressible: canonical empty mask.
  ASSERT_TRUE(checkpoint.activation.active.empty());

  const std::string path = TempPath("v1compat.snap");
  ASSERT_TRUE(
      SaveModelSnapshotV1(
          path, MakeModelSnapshot(harness.input, checkpoint, *partial))
          .ok());
  Result<ModelSnapshot> loaded = LoadModelSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());

  // The v1 reader leaves the activation fully active and pruning off.
  EXPECT_TRUE(loaded->checkpoint.activation.active.empty());
  EXPECT_EQ(loaded->checkpoint.activation.layout_version, 0u);
  EXPECT_EQ(loaded->checkpoint.config.prune_floor, 0.0);
  EXPECT_EQ(loaded->checkpoint.fingerprint, checkpoint.fingerprint);

  core::FitOptions warm;
  warm.warm_start = &loaded->checkpoint;
  Result<core::MlpResult> resumed =
      core::MlpModel(config).Fit(harness.input, warm);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectIdenticalResults(*uninterrupted, *resumed);
}

// The v1 writer must refuse state it cannot express.
TEST(WarmStartTest, V1WriterRejectsPrunedState) {
  synth::SyntheticWorld world = TestWorld(300, 59);
  FitHarness harness(world);
  core::MlpConfig config;
  config.burn_in_iterations = 5;
  config.sampling_iterations = 2;
  config.prune_floor = 0.02;
  config.prune_patience = 1;
  core::FitCheckpoint checkpoint;
  core::FitOptions opts;
  opts.checkpoint_out = &checkpoint;
  Result<core::MlpResult> result =
      core::MlpModel(config).Fit(harness.input, opts);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(checkpoint.activation.layout_version, 0u)
      << "expected the aggressive floor to prune something";
  const std::string path = TempPath("v1reject.snap");
  Status saved = SaveModelSnapshotV1(
      path, MakeModelSnapshot(harness.input, checkpoint, *result));
  EXPECT_TRUE(saved.IsInvalidArgument()) << saved.ToString();
  // The v2 writer handles it, round-trips the activation, and the stored
  // candidate section is the COMPACTED layout the arena is indexed by.
  ModelSnapshot snapshot =
      MakeModelSnapshot(harness.input, checkpoint, *result);
  ASSERT_TRUE(SaveModelSnapshot(path, snapshot).ok());
  Result<ModelSnapshot> loaded = LoadModelSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());
  EXPECT_EQ(loaded->checkpoint.activation.active,
            checkpoint.activation.active);
  EXPECT_EQ(loaded->checkpoint.activation.cold_streak,
            checkpoint.activation.cold_streak);
  EXPECT_EQ(loaded->checkpoint.activation.layout_version,
            checkpoint.activation.layout_version);
  ASSERT_EQ(loaded->checkpoint.activation.history.size(),
            checkpoint.activation.history.size());
  EXPECT_EQ(static_cast<int64_t>(loaded->candidates.size()),
            loaded->phi_offset.back());
  EXPECT_EQ(loaded->candidates.size(),
            loaded->checkpoint.sampler.phi.size());
  EXPECT_LT(loaded->candidates.size(), checkpoint.activation.active.size());
}

// The MLP_WS lineup entry must be indistinguishable from MLP.
TEST(WarmStartTest, WarmResumeLineupVariantMatchesMlp) {
  synth::SyntheticWorld world = TestWorld(200, 31);
  FitHarness harness(world);
  core::MlpConfig config;
  config.burn_in_iterations = 2;
  config.sampling_iterations = 3;

  Result<eval::MethodOutput> direct =
      eval::MakeMlpMethod(config)(harness.input);
  ASSERT_TRUE(direct.ok());
  Result<eval::MethodOutput> warm =
      eval::MakeWarmResumeMlpMethod(config)(harness.input);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(direct->home, warm->home);
  ASSERT_EQ(direct->profiles.size(), warm->profiles.size());
  for (size_t u = 0; u < direct->profiles.size(); ++u) {
    EXPECT_EQ(direct->profiles[u].entries(), warm->profiles[u].entries());
  }
}

}  // namespace
}  // namespace io
}  // namespace mlp
